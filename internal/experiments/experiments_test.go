package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table1 has %d rows, want 3", len(rows))
	}
	want := []struct {
		name         string
		periodMillis float64
		memKB        float64
		mbps         float64
	}{
		{"high speed", 1, 4, 32},
		{"medium speed", 30, 64, 17.5},
		{"low speed", 150, 128, 6.8},
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name {
			t.Errorf("row %d name = %q, want %q", i, r.Name, w.name)
		}
		if r.PeriodMillis != w.periodMillis || r.MemoryKB != w.memKB {
			t.Errorf("row %d = %+v, want period %g ms, memory %g KB", i, r, w.periodMillis, w.memKB)
		}
		if math.Abs(r.PayloadMbps-w.mbps)/w.mbps > 0.05 {
			t.Errorf("%s payload = %.2f Mbps, want about %g", r.Name, r.PayloadMbps, w.mbps)
		}
		if r.WireMbps <= r.PayloadMbps {
			t.Errorf("%s wire bandwidth %.2f not above payload %.2f", r.Name, r.WireMbps, r.PayloadMbps)
		}
	}
}

// smallSym keeps test sweeps fast: an 8-node ring and a coarse load grid.
func smallSym(terminals []int) SymmetricConfig {
	return SymmetricConfig{
		RingNodes: 8,
		Terminals: terminals,
		Loads:     []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	}
}

func TestFigure10Shape(t *testing.T) {
	series, err := Figure10(smallSym([]int{1, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Label != "N=1" || series[1].Label != "N=8" {
		t.Fatalf("series = %+v", series)
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("series %s empty", s.Label)
		}
		// Delay bounds increase monotonically with load.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y-1e-9 {
				t.Errorf("series %s not monotone: %v", s.Label, s.Points)
			}
		}
	}
	// Burstier nodes (larger N) support less load: the N=8 curve ends
	// earlier and sits above the N=1 curve at equal loads.
	n1, n8 := series[0], series[1]
	if len(n8.Points) >= len(n1.Points) {
		t.Errorf("N=8 supports %d load points, N=1 supports %d; want fewer for N=8",
			len(n8.Points), len(n1.Points))
	}
	for i := range n8.Points {
		if n8.Points[i].Y <= n1.Points[i].Y {
			t.Errorf("at B=%g: N=8 bound %g not above N=1 bound %g",
				n8.Points[i].X, n8.Points[i].Y, n1.Points[i].Y)
		}
	}
}

func TestFigure10PaperAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-node sweep")
	}
	series, err := Figure10(SymmetricConfig{
		Terminals: []int{1, 16},
		Loads:     []float64{0.35, 0.5, 0.75},
	})
	if err != nil {
		t.Fatal(err)
	}
	n1, n16 := series[0], series[1]
	// N=1 supports 75% under 370 cell times.
	if len(n1.Points) != 3 {
		t.Fatalf("N=1 points = %v, want all three loads feasible", n1.Points)
	}
	if d := n1.Points[2].Y; d > 370 {
		t.Errorf("N=1 B=0.75 bound = %.0f, want <= 370", d)
	}
	// N=16 supports 35% but not 50%.
	if len(n16.Points) != 1 {
		t.Fatalf("N=16 points = %v, want only B=0.35 feasible", n16.Points)
	}
}

func TestMaxSymmetricLoad(t *testing.T) {
	cfg := smallSym([]int{1})
	b, err := maxSymmetricLoad(cfg, 1, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0.5 || b > 1 {
		t.Errorf("max symmetric load for N=1 on 8 nodes = %g, want in (0.5, 1]", b)
	}
	b16, err := maxSymmetricLoad(cfg, 16, 1.0/64)
	if err != nil {
		t.Fatal(err)
	}
	if b16 >= b {
		t.Errorf("N=16 max load %g not below N=1 max load %g", b16, b)
	}
}

func smallAsym(terminals []int) AsymmetricConfig {
	return AsymmetricConfig{
		RingNodes: 8,
		Terminals: terminals,
		Shares:    []float64{0.1, 0.4, 0.7},
		Tolerance: 1.0 / 64,
	}
}

func TestFigure11Shape(t *testing.T) {
	series, err := Figure11(smallAsym([]int{1, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("series %s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 || p.Y > 1 {
				t.Errorf("series %s point %+v outside (0,1]", s.Label, p)
			}
		}
	}
	// The bursty configuration (N=8) supports less load when asymmetry
	// grows; for the near-CBR N=1 case the effect is weaker at small ring
	// sizes, so monotonicity is asserted only for N=8.
	n8 := series[1]
	for i := 1; i < len(n8.Points); i++ {
		if n8.Points[i].Y > n8.Points[i-1].Y+1.0/32 {
			t.Errorf("series %s: supported load grows with p: %v", n8.Label, n8.Points)
		}
	}
	// More terminals per node support less traffic at every p.
	for i := range series[0].Points {
		if series[1].Points[i].Y > series[0].Points[i].Y+1.0/32 {
			t.Errorf("N=8 supports more than N=1 at p=%g", series[0].Points[i].X)
		}
	}
}

func TestFigure12TwoPrioritiesDominate(t *testing.T) {
	series, err := Figure12(Figure12Config{
		RingNodes: 8,
		Terminals: 8,
		Shares:    []float64{0.1, 0.4, 0.7},
		Tolerance: 1.0 / 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Label != "1 priority" || series[1].Label != "2 priorities" {
		t.Fatalf("series labels = %q, %q", series[0].Label, series[1].Label)
	}
	atLeastOneGain := false
	for i := range series[0].Points {
		one, two := series[0].Points[i].Y, series[1].Points[i].Y
		if two < one-1.0/32 {
			t.Errorf("two priorities support less (%g) than one (%g) at p=%g",
				two, one, series[0].Points[i].X)
		}
		if two > one+1.0/32 {
			atLeastOneGain = true
		}
	}
	if !atLeastOneGain {
		t.Error("two priority levels never supported extra traffic")
	}
}

func TestFigure13SoftDominatesHard(t *testing.T) {
	series, err := Figure13(Figure13Config{
		RingNodes: 8,
		Terminals: 8,
		Shares:    []float64{0.1, 0.4, 0.7},
		Tolerance: 1.0 / 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Label != "soft CAC" || series[1].Label != "hard CAC" {
		t.Fatalf("series labels = %q, %q", series[0].Label, series[1].Label)
	}
	atLeastOneGain := false
	for i := range series[0].Points {
		soft, hard := series[0].Points[i].Y, series[1].Points[i].Y
		if soft < hard-1.0/32 {
			t.Errorf("soft CAC supports less (%g) than hard (%g) at p=%g",
				soft, hard, series[0].Points[i].X)
		}
		if soft > hard+1.0/32 {
			atLeastOneGain = true
		}
	}
	if !atLeastOneGain {
		t.Error("soft CAC never admitted extra traffic")
	}
}

func TestWriteTSV(t *testing.T) {
	var sb strings.Builder
	err := WriteTSV(&sb, []Series{
		{Label: "a", Points: []Point{{1, 2}, {3, 4}}},
		{Label: "b", Points: []Point{{5, 6}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# a\n1\t2\n3\t4\n\n# b\n5\t6\n"
	if got != want {
		t.Fatalf("WriteTSV = %q, want %q", got, want)
	}
}

// maxSymmetricLoad finds the largest symmetric load admissible for a given
// N — the knee of a Figure 10 curve — by binary search.
func maxSymmetricLoad(cfg SymmetricConfig, nTerm int, tolerance float64) (float64, error) {
	cfg = cfg.withDefaults()
	if tolerance <= 0 {
		tolerance = 1.0 / 128
	}
	lo, hi := 0.0, 1.0
	if _, ok, err := symmetricBound(cfg, nTerm, 1.0); err != nil {
		return 0, err
	} else if ok {
		return 1.0, nil
	}
	for hi-lo > tolerance {
		mid := (lo + hi) / 2
		_, ok, err := symmetricBound(cfg, nTerm, mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
