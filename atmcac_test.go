package atmcac_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"atmcac"
	"atmcac/internal/bitstream"
	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// TestFacadeQuickstart exercises the public API end to end: build the
// envelope algebra, a switch, and a two-hop network through the root
// package, reaching the internal packages only for what the root does not
// export (Sub, ErrUnknownConn).
func TestFacadeQuickstart(t *testing.T) {
	// Bit-stream algebra.
	env, err := atmcac.FromVBR(0.5, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	agg := atmcac.SumStreams(env, env)
	d, err := atmcac.DelayBound(agg, atmcac.ZeroStream())
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("two multiplexed bursts bound = %g, want > 0", d)
	}
	back, err := bitstream.Sub(agg, env)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(env, 1e-9) {
		t.Error("Sub(Add(e,e), e) != e through the facade")
	}

	// Switch-level admission.
	sw, err := atmcac.NewSwitch(atmcac.SwitchConfig{
		Name:       "node0",
		QueueCells: map[atmcac.Priority]float64{1: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Admit(atmcac.HopRequest{
		Conn: "sensor-1", Spec: atmcac.CBR(0.05), In: 1, Out: 0, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guaranteed != 32 {
		t.Errorf("guaranteed = %g, want 32", res.Guaranteed)
	}

	// Network-level setup and teardown.
	n := atmcac.NewNetwork(atmcac.SoftCDV{})
	for _, name := range []string{"a", "b"} {
		if _, err := n.AddSwitch(atmcac.SwitchConfig{
			Name: name, QueueCells: map[atmcac.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	route := atmcac.Route{{Switch: "a", In: 1, Out: 0}, {Switch: "b", In: 0, Out: 0}}
	adm, err := n.Setup(context.Background(), atmcac.ConnRequest{
		ID: "c1", Spec: atmcac.VBR(0.5, 0.1, 4), Priority: 1, Route: route, DelayBound: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adm.EndToEndGuaranteed != 64 {
		t.Errorf("end-to-end guarantee = %g, want 64", adm.EndToEndGuaranteed)
	}
	if err := n.Teardown("c1"); err != nil {
		t.Fatal(err)
	}
	if err := n.Teardown("c1"); !errors.Is(err, core.ErrUnknownConn) {
		t.Errorf("double teardown error = %v", err)
	}
}

func TestFacadeUnits(t *testing.T) {
	ct := atmcac.OC3.CellTime()
	if ct <= 0 {
		t.Fatalf("OC3 cell time = %v", ct)
	}
	r := atmcac.OC3.Normalize(155.52e6 / 2)
	if math.Abs(r-0.5) > 1e-12 {
		t.Errorf("half OC3 normalized = %g, want 0.5", r)
	}
}

func TestFacadePacerAndChecker(t *testing.T) {
	spec := atmcac.VBR(0.5, 0.1, 4)
	p, err := atmcac.NewPacer(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := traffic.NewChecker(spec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ok, err := c.Observe(p.NextAfter(0))
		if err != nil || !ok {
			t.Fatalf("cell %d non-conforming: %v", i, err)
		}
	}
}

func TestFacadeRejection(t *testing.T) {
	sw, err := atmcac.NewSwitch(atmcac.SwitchConfig{
		Name: "tiny", QueueCells: map[atmcac.Priority]float64{1: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rejected error
	for i := 0; i < 8 && rejected == nil; i++ {
		_, rejected = sw.Admit(atmcac.HopRequest{
			Conn: atmcac.ConnID(rune('a' + i)), Spec: atmcac.CBR(0.01),
			In: atmcac.PortID(i), Out: 0, Priority: 1,
		})
	}
	if !errors.Is(rejected, atmcac.ErrRejected) {
		t.Fatalf("rejection = %v, want ErrRejected", rejected)
	}
	var detail *atmcac.RejectionError
	if !errors.As(rejected, &detail) {
		t.Fatal("rejection lacks RejectionError detail")
	}
}
