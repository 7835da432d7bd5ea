// Package experiments regenerates the evaluation artifacts of the paper's
// Section 5: Table 1 (cyclic transmission classes) and Figures 10-13
// (symmetric delay bounds, asymmetric capacity, multi-priority gains, and
// soft-vs-hard CAC). Each generator returns plottable series; the cmd tool
// and the benchmark harness render them as TSV.
package experiments

import (
	"fmt"
	"io"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// WriteTSV renders series in a gnuplot-friendly tab-separated layout:
// blocks of "x<TAB>y" lines separated by blank lines, each preceded by a
// "# label" comment.
func WriteTSV(w io.Writer, series []Series) error {
	for i, s := range series {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# %s\n", s.Label); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%.6g\t%.6g\n", p.X, p.Y); err != nil {
				return err
			}
		}
	}
	return nil
}

// Table1Row is one cyclic transmission class with both the paper's reported
// bandwidth and the wire-level (cell overhead included) bandwidth.
type Table1Row struct {
	Name           string
	PeriodMillis   float64
	DelayMillis    float64
	MemoryKB       float64
	PayloadMbps    float64 // the paper's Table 1 "bandwidth" column
	WireMbps       float64 // including 53/48 cell overhead
	NormalizedRate float64 // wire bandwidth on OC-3
	DelayCellTimes float64 // delay budget in OC-3 cell times
}

// Table1 computes the paper's Table 1 from first principles.
func Table1() ([]Table1Row, error) {
	classes := rtnet.Classes()
	rows := make([]Table1Row, 0, len(classes))
	for _, c := range classes {
		payload, err := c.Bandwidth()
		if err != nil {
			return nil, err
		}
		rate, err := c.NormalizedRate()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:           c.Name,
			PeriodMillis:   float64(c.Period.Microseconds()) / 1000,
			DelayMillis:    float64(c.Delay.Microseconds()) / 1000,
			MemoryKB:       float64(c.MemoryBytes) / 1024,
			PayloadMbps:    payload / 1e6,
			WireMbps:       rate * 155.52,
			NormalizedRate: rate,
			DelayCellTimes: c.DelayCellTimes(),
		})
	}
	return rows, nil
}

// SymmetricConfig parameterizes Figure 10.
type SymmetricConfig struct {
	// RingNodes defaults to 16.
	RingNodes int
	// Terminals are the N values to sweep; default {1, 4, 8, 16}.
	Terminals []int
	// Loads are the total normalized loads B to sweep; default
	// 0.025..1.0 in steps of 0.025.
	Loads []float64
	// Priority of the cyclic traffic; default 1.
	Priority core.Priority
}

func (c SymmetricConfig) withDefaults() SymmetricConfig {
	if c.RingNodes == 0 {
		c.RingNodes = rtnet.DefaultRingNodes
	}
	if len(c.Terminals) == 0 {
		c.Terminals = []int{1, 4, 8, 16}
	}
	if len(c.Loads) == 0 {
		for b := 0.025; b <= 1.0+1e-9; b += 0.025 {
			c.Loads = append(c.Loads, b)
		}
	}
	if c.Priority == 0 {
		c.Priority = 1
	}
	return c
}

// Figure10 reproduces the paper's Figure 10: the worst-case end-to-end
// queueing delay bound of symmetric cyclic traffic as a function of the
// total load B, one series per terminals-per-node value N. A series stops
// at the largest admissible load (the CAC rejects beyond it).
func Figure10(cfg SymmetricConfig) ([]Series, error) {
	cfg = cfg.withDefaults()
	series := make([]Series, 0, len(cfg.Terminals))
	for _, nTerm := range cfg.Terminals {
		s := Series{Label: fmt.Sprintf("N=%d", nTerm)}
		for _, load := range cfg.Loads {
			bound, feasible, err := symmetricBound(cfg, nTerm, load)
			if err != nil {
				return nil, err
			}
			if !feasible {
				break // higher loads only get worse
			}
			s.Points = append(s.Points, Point{X: load, Y: bound})
		}
		series = append(series, s)
	}
	return series, nil
}

// symmetricBound evaluates one (N, B) cell of Figure 10: feasibility and
// the worst end-to-end bound.
func symmetricBound(cfg SymmetricConfig, nTerm int, load float64) (bound float64, feasible bool, err error) {
	n, err := rtnet.New(rtnet.Config{
		RingNodes:        cfg.RingNodes,
		TerminalsPerNode: nTerm,
	})
	if err != nil {
		return 0, false, err
	}
	w, err := n.SymmetricWorkload(load, cfg.Priority)
	if err != nil {
		return 0, false, err
	}
	if err := n.InstallAll(w); err != nil {
		return 0, false, err
	}
	violations, err := n.Audit()
	if err != nil {
		return 0, false, err
	}
	if len(violations) > 0 {
		return 0, false, nil
	}
	bound, err = n.MaxBroadcastBound(cfg.Priority)
	if err != nil {
		return 0, false, err
	}
	return bound, true, nil
}

// AsymmetricConfig parameterizes Figures 11-13.
type AsymmetricConfig struct {
	// RingNodes defaults to 16.
	RingNodes int
	// Terminals are the N values to sweep (Figure 11 uses {1, 8, 16};
	// Figures 12 and 13 use {16}).
	Terminals []int
	// Shares are the hot-terminal shares p to sweep; default 0.05..1.0 in
	// steps of 0.05.
	Shares []float64
	// Tolerance is the binary-search resolution on the supported load;
	// default 1/128.
	Tolerance float64
	// QueueCells configures the ring-node queues; default {1: 32}.
	QueueCells map[core.Priority]float64
	// HotPriority and OtherPriority assign priorities; default both 1.
	HotPriority   core.Priority
	OtherPriority core.Priority
	// Policy is the CDV accumulation policy; default hard.
	Policy core.CDVPolicy
}

func (c AsymmetricConfig) withDefaults() AsymmetricConfig {
	if c.RingNodes == 0 {
		c.RingNodes = rtnet.DefaultRingNodes
	}
	if len(c.Terminals) == 0 {
		c.Terminals = []int{1, 8, 16}
	}
	if len(c.Shares) == 0 {
		// p = 1.0 is excluded: with every other terminal silent the single
		// remaining connection is smooth and the supported load jumps to 1,
		// a degenerate point outside the paper's regime of interest.
		for p := 0.05; p <= 0.95+1e-9; p += 0.05 {
			c.Shares = append(c.Shares, p)
		}
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1.0 / 128
	}
	if c.QueueCells == nil {
		c.QueueCells = map[core.Priority]float64{1: rtnet.DefaultQueueCells}
	}
	if c.HotPriority == 0 {
		c.HotPriority = 1
	}
	if c.OtherPriority == 0 {
		c.OtherPriority = 1
	}
	if c.Policy == nil {
		c.Policy = core.HardCDV{}
	}
	return c
}

// maxAsymmetricLoad binary-searches the largest total load B whose
// asymmetric workload passes the audit. Admissibility is monotone in B
// (scaling every envelope up can only increase every bound).
func maxAsymmetricLoad(cfg AsymmetricConfig, nTerm int, share float64) (float64, error) {
	feasible := func(load float64) (bool, error) {
		n, err := rtnet.New(rtnet.Config{
			RingNodes:        cfg.RingNodes,
			TerminalsPerNode: nTerm,
			QueueCells:       cfg.QueueCells,
			Policy:           cfg.Policy,
		})
		if err != nil {
			return false, err
		}
		w, err := n.AsymmetricWorkload(load, share, cfg.HotPriority, cfg.OtherPriority)
		if err != nil {
			return false, err
		}
		if err := n.InstallAll(w); err != nil {
			return false, err
		}
		violations, err := n.Audit()
		if err != nil {
			return false, err
		}
		return len(violations) == 0, nil
	}
	lo, hi := 0.0, 1.0
	// Establish whether full load is feasible to skip the search.
	if ok, err := feasible(1.0); err != nil {
		return 0, err
	} else if ok {
		return 1.0, nil
	}
	for hi-lo > cfg.Tolerance {
		mid := (lo + hi) / 2
		ok, err := feasible(mid)
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

// Figure11 reproduces the paper's Figure 11: the total cyclic load the
// network can support as a function of the hot terminal's share p, one
// series per N.
func Figure11(cfg AsymmetricConfig) ([]Series, error) {
	cfg = cfg.withDefaults()
	series := make([]Series, 0, len(cfg.Terminals))
	for _, nTerm := range cfg.Terminals {
		s := Series{Label: fmt.Sprintf("N=%d", nTerm)}
		for _, p := range cfg.Shares {
			b, err := maxAsymmetricLoad(cfg, nTerm, p)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: p, Y: b})
		}
		series = append(series, s)
	}
	return series, nil
}

// Figure12Config parameterizes Figure 12.
type Figure12Config struct {
	// RingNodes defaults to 16, Terminals to 16.
	RingNodes int
	Terminals int
	// Shares as in AsymmetricConfig.
	Shares    []float64
	Tolerance float64
	// LowPriorityQueueCells is the FIFO size of the second (lower)
	// priority queue that carries the delay-tolerant connections;
	// default 256.
	LowPriorityQueueCells float64
}

// Figure12 reproduces the paper's Figure 12: supported asymmetric load with
// one priority level versus two. With two levels, connections that tolerate
// a larger delay bound — here the numerous cold cyclic connections, whose
// per-hop budget grows to the larger low-priority FIFO — are assigned the
// lower priority, exactly as the paper suggests ("connections requesting
// large delay bounds can be assigned low priority levels"). The hot
// terminal's connection keeps the tight priority-1 budget (alone at its
// priority it is smooth, so it easily meets it).
func Figure12(cfg Figure12Config) ([]Series, error) {
	if cfg.RingNodes == 0 {
		cfg.RingNodes = rtnet.DefaultRingNodes
	}
	if cfg.Terminals == 0 {
		cfg.Terminals = 16
	}
	if cfg.LowPriorityQueueCells == 0 {
		cfg.LowPriorityQueueCells = 256
	}
	one := AsymmetricConfig{
		RingNodes: cfg.RingNodes,
		Terminals: []int{cfg.Terminals},
		Shares:    cfg.Shares,
		Tolerance: cfg.Tolerance,
	}.withDefaults()
	two := one
	two.QueueCells = map[core.Priority]float64{
		1: rtnet.DefaultQueueCells,
		2: cfg.LowPriorityQueueCells,
	}
	two.HotPriority = 1
	two.OtherPriority = 2

	s1, err := Figure11(one)
	if err != nil {
		return nil, err
	}
	s2, err := Figure11(two)
	if err != nil {
		return nil, err
	}
	s1[0].Label = "1 priority"
	s2[0].Label = "2 priorities"
	return []Series{s1[0], s2[0]}, nil
}

// Figure13Config parameterizes Figure 13.
type Figure13Config struct {
	RingNodes int
	Terminals int
	Shares    []float64
	Tolerance float64
}

// Figure13 reproduces the paper's Figure 13: supported asymmetric load
// under the hard CAC (worst-case CDV summation) versus the soft CAC
// (square-root summation of upstream bounds).
func Figure13(cfg Figure13Config) ([]Series, error) {
	if cfg.RingNodes == 0 {
		cfg.RingNodes = rtnet.DefaultRingNodes
	}
	if cfg.Terminals == 0 {
		cfg.Terminals = 16
	}
	base := AsymmetricConfig{
		RingNodes: cfg.RingNodes,
		Terminals: []int{cfg.Terminals},
		Shares:    cfg.Shares,
		Tolerance: cfg.Tolerance,
	}.withDefaults()
	soft := base
	soft.Policy = core.SoftCDV{}

	hardSeries, err := Figure11(base)
	if err != nil {
		return nil, err
	}
	softSeries, err := Figure11(soft)
	if err != nil {
		return nil, err
	}
	hardSeries[0].Label = "hard CAC"
	softSeries[0].Label = "soft CAC"
	return []Series{softSeries[0], hardSeries[0]}, nil
}
