package atmcac_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"atmcac"
	"atmcac/internal/ablation"
	"atmcac/internal/experiments"
	"atmcac/internal/routing"
	"atmcac/internal/sim"
	"atmcac/internal/topology"
	"atmcac/internal/workload"
)

// ---------------------------------------------------------------------------
// Evaluation benchmarks: one per table/figure of the paper. Each measures
// the cost of regenerating the artifact (coarse grids keep iterations in
// the hundreds of milliseconds) and reports a headline number from the
// produced data as a custom metric, so `go test -bench` doubles as a
// reproduction smoke check. cmd/rtnet-figures produces the full-resolution
// series.
// ---------------------------------------------------------------------------

// BenchmarkTable1 regenerates Table 1 (cyclic transmission classes).
func BenchmarkTable1(b *testing.B) {
	var mbps float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		mbps = rows[0].PayloadMbps
	}
	b.ReportMetric(mbps, "highspeed-Mbps")
}

// BenchmarkFigure10 regenerates the symmetric delay-bound sweep (paper
// Figure 10) on a coarse load grid for all four N values.
func BenchmarkFigure10(b *testing.B) {
	cfg := experiments.SymmetricConfig{
		Loads: []float64{0.15, 0.35, 0.55, 0.75},
	}
	var boundN1 float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pts := series[0].Points
		boundN1 = pts[len(pts)-1].Y
	}
	// Paper: N=1 supports 75% load under 370 cell times.
	b.ReportMetric(boundN1, "N1-B0.75-bound-cells")
}

// BenchmarkFigure11 regenerates the asymmetric capacity sweep (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	cfg := experiments.AsymmetricConfig{
		Shares:    []float64{0.25, 0.5, 0.75},
		Tolerance: 1.0 / 32,
	}
	var n16 float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n16 = series[2].Points[1].Y // N=16, p=0.5
	}
	b.ReportMetric(n16, "N16-p0.5-maxload")
}

// BenchmarkFigure12 regenerates the one-versus-two-priorities comparison
// (Figure 12).
func BenchmarkFigure12(b *testing.B) {
	cfg := experiments.Figure12Config{
		Shares:    []float64{0.25, 0.5, 0.75},
		Tolerance: 1.0 / 32,
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gain = series[1].Points[1].Y - series[0].Points[1].Y
	}
	b.ReportMetric(gain, "2prio-gain-p0.5")
}

// BenchmarkFigure13 regenerates the soft-versus-hard CAC comparison
// (Figure 13).
func BenchmarkFigure13(b *testing.B) {
	cfg := experiments.Figure13Config{
		Shares:    []float64{0.25, 0.5, 0.75},
		Tolerance: 1.0 / 32,
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gain = series[0].Points[1].Y - series[1].Points[1].Y
	}
	b.ReportMetric(gain, "soft-gain-p0.5")
}

// BenchmarkValidationSim measures the CAC-versus-simulation soundness
// experiment (cell-level RTnet ring with conforming sources).
func BenchmarkValidationSim(b *testing.B) {
	cfg := atmcac.ValidationConfig{
		RingNodes: 6, Terminals: 2, Load: 0.3, Slots: 20000, Mode: atmcac.SimGreedy,
	}
	var slack float64
	for i := 0; i < b.N; i++ {
		res, err := atmcac.ValidateRTnet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds() {
			b.Fatalf("analytic guarantee violated: %s", res)
		}
		slack = res.AnalyticBound - float64(res.MeasuredMaxDelay)
	}
	b.ReportMetric(slack, "bound-slack-cells")
}

// BenchmarkAblation measures the design-choice ablation of DESIGN.md: the
// admissible-load gap between the paper's full scheme and the variants
// without link filtering / with crude distortion bounds.
func BenchmarkAblation(b *testing.B) {
	cfg := ablation.Config{RingNodes: 8, Terminals: 2}
	var filteringWorth float64
	for i := 0; i < b.N; i++ {
		cmp, err := ablation.Compare(cfg, 1.0/32)
		if err != nil {
			b.Fatal(err)
		}
		filteringWorth = cmp.MaxLoad[ablation.Exact] - cmp.MaxLoad[ablation.NoFiltering]
	}
	b.ReportMetric(filteringWorth, "filtering-load-gain")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core algorithms.
// ---------------------------------------------------------------------------

// BenchmarkFromVBR measures Algorithm 2.1 (envelope construction).
func BenchmarkFromVBR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := atmcac.FromVBR(0.5, 0.05, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayed measures Algorithm 3.1 (worst-case CDV clumping).
func BenchmarkDelayed(b *testing.B) {
	s, err := atmcac.FromVBR(0.5, 0.05, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Delayed(96); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAggregate builds a realistic ring-port aggregate: n delayed VBR
// envelopes multiplexed.
func benchAggregate(b *testing.B, n int) atmcac.Stream {
	b.Helper()
	env, err := atmcac.FromVBR(0.5, 0.4/float64(n), 8)
	if err != nil {
		b.Fatal(err)
	}
	streams := make([]atmcac.Stream, n)
	for i := range streams {
		d, err := env.Delayed(float64(32 * (i % 15)))
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = d
	}
	return atmcac.SumStreams(streams...)
}

// BenchmarkSum240 measures Algorithm 3.2 over a full RTnet port aggregate
// (240 connections, the N=16 configuration).
func BenchmarkSum240(b *testing.B) {
	env, err := atmcac.FromVBR(0.5, 0.002, 8)
	if err != nil {
		b.Fatal(err)
	}
	streams := make([]atmcac.Stream, 240)
	for i := range streams {
		d, err := env.Delayed(float64(32 * (i % 15)))
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := atmcac.SumStreams(streams...)
		if agg.IsZero() {
			b.Fatal("empty aggregate")
		}
	}
}

// BenchmarkFiltered measures Algorithm 3.4 on a 64-connection aggregate.
func BenchmarkFiltered(b *testing.B) {
	agg := benchAggregate(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = agg.Filtered()
	}
}

// BenchmarkDelayBound measures Algorithm 4.1 with a higher-priority stream.
func BenchmarkDelayBound(b *testing.B) {
	agg := benchAggregate(b, 64)
	higher := benchAggregate(b, 16).Filtered()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atmcac.DelayBound(agg, higher); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwitchAdmit measures one admission check (admit + release) on a
// switch already carrying 63 connections.
func BenchmarkSwitchAdmit(b *testing.B) {
	sw, err := atmcac.NewSwitch(atmcac.SwitchConfig{
		Name: "sw", QueueCells: map[atmcac.Priority]float64{1: 1e6},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 63; i++ {
		if _, err := sw.Admit(atmcac.HopRequest{
			Conn: atmcac.ConnID(fmt.Sprintf("bg%d", i)),
			Spec: atmcac.VBR(0.5, 0.002, 8),
			In:   atmcac.PortID(i % 16), Out: 0, Priority: 1,
			CDV: float64(32 * (i % 15)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Admit(atmcac.HopRequest{
			Conn: "probe", Spec: atmcac.VBR(0.5, 0.002, 8),
			In: 3, Out: 0, Priority: 1, CDV: 64,
		}); err != nil {
			b.Fatal(err)
		}
		if err := sw.Release("probe"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdmitResident measures one admit + one release against a switch
// already carrying N connections, at a fixed port fan-in. The switch is
// shaped like a cacbench ring node: one loaded output port fed by 16
// incoming links at both priorities, every resident cacbench's
// VBR(0.0004, 0.00001, 4), arriving within each cell with the CDV of 0 to 4
// upstream hops in turn. Even at 1k every cell already holds all five
// envelopes, so N changes how many members a cell has and nothing else, and
// a flat ns/op across the sub-benchmarks is the claim that admission does
// not scan residents.
func BenchmarkAdmitResident(b *testing.B) {
	spec := atmcac.VBR(0.0004, 0.00001, 4)
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			sw, err := atmcac.NewSwitch(atmcac.SwitchConfig{
				Name: "sw", QueueCells: map[atmcac.Priority]float64{1: 1e6, 2: 2e6},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := sw.Install(atmcac.HopRequest{
					Conn: atmcac.ConnID(fmt.Sprintf("r%06d", i)), Spec: spec,
					In: atmcac.PortID(i % 16), Out: 0,
					Priority: atmcac.Priority(1 + i/16%2), CDV: float64(4096 * (i / 32 % 5)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Admit(atmcac.HopRequest{
					Conn: "probe", Spec: spec, In: 5, Out: 0, Priority: 1, CDV: 8192,
				}); err != nil {
					b.Fatal(err)
				}
				if err := sw.Release("probe"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelAdmit measures concurrent end-to-end admissions on a
// 16-node RTnet: each worker repeatedly sets up and tears down a 3-hop
// segment connection starting at its own ring node, so workers touch
// mostly disjoint switches and admission (check + commit under each
// switch's own writer lock) can scale with -cpu. Queues are
// sized so every admission must succeed — any rejection would be a
// divergence from the serial decision and fails the benchmark.
func BenchmarkParallelAdmit(b *testing.B) {
	rt, err := atmcac.NewRTnet(atmcac.RTnetConfig{
		RingNodes:        16,
		TerminalsPerNode: 16,
		QueueCells:       map[atmcac.Priority]float64{1: 1e6},
		Policy:           atmcac.HardCDV{},
	})
	if err != nil {
		b.Fatal(err)
	}
	network := rt.Core()
	spec := atmcac.VBR(0.004, 0.0005, 4)
	var workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(workers.Add(1) - 1)
		route, err := rt.SegmentRoute(w%16, w%16, 3)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; pb.Next(); i++ {
			id := atmcac.ConnID(fmt.Sprintf("w%d-c%d", w, i))
			if _, err := network.Setup(context.Background(), atmcac.ConnRequest{
				ID: id, Spec: spec, Priority: 1, Route: route,
			}); err != nil {
				b.Errorf("worker %d: setup %s: %v", w, id, err)
				return
			}
			if err := network.Teardown(id); err != nil {
				b.Errorf("worker %d: teardown %s: %v", w, id, err)
				return
			}
		}
	})
}

// BenchmarkGeneratedFleetAdmit measures end-to-end admission on a generated
// campus-hierarchy topology carrying a seeded mixed CBR/VBR fleet: each
// iteration sets up and tears down one fleet connection between seeded host
// pairs over BFS shortest-path routes. Queues are sized so every admission
// succeeds; the cost measured is the multi-hop CAC evaluation itself.
func BenchmarkGeneratedFleetAdmit(b *testing.B) {
	g, err := topology.Campus(topology.CampusConfig{
		Buildings: 2, FloorsPerBuilding: 3, HostsPerFloor: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	network, err := routing.BuildNetwork(g,
		map[atmcac.Priority]float64{1: 1e6, 2: 1e6}, atmcac.HardCDV{})
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := workload.SampleFleet(42, workload.FleetConfig{}, 64)
	if err != nil {
		b.Fatal(err)
	}
	var hosts []topology.NodeID
	for bi := 0; bi < 2; bi++ {
		for fi := 0; fi < 3; fi++ {
			for h := 0; h < 2; h++ {
				hosts = append(hosts, topology.CampusHost(bi, fi, h))
			}
		}
	}
	rng := workload.NewRNG(42).Split("bench-pairs")
	var routes []atmcac.Route
	for len(routes) < len(fleet) {
		from := hosts[rng.Intn(len(hosts))]
		to := hosts[rng.Intn(len(hosts))]
		if from == to {
			continue
		}
		route, err := routing.Route(g, from, to)
		if err != nil {
			b.Fatal(err)
		}
		routes = append(routes, route)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl := fleet[i%len(fleet)]
		id := atmcac.ConnID(fmt.Sprintf("bench-%d", i))
		if _, err := network.Setup(context.Background(), atmcac.ConnRequest{
			ID: id, Spec: tmpl.Spec, Priority: tmpl.Priority, Route: routes[i%len(routes)],
		}); err != nil {
			b.Fatal(err)
		}
		if err := network.Teardown(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTnetAudit measures a full offline plan audit of the paper's
// largest configuration: 16 ring nodes with 16 terminals each (256
// broadcast connections over 3840 hop reservations).
func BenchmarkRTnetAudit(b *testing.B) {
	rt, err := atmcac.NewRTnet(atmcac.RTnetConfig{TerminalsPerNode: 16})
	if err != nil {
		b.Fatal(err)
	}
	w, err := rt.SymmetricWorkload(0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.InstallAll(w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		violations, err := rt.Audit()
		if err != nil {
			b.Fatal(err)
		}
		if len(violations) != 0 {
			b.Fatalf("audit violations: %v", violations)
		}
	}
}

// BenchmarkSignalingConnect measures one distributed SETUP/CONNECTED round
// (plus teardown) across a 4-node fabric.
func BenchmarkSignalingConnect(b *testing.B) {
	fabric := atmcac.NewSignalingFabric(atmcac.HardCDV{})
	defer fabric.Close()
	route := make(atmcac.Route, 4)
	for i := range route {
		name := fmt.Sprintf("sw%d", i)
		if _, err := fabric.AddNode(atmcac.SwitchConfig{
			Name: name, QueueCells: map[atmcac.Priority]float64{1: 1e6},
		}); err != nil {
			b.Fatal(err)
		}
		route[i] = atmcac.Hop{Switch: name, In: 1, Out: 0}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := atmcac.ConnID(fmt.Sprintf("c%d", i))
		if _, err := fabric.Connect(ctx, atmcac.ConnRequest{
			ID: id, Spec: atmcac.CBR(0.001), Priority: 1, Route: route,
		}); err != nil {
			b.Fatal(err)
		}
		if err := fabric.Disconnect(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireSetupTeardown measures one setup+teardown round trip over
// the TCP protocol against a loopback central CAC server.
func BenchmarkWireSetupTeardown(b *testing.B) {
	network := atmcac.NewNetwork(atmcac.HardCDV{})
	route := make(atmcac.Route, 2)
	for i := range route {
		name := fmt.Sprintf("sw%d", i)
		if _, err := network.AddSwitch(atmcac.SwitchConfig{
			Name: name, QueueCells: map[atmcac.Priority]float64{1: 1e6},
		}); err != nil {
			b.Fatal(err)
		}
		route[i] = atmcac.Hop{Switch: name, In: 1, Out: 0}
	}
	srv := atmcac.NewCACServer(network)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	client, err := atmcac.DialCAC(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := atmcac.ConnID(fmt.Sprintf("c%d", i))
		if _, err := client.Setup(context.Background(), atmcac.ConnRequest{
			ID: id, Spec: atmcac.CBR(0.001), Priority: 1, Route: route,
		}); err != nil {
			b.Fatal(err)
		}
		if err := client.Teardown(context.Background(), id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSlots measures the cell-level simulator's throughput (slots
// per op on an 8-node ring with 16 greedy sources).
func BenchmarkSimSlots(b *testing.B) {
	const slots = 10000
	b.ReportMetric(slots, "slots/op")
	for i := 0; i < b.N; i++ {
		n := sim.New()
		switches := make([]*sim.Switch, 8)
		for k := range switches {
			sw, err := n.AddSwitch(fmt.Sprintf("sw%d", k), map[sim.Priority]int{1: 64})
			if err != nil {
				b.Fatal(err)
			}
			switches[k] = sw
		}
		for k := range switches {
			if err := n.Link(switches[k], 0, switches[(k+1)%8], 0); err != nil {
				b.Fatal(err)
			}
		}
		for vc := 0; vc < 16; vc++ {
			origin := vc % 8
			for h := 0; h < 7; h++ {
				if err := switches[(origin+h)%8].SetRoute(vc, 0, 1); err != nil {
					b.Fatal(err)
				}
			}
			if err := switches[(origin+7)%8].SetRoute(vc, 100+vc, 1); err != nil {
				b.Fatal(err)
			}
			if err := n.AddSource(sim.SourceConfig{
				VC: vc, Spec: atmcac.CBR(0.02), Dest: switches[origin], InPort: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := n.Run(slots); err != nil {
			b.Fatal(err)
		}
	}
}
