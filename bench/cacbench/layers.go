package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"atmcac/internal/bitstream"
	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/shard"
	"atmcac/internal/wire"
)

// layerCalls is how many timed calls stand behind a per-layer median.
// layerCallsSlow is used where one call costs a millisecond or an
// fsync-bound batch, so the traced run still fits its time budget.
const (
	layerCalls     = 1000
	layerCallsSlow = 200
)

// layerBench composes each module in-process from its public
// constructors, at the workload's occupancy, and times every call into
// it under a span. It is single-goroutine except for the server sides it
// starts, which touch the span log only under mu.
type layerBench struct {
	w    *workloadDef
	seed uint64
	dir  string // scratch directory for journals and state files

	mu   sync.Mutex // guards log: server-side shippers record spans too
	log  *spanLog
	op   int // op_id handed to the next timed call
	out  []metric
	errs []error
}

// timed runs fn inside a span and returns the span index.
func (b *layerBench) timed(layer, name string, fn func(parent int) error) {
	b.mu.Lock()
	b.op++
	i := b.log.begin(b.op, layer, name, -1)
	b.mu.Unlock()
	err := fn(i)
	b.mu.Lock()
	b.log.end(i)
	b.mu.Unlock()
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("%s.%s: %w", layer, name, err))
	}
}

// p50 reports the median self time of the spans of one kind.
func (b *layerBench) p50(metricName, layer, name, unit string, scale float64) {
	b.mu.Lock()
	us := b.log.selfMicros(layer, name)
	b.mu.Unlock()
	sort.Float64s(us)
	b.out = append(b.out, metric{name: metricName, value: percentile(us, 0.5) * scale, unit: unit, n: len(us)})
}

func (b *layerBench) value(name string, v float64, unit string) {
	b.out = append(b.out, metric{name: name, value: v, unit: unit})
}

// mallocs runs fn and returns the heap objects and bytes it allocated.
// Nothing else may allocate meanwhile.
func mallocs(fn func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// extraRequest is a feasible 3-hop setup outside the generated ID space.
func extraRequest(topo *rtnet.Network, i int) core.ConnRequest {
	cfg := topo.Config()
	route, err := topo.SegmentRoute(i%cfg.RingNodes, i%cfg.TerminalsPerNode, 3)
	if err != nil {
		panic(err) // arguments are in range by construction
	}
	return core.ConnRequest{ID: core.ConnID(fmt.Sprintf("x-%06d", i)), Spec: connSpec, Priority: 1, Route: route}
}

// core replays the workload's seeded op stream through core.Network at
// the workload's occupancy and returns the populated network for the
// layers stacked on it.
func (b *layerBench) core(ctx context.Context) (*rtnet.Network, error) {
	gen, err := newGenerator(b.w, b.seed)
	if err != nil {
		return nil, err
	}
	topo, err := b.w.topology()
	if err != nil {
		return nil, err
	}
	network := topo.Core()
	start := time.Now()
	b.timed("core", "populate", func(int) error {
		for _, req := range gen.residents {
			if _, err := network.Setup(ctx, req); err != nil {
				return err
			}
		}
		return nil
	})
	b.value("core.populate_s", time.Since(start).Seconds(), "s")

	for setups := 0; setups < layerCalls; {
		o := gen.next()
		switch o.kind {
		case opSetup:
			setups++
			b.timed("core", "setup", func(int) error { _, err := network.Setup(ctx, o.req); return err })
			// Every commit discards the switch's cached envelopes, so
			// this is what a read pays right after a write.
			b.timed("core", "bound_cold", func(int) error {
				_, err := network.RouteBound(o.req.Route, o.req.Priority)
				return err
			})
		case opTeardown:
			b.timed("core", "teardown", func(int) error { return network.Teardown(o.id) })
		case opRefused:
			b.timed("core", "reject", func(int) error {
				if _, err := network.Setup(ctx, o.req); core.ErrorCode(err) != core.CodeDelayBound {
					return fmt.Errorf("infeasible setup answered %v", err)
				}
				return nil
			})
		}
	}
	b.p50("core.setup_us", "core", "setup", "us", 1)
	b.p50("core.teardown_us", "core", "teardown", "us", 1)
	b.p50("core.reject_us", "core", "reject", "us", 1)
	b.p50("core.bound_cold_us", "core", "bound_cold", "us", 1)

	var objects, bytes float64
	for i := 0; i < layerCallsSlow; i++ {
		req := extraRequest(topo, i)
		o, by := mallocs(func() { _, err = network.Setup(ctx, req) })
		if err != nil {
			return nil, err
		}
		objects, bytes = objects+o, bytes+by
		if err := network.Teardown(req.ID); err != nil {
			return nil, err
		}
	}
	b.value("core.allocs_per_setup", objects/layerCallsSlow, "count")
	b.value("core.bytes_per_setup", bytes/layerCallsSlow, "B")
	return topo, nil
}

// bitstream times the stream algebra on the envelope of the busiest
// low-priority queue, where both the aggregate and the filtered
// higher-priority stream are non-trivial.
func (b *layerBench) bitstream(topo *rtnet.Network) error {
	var busiest *core.Switch
	for _, name := range topo.Core().SwitchNames() {
		if sw, ok := topo.Core().Switch(name); ok && (busiest == nil || sw.ConnectionCount() > busiest.ConnectionCount()) {
			busiest = sw
		}
	}
	soa, sof, err := busiest.PortEnvelope(rtnet.RingOutPort, 2)
	if err != nil {
		return err
	}
	for i := 0; i < layerCalls; i++ {
		b.timed("bitstream", "delay_bound", func(int) error { _, err := bitstream.DelayBound(soa, sof); return err })
		b.timed("bitstream", "sum_filtered", func(int) error { _ = bitstream.Sum(soa, sof).Filtered(); return nil })
	}
	b.p50("bitstream.delay_bound_us", "bitstream", "delay_bound", "us", 1)
	b.p50("bitstream.sum_filtered_us", "bitstream", "sum_filtered", "us", 1)
	return nil
}

// journal times the write-ahead log alone: append without sync, one
// record per fsync, and the group-commit shape of 16 records per fsync.
func (b *layerBench) journal(topo *rtnet.Network) error {
	lg, _, _, err := journal.Open(journal.OSFS{}, filepath.Join(b.dir, "layer.journal"))
	if err != nil {
		return err
	}
	defer lg.Close()
	req := extraRequest(topo, 0)
	setup := func() *journal.Record { return &journal.Record{Op: journal.OpSetup, Request: &req} }
	for i := 0; i < layerCalls; i++ {
		b.timed("journal", "append", func(int) error { return lg.Append(setup(), false) })
	}
	if err := lg.Sync(); err != nil {
		return err
	}
	for i := 0; i < layerCalls; i++ {
		b.timed("journal", "fsync", func(int) error { return lg.Append(setup(), true) })
	}
	for i := 0; i < layerCallsSlow; i++ {
		recs := make([]*journal.Record, 16)
		for j := range recs {
			recs[j] = setup()
		}
		b.timed("journal", "fsync16", func(int) error {
			if _, err := lg.AppendAll(recs); err != nil {
				return err
			}
			return lg.Sync()
		})
	}
	b.p50("journal.append_us", "journal", "append", "us", 1)
	b.p50("journal.fsync_us", "journal", "fsync", "us", 1)
	b.p50("journal.fsync16_us", "journal", "fsync16", "us", 1)
	size := lg.Size()
	if err := lg.Append(setup(), false); err != nil {
		return err
	}
	b.value("journal.bytes_per_setup", float64(lg.Size()-size), "B")
	size = lg.Size()
	if err := lg.Append(&journal.Record{Op: journal.OpTeardown, ID: req.ID}, false); err != nil {
		return err
	}
	b.value("journal.bytes_per_teardown", float64(lg.Size()-size), "B")
	return nil
}

// serve starts accept-and-serve on a loopback listener and returns the
// address plus a stop function that waits for the goroutine.
func serve(run func(net.Listener)) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(ln)
	}()
	return ln.Addr().String(), func() { _ = ln.Close(); <-done }, nil
}

// wireStub times the transport alone: wire.Dial against wire.ServeSession
// with a canned handler, so a round trip is framing, JSON inside binary
// frames and the loopback, and no admission work.
func (b *layerBench) wireStub(ctx context.Context, topo *rtnet.Network) error {
	req := extraRequest(topo, 0)
	adm := &wire.Admission{ID: req.ID, PerHopGuaranteed: []float64{4096, 4096, 4096}, PerHopComputed: []float64{1, 2, 3}, EndToEndGuaranteed: 12288, EndToEndComputed: 6}
	ids := make([]core.ConnID, 4096)
	for i := range ids {
		ids[i] = core.ConnID(fmt.Sprintf("r-%05d", i))
	}
	handler := func(r wire.Request) wire.Response {
		if r.Op == wire.OpList {
			return wire.Response{OK: true, Connections: ids}
		}
		return wire.Response{OK: true, Admission: adm}
	}
	var conns []net.Conn
	addr, stop, err := serve(func(ln net.Listener) {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
			wire.ServeSession(conn, handler, wire.SessionOptions{})
		}
	})
	if err != nil {
		return err
	}
	cl, err := dialBinary(addr)
	if err != nil {
		stop()
		return err
	}
	for i := 0; i < layerCalls; i++ {
		b.timed("wire", "stub_rtt", func(int) error { _, err := cl.Setup(ctx, req); return err })
	}
	for i := 0; i < layerCallsSlow; i++ {
		b.timed("wire", "stub_rtt_list4k", func(int) error { _, err := cl.List(ctx); return err })
	}
	_ = cl.Close()
	stop()
	for _, c := range conns {
		_ = c.Close()
	}
	b.p50("wire.stub_rtt_us", "wire", "stub_rtt", "us", 1)
	b.p50("wire.stub_rtt_list4k_us", "wire", "stub_rtt_list4k", "us", 1)
	return nil
}

// wireServer times a setup through wire.NewServer over the populated
// network: without persistence, then with an OpenDurable journal-sync
// journal, then batched 32 to a request.
func (b *layerBench) wireServer(ctx context.Context, topo *rtnet.Network) error {
	run := func(name string, durable bool, body func(cl *wire.Client) error) error {
		srv := wire.NewServer(topo.Core())
		if durable {
			dur, err := b.journalSync(name, srv, topo.Core())
			if err != nil {
				return err
			}
			defer dur.Close()
		}
		addr, stop, err := serve(func(ln net.Listener) { _ = srv.Serve(ln) })
		if err != nil {
			return err
		}
		defer stop()
		defer srv.Close()
		cl, err := dialBinary(addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		return body(cl)
	}
	pairs := func(span string) func(cl *wire.Client) error {
		return func(cl *wire.Client) error {
			for i := 0; i < layerCalls; i++ {
				req := extraRequest(topo, i)
				b.timed("wire", span, func(int) error { _, err := cl.Setup(ctx, req); return err })
				if err := cl.Teardown(ctx, req.ID); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := run("nodur", false, func(cl *wire.Client) error {
		if err := pairs("setup_nodur")(cl); err != nil {
			return err
		}
		// Client and server share this process, so the count covers
		// both ends of the connection.
		var objects float64
		for i := 0; i < layerCallsSlow; i++ {
			req := extraRequest(topo, i)
			var err error
			o, _ := mallocs(func() { _, err = cl.Setup(ctx, req) })
			if err != nil {
				return err
			}
			objects += o
			if err := cl.Teardown(ctx, req.ID); err != nil {
				return err
			}
		}
		b.value("wire.allocs_per_setup", objects/layerCallsSlow, "count")
		return nil
	}); err != nil {
		return err
	}
	if err := run("sync", true, pairs("setup_sync")); err != nil {
		return err
	}
	err := run("batch", true, func(cl *wire.Client) error {
		for i := 0; i < layerCallsSlow/4; i++ {
			reqs := make([]core.ConnRequest, 32)
			ids := make([]core.ConnID, 32)
			for j := range reqs {
				reqs[j] = extraRequest(topo, i*32+j)
				ids[j] = reqs[j].ID
			}
			b.timed("wire", "batch32", func(int) error {
				results, err := cl.BatchSetup(ctx, reqs)
				for _, res := range results {
					if !res.OK {
						return errors.New(res.Error)
					}
				}
				return err
			})
			if _, err := cl.BatchTeardown(ctx, ids); err != nil {
				return err
			}
		}
		return nil
	})
	b.p50("wire.setup_nodur_us", "wire", "setup_nodur", "us", 1)
	b.p50("wire.setup_sync_us", "wire", "setup_sync", "us", 1)
	b.p50("wire.batch32_item_us", "wire", "batch32", "us", 1.0/32)
	return err
}

// small times the two per-request hooks that are too cheap for one span
// each: a span covers a thousand calls and the metric divides.
func (b *layerBench) small() {
	lim := overload.NewLimiter(overload.LimiterConfig{Rate: 1e9, Burst: 1e9, MaxInFlight: 1 << 20})
	tr := obs.NewMetricsTracer(obs.NewRegistry())
	ev := obs.Event{Kind: obs.KindSetup, Conn: "c-0000001", Hops: 3, Outcome: obs.OutcomeAccepted, Duration: 500 * time.Microsecond}
	for i := 0; i < layerCallsSlow; i++ {
		b.timed("overload", "acquire_x1000", func(int) error {
			for j := 0; j < 1000; j++ {
				if d, release := lim.Acquire(overload.ClassSetupHigh); d.Admitted {
					release()
				}
			}
			return nil
		})
		b.timed("obs", "trace_x1000", func(int) error {
			for j := 0; j < 1000; j++ {
				tr.Trace(ev)
			}
			return nil
		})
	}
	b.p50("overload.acquire_ns", "overload", "acquire_x1000", "ns", 1)
	b.p50("obs.trace_ns", "obs", "trace_x1000", "ns", 1)
}

// spanShipper wraps a wire.Shipper so every Ship is a child span of the
// setup that caused it.
type spanShipper struct {
	wire.Shipper
	b      *layerBench
	parent int // span of the client call in flight; guarded by b.mu
}

func (s *spanShipper) under(parent int) {
	s.b.mu.Lock()
	s.parent = parent
	s.b.mu.Unlock()
}

func (s *spanShipper) Ship(seq, epoch uint64, payload []byte) error {
	s.b.mu.Lock()
	i := s.b.log.begin(s.b.log.spans[s.parent].OpID, "replica", "ship_ack", s.parent)
	s.b.mu.Unlock()
	err := s.Shipper.Ship(seq, epoch, payload)
	s.b.mu.Lock()
	s.b.log.end(i)
	s.b.mu.Unlock()
	return err
}

// journalSync gives srv a journal-sync Durable on fresh files, the way
// cacd wires one: open, recover the network through it, attach.
func (b *layerBench) journalSync(name string, srv *wire.Server, network *core.Network) (*wire.Durable, error) {
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath:      filepath.Join(b.dir, name+".json"),
		Mode:           wire.DurabilityJournalSync,
		CompactRecords: 1 << 30,
		CompactBytes:   1 << 40,
	})
	if err != nil {
		return nil, err
	}
	if _, err := dur.Recover(network); err != nil {
		_ = dur.Close()
		return nil, err
	}
	srv.SetDurable(dur)
	return dur, nil
}

// node is one in-process journal-sync wire server on a fresh network.
type node struct {
	topo *rtnet.Network
	srv  *wire.Server
	dur  *wire.Durable
	addr string
	stop func()
}

func (b *layerBench) bootNode(name string, ringNodes int, configure func(*wire.Server)) (*node, error) {
	w := *b.w
	w.ringNodes = ringNodes
	topo, err := w.topology()
	if err != nil {
		return nil, err
	}
	n := &node{topo: topo, srv: wire.NewServer(topo.Core())}
	if n.dur, err = b.journalSync(name, n.srv, topo.Core()); err != nil {
		return nil, err
	}
	if configure != nil {
		configure(n.srv)
	}
	var serveStop func()
	n.addr, serveStop, err = serve(func(ln net.Listener) { _ = n.srv.Serve(ln) })
	if err != nil {
		return nil, err
	}
	n.stop = func() {
		_ = n.srv.Close()
		serveStop()
		_ = n.dur.Close()
	}
	return n, nil
}

// replica times Primary.Ship in sync mode against an in-process
// journal-sync standby. The primary gets a nil tracer, as the in-process
// benchmarks do: with a tracer set, sync replication deadlocks (see
// bench/README.md, "defects found while sizing").
func (b *layerBench) replica(ctx context.Context) error {
	var prim *replica.Primary
	ship := &spanShipper{b: b}
	pn, err := b.bootNode("primary", b.w.ringNodes, func(srv *wire.Server) {
		prim = replica.NewPrimary(srv, replica.PrimaryConfig{Mode: replica.ModeSync})
		ship.Shipper = prim
		srv.SetShipper(ship)
	})
	if err != nil {
		return err
	}
	defer pn.stop()
	replAddr, stopRepl, err := serve(func(ln net.Listener) { _ = prim.Serve(ln) })
	if err != nil {
		return err
	}
	defer stopRepl()
	defer prim.Close()
	var sb *replica.Standby
	sn, err := b.bootNode("standby", b.w.ringNodes, func(srv *wire.Server) {
		srv.SetStandby(true)
		sb = replica.NewStandby(srv, replica.StandbyConfig{PrimaryAddr: replAddr})
	})
	if err != nil {
		return err
	}
	defer sn.stop()
	sbDone := make(chan struct{})
	go func() {
		defer close(sbDone)
		_ = sb.Run()
	}()
	defer func() { _ = sb.Close(); <-sbDone }()

	connected := func() bool {
		rep := wire.ReplicationReport{Role: "primary"}
		replica.Status(prim, nil)(&rep)
		return rep.Connected
	}
	for deadline := time.Now().Add(5 * time.Second); !connected(); {
		if time.Now().After(deadline) {
			return errors.New("standby never connected")
		}
		time.Sleep(time.Millisecond)
	}
	cl, err := dialBinary(pn.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < layerCallsSlow; i++ {
		req := extraRequest(pn.topo, i)
		b.timed("replica", "setup_sync", func(parent int) error {
			ship.under(parent)
			_, err := cl.Setup(ctx, req)
			return err
		})
		b.timed("replica", "teardown_sync", func(parent int) error {
			ship.under(parent)
			return cl.Teardown(ctx, req.ID)
		})
	}
	b.mu.Lock()
	var us []float64
	for _, s := range b.log.spans {
		if s.Layer == "replica" && s.Name == "ship_ack" {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	b.mu.Unlock()
	sort.Float64s(us)
	b.out = append(b.out, metric{name: "replica.ship_ack_us", value: percentile(us, 0.5), unit: "us", n: len(us)})
	return nil
}

// shard times Coordinator.Setup and Teardown over two in-process
// journal-sync shard servers, and the intent log's fsynced append.
func (b *layerBench) shard(ctx context.Context) error {
	const ring = 8
	var spec []string
	var nodes []*node
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	for s := 0; s < 2; s++ {
		n, err := b.bootNode("shard-"+shardID(s), ring, func(srv *wire.Server) { srv.SetShardID(shardID(s)) })
		if err != nil {
			return err
		}
		nodes = append(nodes, n)
		spec = append(spec, shardMapEntry(s, ring, n.addr))
	}
	m, err := shard.ParseMap(strings.Join(spec, ";"))
	if err != nil {
		return err
	}
	coord, err := shard.NewCoordinator(m, journal.OSFS{}, filepath.Join(b.dir, "layer-intent.log"))
	if err != nil {
		return err
	}
	defer coord.Close()
	topo := nodes[0].topo
	for i := 0; i < layerCallsSlow; i++ {
		for _, c := range []struct {
			span   string
			origin int // 0 stays on s0; 2 crosses into s1 on its third hop
		}{{"local_setup", 0}, {"cross2_setup", 2}} {
			route, err := topo.SegmentRoute(c.origin, i%terminalsPerNode, 3)
			if err != nil {
				return err
			}
			req := core.ConnRequest{ID: core.ConnID(fmt.Sprintf("x-%s-%d", c.span, i)), Spec: connSpec, Priority: 1, Route: route}
			b.timed("shard", c.span, func(int) error { _, err := coord.Setup(ctx, req); return err })
			b.timed("shard", "teardown", func(int) error { return coord.Teardown(ctx, req.ID) })
		}
	}
	b.p50("shard.local_setup_us", "shard", "local_setup", "us", 1)
	b.p50("shard.cross2_setup_us", "shard", "cross2_setup", "us", 1)
	b.p50("shard.teardown_us", "shard", "teardown", "us", 1)

	ilog, _, _, err := shard.OpenIntentLog(journal.OSFS{}, filepath.Join(b.dir, "layer-intent-append.log"))
	if err != nil {
		return err
	}
	defer ilog.Close()
	req := extraRequest(topo, 0)
	for i := 0; i < layerCallsSlow; i++ {
		rec := &shard.IntentRecord{State: shard.IntentBegin, Txn: fmt.Sprintf("x%d-%s", i, req.ID), Request: &req,
			Shards: []shard.ShardMark{{Shard: "s0"}, {Shard: "s1"}}}
		b.timed("shard", "intent_append", func(int) error { return ilog.Append(rec) })
	}
	b.p50("shard.intent_append_us", "shard", "intent_append", "us", 1)
	return nil
}

// layers runs every in-process layer measurement and returns the
// metrics; the spans stay in b.log for the caller to write out.
func (b *layerBench) layers(ctx context.Context) error {
	topo, err := b.core(ctx)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"bitstream", func() error { return b.bitstream(topo) }},
		{"journal", func() error { return b.journal(topo) }},
		{"wire stub", func() error { return b.wireStub(ctx, topo) }},
		{"wire server", func() error { return b.wireServer(ctx, topo) }},
		{"small", func() error { b.small(); return nil }},
		{"replica", func() error { return b.replica(ctx) }},
		{"shard", func() error { return b.shard(ctx) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return errors.Join(b.errs...)
}
