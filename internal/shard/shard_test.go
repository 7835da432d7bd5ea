package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

func TestParseMap(t *testing.T) {
	m, err := ParseMap("s0@h0:1=sw0, sw1; s1@h1:2=sw2")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Shards(); len(got) != 2 || got[0].ID != "s0" || got[1].Addr != "h1:2" {
		t.Fatalf("shards = %v", got)
	}
	if info, ok := m.Owner("sw1"); !ok || info.ID != "s0" {
		t.Fatalf("owner(sw1) = %v, %v", info, ok)
	}
	if sws := m.Switches("s0"); len(sws) != 2 || sws[0] != "sw0" {
		t.Fatalf("switches(s0) = %v", sws)
	}
	for _, bad := range []string{
		"",
		"s0=sw0",                // no addr
		"s0@h:1=",               // no switches
		"s0@h:1=sw0;s0@h:2=sw1", // duplicate shard
		"s0@h:1=sw0;s1@h:2=sw0", // duplicate switch
		"s0@h:1 sw0",            // no =
	} {
		if _, err := ParseMap(bad); err == nil {
			t.Errorf("ParseMap(%q) accepted", bad)
		}
	}
}

func hops(switches ...string) core.Route {
	r := make(core.Route, len(switches))
	for i, sw := range switches {
		r[i] = core.Hop{Switch: sw, In: 1, Out: 0}
	}
	return r
}

func TestSegments(t *testing.T) {
	m, err := ParseMap("s0@h0:1=sw0,sw1;s1@h1:2=sw2,sw3")
	if err != nil {
		t.Fatal(err)
	}
	segs, err := m.Segments(hops("sw0", "sw1", "sw2", "sw3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Shard.ID != "s0" || len(segs[0].Route) != 2 ||
		segs[1].Shard.ID != "s1" || len(segs[1].Route) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	// A route that leaves a shard and comes back gets two segments for it,
	// in path order.
	segs, err = m.Segments(hops("sw0", "sw2", "sw1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0].Shard.ID != "s0" || segs[1].Shard.ID != "s1" || segs[2].Shard.ID != "s0" {
		t.Fatalf("revisit segments = %+v", segs)
	}
	if _, err := m.Segments(hops("sw0", "sw9")); err == nil {
		t.Fatal("unowned switch accepted")
	}
}

func TestLegsMergeRevisitedShard(t *testing.T) {
	m, err := ParseMap("s0@h0:1=sw0,sw1;s1@h1:2=sw2,sw3")
	if err != nil {
		t.Fatal(err)
	}
	// A chain route: one leg per shard, not interleaved.
	legs, interleaved, err := m.Legs(hops("sw0", "sw1", "sw2", "sw3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 2 || interleaved || legs[0].Shard.ID != "s0" || len(legs[0].Route) != 2 {
		t.Fatalf("chain legs = %+v interleaved=%v", legs, interleaved)
	}
	// A wrap revisiting s0: its two runs merge into one leg, hops in
	// path order, and the route is flagged interleaved.
	legs, interleaved, err = m.Legs(hops("sw1", "sw2", "sw3", "sw0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(legs) != 2 || !interleaved {
		t.Fatalf("wrap legs = %+v interleaved=%v", legs, interleaved)
	}
	if legs[0].Shard.ID != "s0" || len(legs[0].Route) != 2 ||
		legs[0].Route[0].Switch != "sw1" || legs[0].Route[1].Switch != "sw0" {
		t.Fatalf("merged s0 leg = %+v", legs[0])
	}
	if legs[1].Shard.ID != "s1" || len(legs[1].Route) != 2 {
		t.Fatalf("s1 leg = %+v", legs[1])
	}
	if _, _, err := m.Legs(hops("sw0", "sw9")); err == nil {
		t.Fatal("unowned switch accepted")
	}
}

func TestIntentLogRoundTripAndTornTail(t *testing.T) {
	fsys := journal.OSFS{}
	path := filepath.Join(t.TempDir(), "intent")
	log, recs, torn, err := OpenIntentLog(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn {
		t.Fatalf("fresh log: recs=%v torn=%v", recs, torn)
	}
	req := &core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: hops("sw0")}
	for _, rec := range []IntentRecord{
		{State: IntentBegin, Txn: "t1", Request: req, Shards: []ShardMark{{Shard: "s0"}}},
		{State: IntentCommit, Txn: "t1", Shards: []ShardMark{{Shard: "s0", Epoch: 1}}},
		{State: IntentDone, Txn: "t1"},
		{State: IntentBegin, Txn: "t2", Request: req, Shards: []ShardMark{{Shard: "s0"}}},
	} {
		rec := rec
		if err := log.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage that is not a valid frame.
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(path, append(data, 0xde, 0xad, 0xbe), 0o600); err != nil {
		t.Fatal(err)
	}
	log2, recs, torn, err := OpenIntentLog(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("replayed %d records, last %+v", len(recs), recs[len(recs)-1])
	}
	open := foldIntents(recs)
	if len(open) != 1 || open[0].txn != "t2" || open[0].state != IntentBegin {
		t.Fatalf("open txns = %+v", open)
	}
	// The next append continues the sequence past the repaired tail.
	next := IntentRecord{State: IntentAbort, Txn: "t2"}
	if err := log2.Append(&next); err != nil {
		t.Fatal(err)
	}
	if next.Seq != 5 {
		t.Fatalf("next seq = %d, want 5", next.Seq)
	}
}

// serveShard serves one CAC instance owning the given switches, each
// with a priority-1 queue of the given size; configure, when non-nil,
// adjusts the server before it listens.
func serveShard(t *testing.T, id string, queue float64, configure func(*wire.Server), switches ...string) (addr string, srv *wire.Server) {
	t.Helper()
	n := core.NewNetwork(core.HardCDV{})
	for _, sw := range switches {
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: queue},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv = wire.NewServer(n)
	srv.SetShardID(id)
	if configure != nil {
		configure(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })
	return l.Addr().String(), srv
}

// startShard serves one CAC instance owning the given switches.
func startShard(t *testing.T, id string, switches ...string) (addr string, srv *wire.Server) {
	t.Helper()
	return serveShard(t, id, 32, nil, switches...)
}

// twoShardFixture builds two live shards, the map over them and a
// coordinator with its intent log in a temp dir.
func twoShardFixture(t *testing.T) (*Coordinator, *Map, string) {
	t.Helper()
	addr0, _ := startShard(t, "s0", "sw0", "sw1")
	addr1, _ := startShard(t, "s1", "sw2", "sw3")
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s=sw2,sw3", addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "intent")
	c, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, m, logPath
}

func crossReq(id string) core.ConnRequest {
	return core.ConnRequest{ID: core.ConnID(id), Spec: traffic.CBR(0.1), Priority: 1,
		Route: hops("sw0", "sw1", "sw2", "sw3")}
}

// shardList asks one shard directly for its admitted connections.
func shardList(t *testing.T, c *Coordinator, shardID string) []core.ConnID {
	t.Helper()
	info, ok := c.m.Lookup(shardID)
	if !ok {
		t.Fatalf("no shard %q", shardID)
	}
	cl, err := c.client(context.Background(), info)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cl.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestCoordinatorSingleShardFastPath(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	ctx := context.Background()
	req := core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: hops("sw0", "sw1")}
	adm, err := c.Setup(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c1" || len(adm.PerHopGuaranteed) != 2 {
		t.Fatalf("admission = %+v", adm)
	}
	if ids := shardList(t, c, "s0"); len(ids) != 1 {
		t.Fatalf("s0 list = %v", ids)
	}
	if ids := shardList(t, c, "s1"); len(ids) != 0 {
		t.Fatalf("s1 list = %v", ids)
	}
	if err := c.Teardown(ctx, "c1"); err != nil {
		t.Fatal(err)
	}
}

func TestCoordinatorCrossShardSetup(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	ctx := context.Background()
	adm, err := c.Setup(ctx, crossReq("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c1" || len(adm.PerHopGuaranteed) != 4 || adm.EndToEndGuaranteed <= 0 {
		t.Fatalf("admission = %+v", adm)
	}
	// The connection exists on both shards, with no lingering holds.
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 1 || ids[0] != "c1" {
			t.Fatalf("%s list = %v", id, ids)
		}
	}
	sts, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if len(st.Prepared) != 0 {
			t.Fatalf("shard %s still holds %v", st.ShardID, st.Prepared)
		}
	}
	// Union list reports it once; teardown removes it everywhere.
	if ids, err := c.List(ctx); err != nil || len(ids) != 1 {
		t.Fatalf("union list = %v, %v", ids, err)
	}
	if err := c.Teardown(ctx, "c1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 0 {
			t.Fatalf("%s list after teardown = %v", id, ids)
		}
	}
	if len(c.InDoubt()) != 0 {
		t.Fatalf("in doubt: %v", c.InDoubt())
	}
}

// TestCoordinatorRevisitingRouteSetup covers a ring-wrapping route that
// leaves s0 and comes back: the coordinator must reach s0 with a single
// merged prepare (two prepares under one txn would collide on the
// connection ID) and, because part of that leg sits downstream of s1,
// must insist on an end-to-end delay bound.
func TestCoordinatorRevisitingRouteSetup(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	ctx := context.Background()
	wrap := core.ConnRequest{ID: "c-wrap", Spec: traffic.CBR(0.05), Priority: 1,
		Route: hops("sw1", "sw2", "sw3", "sw0")}

	// Without a bound the jitter entering s0's downstream run cannot be
	// budgeted: a typed CAC rejection, before any shard holds anything.
	if _, err := c.Setup(ctx, wrap); !errors.Is(err, ErrRevisitBound) || !errors.Is(err, core.ErrRejected) {
		t.Fatalf("unbounded wrap: err = %v, want ErrRevisitBound", err)
	}
	sts, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if len(st.Prepared) != 0 {
			t.Fatalf("refused wrap left hold on %s: %v", st.ShardID, st.Prepared)
		}
	}

	// With a bound it admits: one connection on each shard, s0's covering
	// both of its runs, and the combined guarantee within the bound.
	wrap.DelayBound = 160
	adm, err := c.Setup(ctx, wrap)
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c-wrap" || len(adm.PerHopGuaranteed) != 4 {
		t.Fatalf("admission = %+v", adm)
	}
	if adm.EndToEndGuaranteed <= 0 || adm.EndToEndGuaranteed > wrap.DelayBound {
		t.Fatalf("guaranteed %v outside (0, %v]", adm.EndToEndGuaranteed, wrap.DelayBound)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 1 || ids[0] != "c-wrap" {
			t.Fatalf("%s list = %v", id, ids)
		}
	}
	sts, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if len(st.Prepared) != 0 {
			t.Fatalf("shard %s still holds %v", st.ShardID, st.Prepared)
		}
	}
	if err := c.Teardown(ctx, "c-wrap"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 0 {
			t.Fatalf("%s list after teardown = %v", id, ids)
		}
	}
	if len(c.InDoubt()) != 0 {
		t.Fatalf("in doubt: %v", c.InDoubt())
	}
}

func TestCoordinatorDelayBudgetAcrossShards(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	ctx := context.Background()

	// A bound with room for all four hops admits, and the combined
	// guarantee respects it.
	ok := crossReq("c-ok")
	ok.DelayBound = 300
	adm, err := c.Setup(ctx, ok)
	if err != nil {
		t.Fatal(err)
	}
	if adm.EndToEndGuaranteed > ok.DelayBound {
		t.Fatalf("guaranteed %v exceeds bound %v", adm.EndToEndGuaranteed, ok.DelayBound)
	}
	if err := c.Teardown(ctx, "c-ok"); err != nil {
		t.Fatal(err)
	}

	// A bound the first segment nearly exhausts makes the second shard
	// refuse its remaining budget; the coordinator must abort the first
	// shard's hold and report a CAC rejection, leaving no residue.
	tight := crossReq("c-tight")
	tight.DelayBound = adm.EndToEndGuaranteed/2 + 1
	_, err = c.Setup(ctx, tight)
	if err == nil {
		t.Fatal("over-budget cross-shard setup admitted")
	}
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("error %v is not a CAC rejection", err)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 0 {
			t.Fatalf("%s list after rejection = %v", id, ids)
		}
	}
	sts, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if len(st.Prepared) != 0 {
			t.Fatalf("refused setup left hold on %s: %v", st.ShardID, st.Prepared)
		}
	}
}

var errCrash = errors.New("injected coordinator crash")

// crashAt installs a hook that abandons the transaction at the named
// boundary, simulating a coordinator that died mid-protocol.
func crashAt(c *Coordinator, point string) {
	c.SetTestHook(func(p, txn string) error {
		if p == point {
			return errCrash
		}
		return nil
	})
}

func TestCoordinatorRecoverPresumedAbort(t *testing.T) {
	for _, point := range []string{"pre-prepare", "post-prepare", "pre-commit"} {
		t.Run(point, func(t *testing.T) {
			c, m, logPath := twoShardFixture(t)
			ctx := context.Background()
			crashAt(c, point)
			if _, err := c.Setup(ctx, crossReq("c1")); !errors.Is(err, errCrash) {
				t.Fatalf("setup error = %v", err)
			}
			_ = c.Close()

			// The restarted coordinator finds a begin with no decision and
			// presumes abort: every hold is released, nothing is admitted.
			c2, err := NewCoordinator(m, nil, logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			rep, err := c2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Aborted) != 1 || len(rep.Committed) != 0 || len(rep.InDoubt) != 0 {
				t.Fatalf("recover report = %+v", rep)
			}
			for _, id := range []string{"s0", "s1"} {
				if ids := shardList(t, c2, id); len(ids) != 0 {
					t.Fatalf("%s list after recovery = %v", id, ids)
				}
			}
			sts, err := c2.Status(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range sts {
				if len(st.Prepared) != 0 {
					t.Fatalf("recovery left hold on %s: %v", st.ShardID, st.Prepared)
				}
			}
			// The same connection admits fresh afterwards.
			if _, err := c2.Setup(ctx, crossReq("c1")); err != nil {
				t.Fatalf("setup after recovery: %v", err)
			}
		})
	}
}

func TestCoordinatorRecoverRedrivesCommit(t *testing.T) {
	for _, point := range []string{"mid-commit", "post-commit"} {
		t.Run(point, func(t *testing.T) {
			c, m, logPath := twoShardFixture(t)
			ctx := context.Background()
			crashAt(c, point)
			if _, err := c.Setup(ctx, crossReq("c1")); !errors.Is(err, errCrash) {
				t.Fatalf("setup error = %v", err)
			}
			_ = c.Close()

			// The commit intent is durable: recovery must finish the job —
			// idempotently on the shard that already committed.
			c2, err := NewCoordinator(m, nil, logPath)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			rep, err := c2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Committed) != 1 || len(rep.Aborted) != 0 || len(rep.InDoubt) != 0 {
				t.Fatalf("recover report = %+v", rep)
			}
			for _, id := range []string{"s0", "s1"} {
				if ids := shardList(t, c2, id); len(ids) != 1 || ids[0] != "c1" {
					t.Fatalf("%s list after recovery = %v", id, ids)
				}
			}
			// A second recovery is a no-op.
			rep2, err := c2.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.Committed)+len(rep2.Aborted)+len(rep2.InDoubt) != 0 {
				t.Fatalf("second recover not idempotent: %+v", rep2)
			}
		})
	}
}

func TestCoordinatorServerFrontEnd(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	_, addr, _ := serveFront(t, c)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The ordinary wire client admits a cross-shard route through the
	// coordinator without knowing the map.
	adm, err := cl.Setup(context.Background(), crossReq("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c1" || len(adm.PerHopGuaranteed) != 4 {
		t.Fatalf("admission = %+v", adm)
	}
	if ids, err := cl.List(context.Background()); err != nil || len(ids) != 1 {
		t.Fatalf("list = %v, %v", ids, err)
	}
	h, err := cl.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.Connections != 1 {
		t.Fatalf("health = %+v", h)
	}
	if err := cl.Teardown(context.Background(), "c1"); err != nil {
		t.Fatal(err)
	}
	// A rejection travels back typed.
	tight := crossReq("c2")
	tight.DelayBound = 1
	if _, err := cl.Setup(context.Background(), tight); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("tight-bound setup error = %v", err)
	}
	// Ops the coordinator does not aggregate are refused clearly.
	if _, err := cl.Inspect(context.Background(), ""); err == nil {
		t.Fatal("inspect through coordinator succeeded")
	}
}

// serveFront serves the coordinator's wire front end on a loopback
// listener; done closes when Serve returns, after checking it returned
// wire.ErrServerClosed.
func serveFront(t *testing.T, c *Coordinator) (front *Server, addr string, done <-chan struct{}) {
	t.Helper()
	front = NewServer(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := front.Serve(l); !errors.Is(err, wire.ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()
	t.Cleanup(func() { _ = front.Close(); <-served })
	return front, l.Addr().String(), served
}

// TestCoordinatorServerLineProtocol: a peer that never sends the hello is
// served newline-delimited JSON by the front end, as by a shard.
func TestCoordinatorServerLineProtocol(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	_, addr, _ := serveFront(t, c)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	call := func(req wire.Request) wire.Response {
		t.Helper()
		if err := json.NewEncoder(conn).Encode(req); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("response %q: %v", line, err)
		}
		return resp
	}
	req := crossReq("c1")
	if resp := call(wire.Request{Op: wire.OpSetup, Request: &req}); !resp.OK || resp.Admission == nil || resp.Admission.ID != "c1" {
		t.Fatalf("setup = %+v", resp)
	}
	if resp := call(wire.Request{Op: wire.OpList}); !resp.OK || len(resp.Connections) != 1 || resp.Connections[0] != "c1" {
		t.Fatalf("list = %+v", resp)
	}
	if resp := call(wire.Request{Op: wire.OpTeardown, ID: "c1"}); !resp.OK {
		t.Fatalf("teardown = %+v", resp)
	}
	if resp := call(wire.Request{Op: wire.OpList}); !resp.OK || len(resp.Connections) != 0 {
		t.Fatalf("list after teardown = %+v", resp)
	}
}

// TestCoordinatorServerLifecycle: Close ends the front end's live
// sessions and its Serve, a second Close is a no-op, and Serve after
// Close fails with wire.ErrServerClosed.
func TestCoordinatorServerLifecycle(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	front, addr, served := serveFront(t, c)
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.List(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := front.Close(); err != nil {
		t.Fatal(err)
	}
	<-served
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.List(ctx); err == nil || ctx.Err() != nil {
		t.Fatalf("list after Close = %v, want the session ended", err)
	}
	if err := front.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := front.Serve(l); !errors.Is(err, wire.ErrServerClosed) {
		t.Fatalf("Serve after Close = %v, want wire.ErrServerClosed", err)
	}
}

// TestCoordinatorRecoverFlipUnwindsAllLegs pins the flip-to-abort path of
// recovery when the refusal lands on a leg that is NOT the last: the
// coordinator crashed mid-commit (first leg committed, second still
// holding), and by recovery time the first leg's connection is gone and
// its ID reused by an unrelated admission. The re-driven commit on the
// first leg is then definitively refused, and the flip must unwind every
// leg — including ones whose sub-request was never re-derived — without
// touching the unrelated connection.
func TestCoordinatorRecoverFlipUnwindsAllLegs(t *testing.T) {
	c, m, logPath := twoShardFixture(t)
	ctx := context.Background()
	crashAt(c, "mid-commit")
	if _, err := c.Setup(ctx, crossReq("c1")); !errors.Is(err, errCrash) {
		t.Fatalf("setup error = %v", err)
	}
	_ = c.Close()

	// The committed first leg disappears and its ID is taken by an
	// unrelated single-switch admission before anyone recovers.
	info, _ := m.Lookup("s0")
	cl, err := wire.Dial(info.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Teardown(context.Background(), "c1"); err != nil {
		t.Fatal(err)
	}
	rival := core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: hops("sw0")}
	if _, err := cl.Setup(context.Background(), rival); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()

	c2, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aborted) != 1 || len(rep.Committed) != 0 || len(rep.InDoubt) != 0 {
		t.Fatalf("recover report = %+v", rep)
	}
	// The rival admission survives on s0; the transaction's own legs are
	// gone everywhere, holds included.
	if ids := shardList(t, c2, "s0"); len(ids) != 1 || ids[0] != "c1" {
		t.Fatalf("s0 list = %v, want the rival only", ids)
	}
	if ids := shardList(t, c2, "s1"); len(ids) != 0 {
		t.Fatalf("s1 list = %v", ids)
	}
	sts, err := c2.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if len(st.Prepared) != 0 {
			t.Fatalf("flip left hold on %s: %v", st.ShardID, st.Prepared)
		}
	}
}

// listenRetry rebinds addr, tolerating the brief window while the old
// listener's port is released.
func listenRetry(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		l, err := net.Listen("tcp", addr)
		if err == nil {
			return l
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, lastErr)
	return nil
}

// TestCoordinatorInProcessRecoverHonorsFlippedAbort pins the in-memory
// half of the decision state: a commit that flips to abort mid-flight
// but cannot reach every shard leaves the transaction in doubt with the
// durable log saying abort. A same-process Recover must then drive the
// abort — never re-admit a connection whose client was already told the
// setup failed.
func TestCoordinatorInProcessRecoverHonorsFlippedAbort(t *testing.T) {
	addr0, _ := startShard(t, "s0", "sw0", "sw1")

	// s1 is built by hand so the test can kill and restart it.
	n1 := core.NewNetwork(core.HardCDV{})
	for _, sw := range []string{"sw2", "sw3"} {
		if _, err := n1.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv1 := wire.NewServer(n1)
	srv1.SetShardID("s1")
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1 := l1.Addr().String()
	go func() { _ = srv1.Serve(l1) }()

	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s=sw2,sw3", addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(m, nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	c.PrepareTTL = 20 * time.Millisecond
	c.Retries = 1
	ctx := context.Background()

	// At the decision point: both holds have expired; s0's is reaped and
	// its connection ID taken over, so the commit on s0 is definitively
	// refused — and s1 dies, so the flipped abort cannot reach it.
	rival := core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: hops("sw0")}
	c.SetTestHook(func(p, txn string) error {
		if p != "pre-commit" {
			return nil
		}
		time.Sleep(40 * time.Millisecond)
		cl, derr := wire.Dial(addr0)
		if derr != nil {
			t.Error(derr)
			return nil
		}
		defer cl.Close()
		if _, rerr := cl.ShardReap(context.Background()); rerr != nil {
			t.Error(rerr)
		}
		if _, serr := cl.Setup(context.Background(), rival); serr != nil {
			t.Error(serr)
		}
		_ = srv1.Close()
		return nil
	})
	if _, err := c.Setup(ctx, crossReq("c1")); err == nil {
		t.Fatal("flipped setup reported success")
	}
	if got := c.InDoubt(); len(got) != 1 {
		t.Fatalf("in doubt = %v, want one txn", got)
	}
	c.SetTestHook(nil)

	// s1 comes back empty (journal replay reaps unresolved prepares) and
	// the rival releases its hold on the connection ID.
	n1b := core.NewNetwork(core.HardCDV{})
	for _, sw := range []string{"sw2", "sw3"} {
		if _, err := n1b.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv1b := wire.NewServer(n1b)
	srv1b.SetShardID("s1")
	l1b := listenRetry(t, addr1)
	done := make(chan struct{})
	go func() { defer close(done); _ = srv1b.Serve(l1b) }()
	t.Cleanup(func() { _ = srv1b.Close(); <-done })
	cl0, err := wire.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl0.Teardown(context.Background(), "c1"); err != nil {
		t.Fatal(err)
	}
	_ = cl0.Close()

	// Same-process recovery: the durable decision is abort, and the
	// in-memory state must agree — c1 must not reappear anywhere.
	rep, err := c.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Aborted) != 1 || len(rep.Committed) != 0 || len(rep.InDoubt) != 0 {
		t.Fatalf("recover report = %+v", rep)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 0 {
			t.Fatalf("%s list after recovery = %v, want empty", id, ids)
		}
	}
	if got := c.InDoubt(); len(got) != 0 {
		t.Fatalf("still in doubt after recovery: %v", got)
	}
}

// TestIntentLogReserveSeqConcurrentUnique pins transaction-name
// uniqueness: concurrent reservations must never observe the same
// sequence.
func TestIntentLogReserveSeqConcurrentUnique(t *testing.T) {
	log, _, _, err := OpenIntentLog(nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	const n = 64
	seqs := make(chan uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seqs <- log.ReserveSeq()
		}()
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]struct{}, n)
	for s := range seqs {
		if _, dup := seen[s]; dup {
			t.Fatalf("sequence %d reserved twice", s)
		}
		seen[s] = struct{}{}
	}
	// Appends continue past the reserved range.
	rec := IntentRecord{State: IntentBegin, Txn: "t"}
	if err := log.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq < n {
		t.Fatalf("append seq %d inside reserved range [0, %d)", rec.Seq, n)
	}
}

// TestCoordinatorReaperResolvesDeadCoordinator covers the orphan path:
// the coordinator dies after prepare, nobody recovers it, and the
// shards' own reapers free the held bandwidth after the TTL.
func TestCoordinatorReaperResolvesDeadCoordinator(t *testing.T) {
	c, m, _ := twoShardFixture(t)
	c.PrepareTTL = 20 * time.Millisecond
	ctx := context.Background()
	crashAt(c, "pre-commit")
	if _, err := c.Setup(ctx, crossReq("c1")); !errors.Is(err, errCrash) {
		t.Fatalf("setup error = %v", err)
	}
	_ = c.Close()

	time.Sleep(30 * time.Millisecond)
	for _, id := range []string{"s0", "s1"} {
		info, _ := m.Lookup(id)
		cl, err := wire.Dial(info.Addr)
		if err != nil {
			t.Fatal(err)
		}
		reaped, err := cl.ShardReap(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(reaped) != 1 {
			t.Fatalf("%s reaped %v, want one txn", id, reaped)
		}
		st, err := cl.ShardStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Prepared) != 0 {
			t.Fatalf("%s still holds %v", id, st.Prepared)
		}
		_ = cl.Close()
	}
}

// TestIntentPrimaryCatchUpUnderLoadNoGapNoDuplicate: a standby attaching
// while appends run gets every record exactly once — the backlog from the
// file, the rest from live shipping — with no sequence missed between
// the two and none delivered twice.
func TestIntentPrimaryCatchUpUnderLoadNoGapNoDuplicate(t *testing.T) {
	log, _, _, err := OpenIntentLog(nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var mu sync.Mutex
	var attached bool
	var delivered []uint64
	log.SetShipper(func(seq uint64, _ []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if attached {
			delivered = append(delivered, seq)
		}
		return nil
	})
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	var appended atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := IntentRecord{State: IntentBegin, Txn: fmt.Sprintf("w%d-%d", w, i)}
				if err := log.Append(&rec); err != nil {
					t.Error(err)
					return
				}
				appended.Add(1)
			}
		}(w)
	}
	for appended.Load() < writers*perWriter/4 {
		time.Sleep(time.Millisecond) // attach mid-stream, with a backlog to catch up
	}
	var backlog int
	err = log.CatchUp(0,
		func(seq uint64, _ []byte) error {
			mu.Lock()
			delivered = append(delivered, seq)
			mu.Unlock()
			backlog++
			return nil
		},
		func() {
			mu.Lock()
			attached = true
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if backlog == 0 || backlog == writers*perWriter {
		t.Logf("catch-up carried %d of %d records: the attach did not land mid-stream", backlog, writers*perWriter)
	}
	if len(delivered) != writers*perWriter {
		t.Fatalf("standby received %d records, want %d", len(delivered), writers*perWriter)
	}
	for i, seq := range delivered {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d, want %d (gap, duplicate or reordering)", i, seq, i+1)
		}
	}
}
