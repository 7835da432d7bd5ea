package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/traffic"
)

// syncCtl injects failures into the journal file's fsync (only the
// journal: snapshot writes pass through untouched, so recovery and
// compaction keep working while the group-commit path is under test).
type syncCtl struct {
	fail atomic.Bool
}

type ctlFS struct {
	journal.FS
	ctl *syncCtl
}

func (f *ctlFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(name, ".journal") {
		return inner, nil
	}
	return &ctlFile{File: inner, ctl: f.ctl}, nil
}

type ctlFile struct {
	journal.File
	ctl *syncCtl
}

func (f *ctlFile) Sync() error {
	if f.ctl.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// eventCapture is a concurrency-safe obs.Tracer recording every event.
type eventCapture struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (c *eventCapture) Trace(ev obs.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *eventCapture) byKind(k obs.Kind) []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.Event
	for _, ev := range c.evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// startDurableServer runs a journal-sync server (big queues, fsync
// through ctl when non-nil) on a loopback listener and returns a
// negotiated client, the server, a 2-hop route and the event capture.
func startDurableServer(t *testing.T, ctl *syncCtl) (*Client, *Server, core.Route, *eventCapture) {
	t.Helper()
	network := core.NewNetwork(core.HardCDV{})
	route := make(core.Route, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := network.AddSwitch(core.SwitchConfig{
			Name: name, QueueCells: map[core.Priority]float64{1: 1 << 20},
		}); err != nil {
			t.Fatal(err)
		}
		route[i] = core.Hop{Switch: name, In: 1, Out: 0}
	}
	var fsys journal.FS = journal.OSFS{}
	if ctl != nil {
		fsys = &ctlFS{FS: journal.OSFS{}, ctl: ctl}
	}
	dur, err := OpenDurable(DurableConfig{
		StatePath: filepath.Join(t.TempDir(), "state.json"),
		Mode:      DurabilityJournalSync,
		FS:        fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dur.Close() })
	if _, err := dur.Recover(network); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(network)
	srv.SetDurable(dur)
	capture := &eventCapture{}
	srv.SetObservability(nil, capture)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		<-done
	})
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client, srv, route, capture
}

func batchRoute(route core.Route, port int) core.Route {
	r := append(core.Route(nil), route...)
	for h := range r {
		r[h].In = core.PortID(port)
	}
	return r
}

// TestBatchSetupTeardownEndToEnd: a batch admits its items independently
// — one bad item never fails its siblings — and batch-teardown mirrors
// that, all over the negotiated binary transport with journal-sync
// durability underneath.
func TestBatchSetupTeardownEndToEnd(t *testing.T) {
	client, _, route, capture := startDurableServer(t, nil)
	reqs := []core.ConnRequest{
		{ID: "b0", Spec: traffic.CBR(0.01), Priority: 1, Route: batchRoute(route, 1)},
		{ID: "b1", Spec: traffic.CBR(0.01), Priority: 1, Route: core.Route{{Switch: "nope", In: 1, Out: 0}}},
		{ID: "b2", Spec: traffic.VBR(0.3, 0.02, 4), Priority: 1, Route: batchRoute(route, 2)},
	}
	results, err := client.BatchSetup(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if !results[0].OK || results[0].Admission == nil || results[0].ID != "b0" {
		t.Fatalf("item 0 = %+v", results[0])
	}
	if results[1].OK || results[1].Error == "" {
		t.Fatalf("unknown-switch item = %+v", results[1])
	}
	if !results[2].OK || results[2].Admission == nil {
		t.Fatalf("item 2 = %+v, want admitted despite failed sibling", results[2])
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("List = %v, want [b0 b2]", ids)
	}

	tds, err := client.BatchTeardown(context.Background(), []core.ConnID{"b0", "ghost", "b2"})
	if err != nil {
		t.Fatal(err)
	}
	if !tds[0].OK || !tds[2].OK {
		t.Fatalf("teardown results = %+v", tds)
	}
	if tds[1].OK || tds[1].Error == "" {
		t.Fatalf("unknown-conn item = %+v", tds[1])
	}
	ids, err = client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("List after batch teardown = %v", ids)
	}
	for _, op := range []string{OpBatchSetup, OpBatchTeardown} {
		found := false
		for _, ev := range capture.byKind(obs.KindBatch) {
			if ev.Op == op {
				found = true
			}
		}
		if !found {
			t.Errorf("no %s batch event traced", op)
		}
	}
}

// TestBatchLimits: an empty batch and one beyond MaxBatchOps are protocol
// errors carrying the stable code, with no partial execution.
func TestBatchLimits(t *testing.T) {
	client, _, route, _ := startDurableServer(t, nil)
	var re *RemoteError
	if _, err := client.BatchSetup(context.Background(), nil); !errors.As(err, &re) || re.Code != CodeProtocol {
		t.Fatalf("empty batch-setup = %v, want protocol error", err)
	}
	big := make([]core.ConnID, MaxBatchOps+1)
	for i := range big {
		big[i] = core.ConnID(fmt.Sprintf("x%d", i))
	}
	if _, err := client.BatchTeardown(context.Background(), big); !errors.As(err, &re) || re.Code != CodeProtocol {
		t.Fatalf("oversized batch-teardown = %v, want protocol error", err)
	}
	reqs := make([]core.ConnRequest, MaxBatchOps+1)
	for i := range reqs {
		reqs[i] = core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("x%d", i)), Spec: traffic.CBR(0.0001),
			Priority: 1, Route: batchRoute(route, i+1),
		}
	}
	if _, err := client.BatchSetup(context.Background(), reqs); !errors.As(err, &re) || re.Code != CodeProtocol {
		t.Fatalf("oversized batch-setup = %v, want protocol error", err)
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("oversized batch partially executed: %v", ids)
	}
}

// TestBatchSetupFsyncFailureFansOut: one failed batch fsync fails EVERY
// item whose record it covered — each is rolled back and refused with
// not-durable — and a crash at that point recovers none of them.
func TestBatchSetupFsyncFailureFansOut(t *testing.T) {
	ctl := &syncCtl{}
	client, srv, route, _ := startDurableServer(t, ctl)
	// A connection admitted before the failure must survive it.
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "keep", Spec: traffic.CBR(0.01), Priority: 1, Route: batchRoute(route, 99),
	}); err != nil {
		t.Fatal(err)
	}
	ctl.fail.Store(true)
	reqs := make([]core.ConnRequest, 4)
	for i := range reqs {
		reqs[i] = core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("doomed%d", i)), Spec: traffic.CBR(0.01),
			Priority: 1, Route: batchRoute(route, i+1),
		}
	}
	results, err := client.BatchSetup(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.OK || res.Code != CodeNotDurable {
			t.Errorf("item %d = %+v, want not-durable", i, res)
		}
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "keep" {
		t.Fatalf("List after failed batch = %v, want [keep]", ids)
	}
	// Crash boundary: recover the on-disk state into a fresh network —
	// only the pre-failure connection may come back.
	network2 := core.NewNetwork(core.HardCDV{})
	for i := 0; i < 2; i++ {
		if _, err := network2.AddSwitch(core.SwitchConfig{
			Name: fmt.Sprintf("sw%d", i), QueueCells: map[core.Priority]float64{1: 1 << 20},
		}); err != nil {
			t.Fatal(err)
		}
	}
	dur2, err := OpenDurable(DurableConfig{
		StatePath: srv.dur.store.Path(), JournalPath: srv.dur.journalPath,
		Mode: DurabilityJournalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	rep, err := dur2.Recover(network2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || len(network2.Connections()) != 1 {
		t.Fatalf("recovery after failed batch fsync restored %d conns (%v), want only keep",
			rep.Restored, network2.Connections())
	}
}

// TestGroupCommitCoalescesConcurrentOps pins the leader-based group
// commit deterministically: the leader is parked after queueing its
// record, before its group is written, while three more pipelined setups
// queue and join its group, so all four records are covered by ONE fsync.
func TestGroupCommitCoalescesConcurrentOps(t *testing.T) {
	client, srv, route, capture := startDurableServer(t, nil)
	var appended atomic.Int32
	leaderGate := make(chan struct{})
	srv.testHookQueued = func() {
		if appended.Add(1) == 1 {
			<-leaderGate // park the leader until the group fills
		}
	}
	const members = 4
	errs := make(chan error, members)
	for i := 0; i < members; i++ {
		go func(i int) {
			_, err := client.Setup(context.Background(), core.ConnRequest{
				ID: core.ConnID(fmt.Sprintf("g%d", i)), Spec: traffic.CBR(0.01),
				Priority: 1, Route: batchRoute(route, i+1),
			})
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for appended.Load() < members {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appends joined the group", appended.Load(), members)
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderGate)
	for i := 0; i < members; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	srv.testHookQueued = nil
	commits := capture.byKind(obs.KindGroupCommit)
	if len(commits) != 1 {
		t.Fatalf("group commits = %d (%+v), want exactly 1 covering all %d ops",
			len(commits), commits, members)
	}
	if commits[0].Records != members || commits[0].Outcome != obs.OutcomeOK {
		t.Fatalf("group commit = %+v, want %d records ok", commits[0], members)
	}
}

// TestGroupCommitFsyncFailureFansOut is the crash-boundary pin for the
// group-commit error fan-out: when the shared fsync fails, every
// coalesced operation is rolled back and refused with not-durable, and
// recovery from the on-disk state resurrects none of them.
func TestGroupCommitFsyncFailureFansOut(t *testing.T) {
	ctl := &syncCtl{}
	client, srv, route, capture := startDurableServer(t, ctl)
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "keep", Spec: traffic.CBR(0.01), Priority: 1, Route: batchRoute(route, 99),
	}); err != nil {
		t.Fatal(err)
	}
	// Park the first (leader) op before its group is written so the others
	// coalesce into the same doomed group.
	var appended atomic.Int32
	leaderGate := make(chan struct{})
	srv.testHookQueued = func() {
		if appended.Add(1) == 1 {
			<-leaderGate
		}
	}
	ctl.fail.Store(true)
	const members = 4
	errs := make(chan error, members)
	for i := 0; i < members; i++ {
		go func(i int) {
			_, err := client.Setup(context.Background(), core.ConnRequest{
				ID: core.ConnID(fmt.Sprintf("d%d", i)), Spec: traffic.CBR(0.01),
				Priority: 1, Route: batchRoute(route, i+1),
			})
			errs <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for appended.Load() < members {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d appends joined the group", appended.Load(), members)
		}
		time.Sleep(time.Millisecond)
	}
	close(leaderGate)
	for i := 0; i < members; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("a member of the failed group was acked")
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeNotDurable {
			t.Fatalf("member error = %v, want not-durable", err)
		}
	}
	srv.testHookQueued = nil
	var failed bool
	for _, ev := range capture.byKind(obs.KindGroupCommit) {
		if ev.Outcome == obs.OutcomeError {
			failed = true
		}
	}
	if !failed {
		t.Error("no failed group-commit event traced")
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "keep" {
		t.Fatalf("List after failed group = %v, want [keep]", ids)
	}
	// Crash boundary: the journal truncated the group's records, so
	// recovery sees only the pre-failure connection.
	network2 := core.NewNetwork(core.HardCDV{})
	for i := 0; i < 2; i++ {
		if _, err := network2.AddSwitch(core.SwitchConfig{
			Name: fmt.Sprintf("sw%d", i), QueueCells: map[core.Priority]float64{1: 1 << 20},
		}); err != nil {
			t.Fatal(err)
		}
	}
	dur2, err := OpenDurable(DurableConfig{
		StatePath: srv.dur.store.Path(), JournalPath: srv.dur.journalPath,
		Mode: DurabilityJournalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	rep, err := dur2.Recover(network2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || len(network2.Connections()) != 1 {
		t.Fatalf("recovery after failed group fsync restored %d conns, want only keep", rep.Restored)
	}
}

// TestPipelinedChurnSoak is the CI soak target: sustained concurrent
// churn over one pipelined binary connection against a journal-sync
// server, mixing single ops and explicit batches. Run under -race it
// doubles as the pipelining data-race check.
func TestPipelinedChurnSoak(t *testing.T) {
	client, _, route, _ := startDurableServer(t, nil)
	const workers = 8
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				id := core.ConnID(fmt.Sprintf("soak-w%d-k%d", w, k))
				r := batchRoute(route, w+1)
				var err error
				switch k % 2 {
				case 0:
					_, err = client.Setup(context.Background(), core.ConnRequest{
						ID: id, Spec: traffic.CBR(0.0001), Priority: 1, Route: r,
					})
					if err == nil {
						err = client.Teardown(context.Background(), id)
					}
				default:
					ids := []core.ConnID{id + "-a", id + "-b"}
					reqs := []core.ConnRequest{
						{ID: ids[0], Spec: traffic.CBR(0.0001), Priority: 1, Route: r},
						{ID: ids[1], Spec: traffic.CBR(0.0001), Priority: 1, Route: r},
					}
					var results []BatchResult
					results, err = client.BatchSetup(context.Background(), reqs)
					if err == nil {
						for _, res := range results {
							if !res.OK {
								err = fmt.Errorf("batch item %s: %s", res.ID, res.Error)
							}
						}
					}
					if err == nil {
						_, err = client.BatchTeardown(context.Background(), ids)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("connections leaked by churn: %v", ids)
	}
}

// benchDurableServer is startDurableServer without the testing.T-only
// plumbing, for benchmarks.
func benchDurableServer(b *testing.B) (*Client, *Server, core.Route) {
	b.Helper()
	network := core.NewNetwork(core.HardCDV{})
	route := make(core.Route, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := network.AddSwitch(core.SwitchConfig{
			Name: name, QueueCells: map[core.Priority]float64{1: 1 << 20},
		}); err != nil {
			b.Fatal(err)
		}
		route[i] = core.Hop{Switch: name, In: 1, Out: 0}
	}
	dur, err := OpenDurable(DurableConfig{
		StatePath: filepath.Join(b.TempDir(), "state.json"),
		Mode:      DurabilityJournalSync,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = dur.Close() })
	if _, err := dur.Recover(network); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(network)
	srv.SetDurable(dur)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	b.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	return client, srv, route
}

// BenchmarkBatchedSetup measures per-connection admission latency at the
// server dispatch level (the layer BenchmarkPersistSetup measures, at
// ~229µs/op with one fsync per op on the reference machine) as the batch
// size grows: a batch admits every item and pays ONE journal fsync, so
// per-item cost should fall toward the fsync-free floor. Each item gets
// a disjoint single-hop route — the paper's admission test is per-hop
// arithmetic that scales with hops and with the connections sharing a
// switch, so disjoint minimal routes keep the figure a wire/durability
// measurement rather than a CAC-scan one. Teardown resets state between
// iterations off the clock. Reported ns/item is the per-connection
// figure.
func BenchmarkBatchedSetup(b *testing.B) {
	const fabric = 32
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			network := core.NewNetwork(core.HardCDV{})
			routes := make([]core.Route, fabric)
			for i := 0; i < fabric; i++ {
				name := fmt.Sprintf("fsw%d", i)
				if _, err := network.AddSwitch(core.SwitchConfig{
					Name: name, QueueCells: map[core.Priority]float64{1: 1 << 20},
				}); err != nil {
					b.Fatal(err)
				}
				routes[i] = core.Route{{Switch: name, In: 1, Out: 0}}
			}
			dur, err := OpenDurable(DurableConfig{
				StatePath: filepath.Join(b.TempDir(), "state.json"),
				Mode:      DurabilityJournalSync,
				// Compaction is orthogonal tuning; keep its cost out of
				// the per-op figure for every batch size alike.
				CompactRecords: 1 << 30, CompactBytes: 1 << 40,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer dur.Close()
			if _, err := dur.Recover(network); err != nil {
				b.Fatal(err)
			}
			srv := NewServer(network)
			srv.SetDurable(dur)
			reqs := make([]core.ConnRequest, size)
			ids := make([]core.ConnID, size)
			for i := range reqs {
				ids[i] = core.ConnID(fmt.Sprintf("bench%d", i))
				reqs[i] = core.ConnRequest{
					ID: ids[i], Spec: traffic.CBR(0.0001),
					Priority: 1, Route: routes[i],
				}
			}
			setup := Request{Op: OpBatchSetup, Requests: reqs}
			reset := Request{Op: OpBatchTeardown, IDs: ids}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := srv.dispatch(setup)
				if resp.Error != "" {
					b.Fatal(resp.Error)
				}
				for _, res := range resp.Results {
					if !res.OK {
						b.Fatalf("item %s: %s", res.ID, res.Error)
					}
				}
				b.StopTimer()
				if resp := srv.dispatch(reset); resp.Error != "" {
					b.Fatal(resp.Error)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
		})
	}
}

// BenchmarkPipelinedClient measures setup+teardown round-trip throughput
// with many requests in flight on ONE binary connection: pipelining lets
// independent journal-sync ops share group-commit fsyncs.
func BenchmarkPipelinedClient(b *testing.B) {
	client, _, route := benchDurableServer(b)
	var seq atomic.Uint64
	ctx := context.Background()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			id := core.ConnID(fmt.Sprintf("p%d", n))
			r := batchRoute(route, int(n%1024)+1)
			if _, err := client.Setup(ctx, core.ConnRequest{
				ID: id, Spec: traffic.CBR(0.0001), Priority: 1, Route: r,
			}); err != nil {
				b.Fatal(err)
			}
			if err := client.Teardown(ctx, id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
