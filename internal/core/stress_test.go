package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"atmcac/internal/traffic"
)

// ---------------------------------------------------------------------------
// Deterministic concurrency stress suite for the published-state admission
// hot path. Every test here is meant to run under -race (and does in CI,
// with -count=3): the goroutine scripts are seeded and per-goroutine
// deterministic, so the only nondeterminism is the interleaving the
// scheduler (and the race detector) explores.
// ---------------------------------------------------------------------------

// stressTopology builds a line of nSwitches switches with the given queue
// size, plus the segment routes each worker uses.
func stressTopology(t testing.TB, nSwitches int, queue float64) *Network {
	t.Helper()
	n := NewNetwork(HardCDV{})
	for i := 0; i < nSwitches; i++ {
		if _, err := n.AddSwitch(SwitchConfig{
			Name:       fmt.Sprintf("sw%02d", i),
			QueueCells: map[Priority]float64{1: queue},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// stressOp is one scripted operation of a worker.
type stressOp struct {
	kind string // "admit", "release", "query"
	req  ConnRequest
	id   ConnID
}

// stressScript builds the deterministic op sequence of worker g: admit a
// few connections on a 2-3 hop line segment, interleave bound queries, and
// release a deterministic subset, leaving the rest admitted.
func stressScript(g, nSwitches, connsPerWorker int) []stressOp {
	rng := rand.New(rand.NewSource(int64(1000 + g)))
	var ops []stressOp
	for c := 0; c < connsPerWorker; c++ {
		id := ConnID(fmt.Sprintf("g%02d-c%02d", g, c))
		first := rng.Intn(nSwitches - 1)
		hops := 2 + rng.Intn(2) // 2 or 3 hops
		route := make(Route, 0, hops)
		for h := 0; h < hops && first+h < nSwitches; h++ {
			route = append(route, Hop{
				Switch: fmt.Sprintf("sw%02d", first+h),
				In:     PortID(1 + g), // distinct in-port per worker
				Out:    0,
			})
		}
		ops = append(ops, stressOp{kind: "admit", id: id, req: ConnRequest{
			ID:        id,
			Spec:      traffic.VBR(0.004, 0.0005, 4),
			Priority:  1,
			Route:     route,
			SourceCDV: float64(rng.Intn(64)),
		}})
		ops = append(ops, stressOp{kind: "query"})
		if c%3 == 1 {
			ops = append(ops, stressOp{kind: "release", id: id})
		}
	}
	return ops
}

// runScript executes a worker script against n. With mustAdmit, every admit
// must succeed (the generous-capacity regime); otherwise CAC rejections are
// tolerated and recorded.
func runScript(t testing.TB, n *Network, ops []stressOp, mustAdmit bool) (admitted, rejected []ConnID) {
	t.Helper()
	live := make(map[ConnID]bool)
	for _, op := range ops {
		switch op.kind {
		case "admit":
			_, err := n.Setup(context.Background(), op.req)
			switch {
			case err == nil:
				live[op.req.ID] = true
			case errors.Is(err, ErrRejected) && !mustAdmit:
				rejected = append(rejected, op.req.ID)
			default:
				t.Errorf("setup %q: %v", op.req.ID, err)
				return
			}
		case "release":
			if !live[op.id] {
				continue
			}
			if err := n.Teardown(op.id); err != nil {
				t.Errorf("teardown %q: %v", op.id, err)
				return
			}
			delete(live, op.id)
		case "query":
			// Bound queries race against commits; they must never error on
			// a stable load (generous regime) and must be finite.
			for _, name := range []string{"sw00", "sw01"} {
				sw, _ := n.Switch(name)
				d, err := sw.ComputedBound(0, 1)
				if err != nil && mustAdmit {
					t.Errorf("bound at %s: %v", name, err)
					return
				}
				if err == nil && (math.IsNaN(d) || d < 0) {
					t.Errorf("bound at %s: %g", name, d)
					return
				}
			}
		}
	}
	for id := range live {
		admitted = append(admitted, id)
	}
	return admitted, rejected
}

// networkBounds collects every (switch, out, priority) computed bound of
// ports carrying traffic.
func networkBounds(t testing.TB, n *Network) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, name := range n.SwitchNames() {
		sw, _ := n.Switch(name)
		st := sw.state.Load()
		for _, port := range st.ports {
			for k, p := range sw.prios {
				if port.queues[k].members == 0 {
					continue
				}
				d, err := sw.ComputedBound(port.out, p)
				if err != nil {
					t.Fatalf("bound %s/%d/%d: %v", name, port.out, p, err)
				}
				out[fmt.Sprintf("%s/%d/%d", name, port.out, p)] = d
			}
		}
	}
	return out
}

// TestStressConcurrentAdmitReleaseOracle runs 16 workers of interleaved
// Setup/Teardown/ComputedBound against one network with generous queues
// (every admit must succeed regardless of interleaving), then replays the
// identical scripts serially on a fresh network and asserts both executions
// agree on the admitted set and on every computed bound.
func TestStressConcurrentAdmitReleaseOracle(t *testing.T) {
	const (
		workers        = 16
		nSwitches      = 8
		connsPerWorker = 6
	)
	scripts := make([][]stressOp, workers)
	for g := range scripts {
		scripts[g] = stressScript(g, nSwitches, connsPerWorker)
	}

	concurrent := stressTopology(t, nSwitches, 1e6)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runScript(t, concurrent, scripts[g], true)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Oracle: the same ops, serially, in worker-major order. Because every
	// admission succeeds in both executions and each worker only releases
	// its own connections, the final admitted sets must be identical, and
	// (by admission-order independence of the bit-stream aggregates) so
	// must every computed bound.
	serial := stressTopology(t, nSwitches, 1e6)
	for g := 0; g < workers; g++ {
		runScript(t, serial, scripts[g], true)
	}
	if t.Failed() {
		return
	}

	gotIDs := concurrent.Connections()
	wantIDs := serial.Connections()
	if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
		t.Fatalf("admitted sets differ:\nconcurrent: %v\nserial:     %v", gotIDs, wantIDs)
	}
	gotBounds := networkBounds(t, concurrent)
	wantBounds := networkBounds(t, serial)
	if len(gotBounds) != len(wantBounds) {
		t.Fatalf("loaded queues differ: %d vs %d", len(gotBounds), len(wantBounds))
	}
	for k, want := range wantBounds {
		got, ok := gotBounds[k]
		if !ok {
			t.Fatalf("queue %s loaded serially but not concurrently", k)
		}
		// Aggregates sum in map order, so only the last few ulps may move.
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("bound %s: concurrent %.15g, serial %.15g", k, got, want)
		}
	}
}

// TestStressTightQueueNoLeaks drives 16 workers against a deliberately
// tight queue so the CAC rejects a load-dependent subset, and asserts the
// safety invariants that must hold under every interleaving: the final
// state is audit-clean, every admitted connection is present at each hop of
// its route, every rejected connection left no residue anywhere, and the
// surviving set replayed serially is admissible with identical bounds.
func TestStressTightQueueNoLeaks(t *testing.T) {
	const (
		workers        = 16
		nSwitches      = 6
		connsPerWorker = 5
	)
	scripts := make([][]stressOp, workers)
	for g := range scripts {
		scripts[g] = stressScript(g, nSwitches, connsPerWorker)
	}
	n := stressTopology(t, nSwitches, 14)

	rejectedCh := make(chan []ConnID, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, rejected := runScript(t, n, scripts[g], false)
			rejectedCh <- rejected
		}(g)
	}
	wg.Wait()
	close(rejectedCh)
	if t.Failed() {
		return
	}
	var rejected []ConnID
	for r := range rejectedCh {
		rejected = append(rejected, r...)
	}

	violations, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("audit after concurrent load: %v", violations)
	}

	admitted := make(map[ConnID]ConnRequest)
	for _, req := range n.AdmittedRequests() {
		admitted[req.ID] = req
	}
	for id, req := range admitted {
		for _, hop := range req.Route {
			sw, _ := n.Switch(hop.Switch)
			if !sw.Has(id) {
				t.Fatalf("admitted %q missing at %s", id, hop.Switch)
			}
		}
	}
	for _, id := range rejected {
		if _, ok := admitted[id]; ok {
			continue // re-admitted later by its own worker script? ids are unique; cannot happen
		}
		for _, name := range n.SwitchNames() {
			sw, _ := n.Switch(name)
			if sw.Has(id) {
				t.Fatalf("rejected %q leaked a reservation at %s", id, name)
			}
		}
	}

	// The surviving set is an admissible set: serial replay admits all of
	// it and lands on the same bounds.
	replay := stressTopology(t, nSwitches, 14)
	for _, req := range n.AdmittedRequests() {
		if _, err := replay.Setup(context.Background(), req); err != nil {
			t.Fatalf("serial replay of surviving %q: %v", req.ID, err)
		}
	}
	got := networkBounds(t, n)
	want := networkBounds(t, replay)
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9 {
			t.Fatalf("bound %s: concurrent %.15g, replay %.15g", k, got[k], w)
		}
	}
}

// TestStressSwitchConcurrentMixedOps hammers a single switch with admits,
// releases, duplicate admits and lock-free read queries from many
// goroutines; the race detector checks the path-copied state, and the
// final reconciliation checks nothing was lost or duplicated.
func TestStressSwitchConcurrentMixedOps(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Name: "sw", QueueCells: map[Priority]float64{1: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	const rounds = 30
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := ConnID(fmt.Sprintf("w%02d-r%02d", g, r))
				req := HopRequest{
					Conn: id, Spec: traffic.VBR(0.003, 0.0004, 4),
					In: PortID(1 + g), Out: 0, Priority: 1, CDV: float64(32 * (r % 4)),
				}
				if _, err := sw.Admit(req); err != nil {
					t.Errorf("admit %q: %v", id, err)
					return
				}
				// A re-admission of the same hop must always be refused.
				if _, err := sw.Admit(req); !errors.Is(err, ErrDuplicateConn) {
					t.Errorf("duplicate admit %q: %v", id, err)
					return
				}
				if !sw.Has(id) {
					t.Errorf("admitted %q not visible", id)
					return
				}
				if d, err := sw.ComputedBound(0, 1); err != nil || d < 0 {
					t.Errorf("bound: %g, %v", d, err)
					return
				}
				if _, _, err := sw.PortEnvelope(0, 1); err != nil {
					t.Errorf("envelope: %v", err)
					return
				}
				if r%2 == 0 {
					if err := sw.Release(id); err != nil {
						t.Errorf("release %q: %v", id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Exactly the odd rounds, which were never released, survive.
	if got, want := sw.ConnectionCount(), workers*rounds/2; got != want {
		t.Fatalf("ConnectionCount = %d, want %d", got, want)
	}
	for g := 0; g < workers; g++ {
		for r := 0; r < rounds; r++ {
			id := ConnID(fmt.Sprintf("w%02d-r%02d", g, r))
			if want := r%2 == 1; sw.Has(id) != want {
				t.Fatalf("Has(%q) = %v, want %v", id, !want, want)
			}
		}
	}
}

// TestStressDuplicateSetupRace issues the same connection ID from many
// goroutines at once; exactly one setup may win, everyone else must get
// ErrDuplicateConn, and the winner's reservations must be intact.
func TestStressDuplicateSetupRace(t *testing.T) {
	n := stressTopology(t, 3, 1e6)
	req := ConnRequest{
		ID:       "contested",
		Spec:     traffic.CBR(0.01),
		Priority: 1,
		Route:    Route{{Switch: "sw00", In: 1, Out: 0}, {Switch: "sw01", In: 0, Out: 0}},
	}
	const racers = 16
	var wins, dups int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := n.Setup(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrDuplicateConn):
				dups++
			default:
				t.Errorf("setup: %v", err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if wins != 1 || dups != racers-1 {
		t.Fatalf("wins = %d, duplicates = %d (want 1 and %d)", wins, dups, racers-1)
	}
	for _, name := range []string{"sw00", "sw01"} {
		sw, _ := n.Switch(name)
		if !sw.Has("contested") {
			t.Fatalf("winner's reservation missing at %s", name)
		}
	}
	if err := n.Teardown("contested"); err != nil {
		t.Fatal(err)
	}
}
