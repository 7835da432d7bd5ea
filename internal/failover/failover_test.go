package failover

import (
	"context"
	"errors"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
)

func newRing(t *testing.T, nodes int) *rtnet.Network {
	t.Helper()
	n, err := rtnet.New(rtnet.Config{RingNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// admitBroadcast sets up a live broadcast connection from every origin.
func admitBroadcast(t *testing.T, n *rtnet.Network, load float64) {
	t.Helper()
	nodes := n.Config().RingNodes
	pcr := load / float64(nodes)
	for origin := 0; origin < nodes; origin++ {
		route, err := n.BroadcastRoute(origin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
			ID: rtnet.ConnectionID(origin, 0), Spec: traffic.CBR(pcr), Priority: 1, Route: route,
		}); err != nil {
			t.Fatalf("admit broadcast from %d: %v", origin, err)
		}
	}
}

func TestHandlePrimaryLinkFailureReadmitsAll(t *testing.T) {
	const (
		nodes  = 6
		failed = 2
	)
	n := newRing(t, nodes)
	admitBroadcast(t, n, 0.3)

	eng := New(n, Options{})
	rep, err := eng.HandlePrimaryLinkFailure(failed)
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.Link{From: rtnet.SwitchName(failed), To: rtnet.SwitchName(failed + 1)}); rep.FailedLink != want {
		t.Errorf("FailedLink = %v, want %v", rep.FailedLink, want)
	}
	// Every broadcast uses the failed link except the one from failed+1.
	if len(rep.Outcomes) != nodes-1 {
		t.Fatalf("outcomes = %+v, want %d evictions", rep.Outcomes, nodes-1)
	}
	if rep.Readmitted() != nodes-1 || rep.Rejected() != 0 {
		t.Fatalf("readmitted=%d rejected=%d, want %d/0: %+v",
			rep.Readmitted(), rep.Rejected(), nodes-1, rep.Outcomes)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("Report.Err() = %v", err)
	}
	for _, o := range rep.Outcomes {
		if o.Attempts != 1 {
			t.Errorf("%s: %d attempts, want 1", o.ID, o.Attempts)
		}
		if len(o.Route) < nodes-1 {
			t.Errorf("%s: wrapped route only %d hops", o.ID, len(o.Route))
		}
	}
	// Untouched connection plus all re-admissions are live and consistent.
	if got := len(n.Core().Connections()); got != nodes {
		t.Fatalf("admitted after recovery = %d, want %d", got, nodes)
	}
	if v, err := n.Core().Audit(); err != nil || len(v) > 0 {
		t.Fatalf("audit after recovery: %v %v", v, err)
	}
	// No re-admitted route traverses the dead link.
	for _, req := range n.Core().AdmittedRequests() {
		for i := 0; i+1 < len(req.Route); i++ {
			if req.Route[i].Switch == rep.FailedLink.From && req.Route[i+1].Switch == rep.FailedLink.To {
				t.Errorf("connection %s re-admitted over the dead link", req.ID)
			}
		}
	}
}

// TestReadmitPreservesHardBound: a connection whose DelayBound fits the
// healthy route but not the longer wrapped route must be rejected in
// degraded mode — the guarantee is never silently weakened.
func TestReadmitPreservesHardBound(t *testing.T) {
	const failed = 2
	n := newRing(t, 6)
	// Broadcast from failed+2 wraps to 9 queueing points (9*32 = 288
	// guaranteed), while the healthy route has 5 (160). A 200-cell budget
	// admits healthy but not wrapped.
	route, err := n.BroadcastRoute(failed+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "tight", Spec: traffic.CBR(0.01), Priority: 1, Route: route, DelayBound: 200,
	}); err != nil {
		t.Fatal(err)
	}

	var slept []time.Duration
	eng := New(n, Options{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	rep, err := eng.HandlePrimaryLinkFailure(failed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	o := rep.Outcomes[0]
	if o.Readmitted || !errors.Is(o.Err, core.ErrRejected) {
		t.Fatalf("outcome = %+v, want rejected-degraded with ErrRejected", o)
	}
	if o.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (CAC rejections retry)", o.Attempts)
	}
	// Exponential backoff between the three attempts.
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [1ms 2ms]", slept)
	}
	if err := rep.Err(); err == nil {
		t.Error("Report.Err() = nil for a rejected connection")
	}
	if got := len(n.Core().Connections()); got != 0 {
		t.Errorf("%d connections admitted, want 0 — the bound must hold or the conn stays down", got)
	}
}

// TestReadmitRetrySucceedsWhenCapacityFrees: the first re-admission attempt
// hits an unstable queue occupied by another connection; freeing it between
// attempts (via the injected Sleep) lets the retry succeed.
func TestReadmitRetrySucceedsWhenCapacityFrees(t *testing.T) {
	const failed = 2
	n := newRing(t, 6)
	// Evicted connection: broadcast from node 0 (wraps over the secondary
	// ports of ring05 among others).
	route, err := n.BroadcastRoute(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "victim", Spec: traffic.CBR(0.2), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	// Blocker: saturates the secondary output of ring05, which the wrapped
	// route needs. 0.95 + 0.2 > 1 makes the queue unstable, a hard CAC
	// rejection.
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "blocker", Spec: traffic.CBR(0.95), Priority: 1,
		Route: core.Route{{Switch: rtnet.SwitchName(5), In: 1, Out: rtnet.SecondaryRingOutPort}},
	}); err != nil {
		t.Fatal(err)
	}

	eng := New(n, Options{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Sleep: func(time.Duration) {
			if err := n.Core().Teardown("blocker"); err != nil && !errors.Is(err, core.ErrUnknownConn) {
				t.Errorf("teardown blocker: %v", err)
			}
		},
	})
	rep, err := eng.HandlePrimaryLinkFailure(failed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	o := rep.Outcomes[0]
	if !o.Readmitted || o.ID != "victim" {
		t.Fatalf("outcome = %+v (err=%v), want victim re-admitted", o, o.Err)
	}
	if o.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (reject, free capacity, succeed)", o.Attempts)
	}
}

// TestReadmitUnclassifiableRoute: a request whose route cannot be mapped
// back to ring terms yields a per-connection error, not a panic or a silent
// drop.
func TestReadmitUnclassifiableRoute(t *testing.T) {
	n := newRing(t, 6)
	eng := New(n, Options{})
	link, err := n.PrimaryLink(2)
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Readmit([]core.ConnRequest{{
		ID: "weird", Spec: traffic.CBR(0.01), Priority: 1,
		Route: core.Route{{Switch: "not-a-ring-node", In: 1, Out: 0}},
	}}, 2, link)
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	o := rep.Outcomes[0]
	if o.Readmitted || o.Err == nil || o.Attempts != 0 {
		t.Fatalf("outcome = %+v, want classification error before any attempt", o)
	}
}

func TestHandlePrimaryLinkFailureValidates(t *testing.T) {
	n := newRing(t, 4)
	eng := New(n, Options{})
	if _, err := eng.HandlePrimaryLinkFailure(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := eng.HandlePrimaryLinkFailure(4); err == nil {
		t.Error("out-of-range node accepted")
	}
	// Failing an already-failed link is a no-op pass with no outcomes.
	if _, err := eng.HandlePrimaryLinkFailure(1); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.HandlePrimaryLinkFailure(1)
	if err != nil || len(rep.Outcomes) != 0 {
		t.Fatalf("second failure: rep=%+v err=%v", rep, err)
	}
}

// TestReadmitUnicast: an evicted unicast segment is re-admitted over
// WrappedRouteTo, reaching the same destination the long way round.
func TestReadmitUnicast(t *testing.T) {
	const failed = 1
	n := newRing(t, 6)
	// Two-hop segment 1 -> 3 crossing the failed link 1 -> 2.
	route, err := n.SegmentRoute(failed, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "seg", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	eng := New(n, Options{})
	rep, err := eng.HandlePrimaryLinkFailure(failed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 1 || !rep.Outcomes[0].Readmitted {
		t.Fatalf("outcomes = %+v", rep.Outcomes)
	}
	wrapped := rep.Outcomes[0].Route
	// Still starts at the origin's terminal and avoids the dead link.
	if wrapped[0].Switch != rtnet.SwitchName(failed) || wrapped[0].In != rtnet.TerminalPort(0) {
		t.Errorf("wrapped route starts at %+v", wrapped[0])
	}
	if len(wrapped) <= len(route) {
		t.Errorf("wrapped route (%d hops) not longer than healthy (%d) — it cannot avoid the link otherwise",
			len(wrapped), len(route))
	}
	for i := 0; i+1 < len(wrapped); i++ {
		if wrapped[i].Switch == rep.FailedLink.From && wrapped[i+1].Switch == rep.FailedLink.To {
			t.Error("wrapped unicast route crosses the dead link")
		}
	}
}

// TestHandlerNonPrimaryLinkStaysDown: a link the wrap cannot replace
// yields one error outcome per evicted connection and re-admits none.
func TestHandlerNonPrimaryLinkStaysDown(t *testing.T) {
	n := newRing(t, 6)
	admitBroadcast(t, n, 0.3)
	evicted, err := n.FailPrimaryLink(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ from, to string }{
		{rtnet.SwitchName(2), rtnet.SwitchName(1)}, // the secondary ring's direction
		{"sw9", rtnet.SwitchName(3)},               // not a ring node
	} {
		outs := Handler(n)(tc.from, tc.to, evicted)
		if len(outs) != len(evicted) {
			t.Fatalf("%s->%s: %d outcomes for %d evictions", tc.from, tc.to, len(outs), len(evicted))
		}
		for i, o := range outs {
			if o.ID != evicted[i].ID || o.Readmitted || o.Attempts != 0 || o.Hops != 0 || o.Error == "" {
				t.Errorf("%s->%s: outcome %+v, want %s down with an error and no attempt", tc.from, tc.to, o, evicted[i].ID)
			}
		}
	}
	if got := len(n.Core().Connections()); got != 6-len(evicted) {
		t.Fatalf("%d connections carried after a refused re-admission, want %d", got, 6-len(evicted))
	}
}

// TestHandlerReadmitsWithHops: over a primary link every evicted
// connection is re-admitted and its outcome reports the wrapped route's
// queueing points.
func TestHandlerReadmitsWithHops(t *testing.T) {
	n := newRing(t, 6)
	admitBroadcast(t, n, 0.3)
	evicted, err := n.FailPrimaryLink(2)
	if err != nil {
		t.Fatal(err)
	}
	outs := Handler(n)(rtnet.SwitchName(2), rtnet.SwitchName(3), evicted)
	if len(outs) != len(evicted) {
		t.Fatalf("%d outcomes for %d evictions", len(outs), len(evicted))
	}
	hops := make(map[core.ConnID]int)
	for _, req := range n.Core().AdmittedRequests() {
		hops[req.ID] = len(req.Route)
	}
	for _, o := range outs {
		if !o.Readmitted || o.Error != "" || o.Attempts != 1 {
			t.Errorf("outcome %+v, want re-admitted on the first attempt", o)
		}
		if o.Hops == 0 || o.Hops != hops[o.ID] {
			t.Errorf("%s reports %d hops, its wrapped route has %d", o.ID, o.Hops, hops[o.ID])
		}
	}
}

// TestHandlerRefusesOnce: through Handler a connection the wrapped ring
// cannot carry is refused after one attempt, with no sleep: the server
// holds its exclusive lock across the handler, so nothing could free
// capacity for a retry.
func TestHandlerRefusesOnce(t *testing.T) {
	const failed = 2
	n := newRing(t, 6)
	route, err := n.BroadcastRoute(failed+2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The wrapped route's 9 queueing points guarantee 288 cells; the
	// healthy route's 5 guarantee 160, inside the 200-cell budget.
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "tight", Spec: traffic.CBR(0.01), Priority: 1, Route: route, DelayBound: 200,
	}); err != nil {
		t.Fatal(err)
	}
	evicted, err := n.FailPrimaryLink(failed)
	if err != nil {
		t.Fatal(err)
	}
	outs := Handler(n)(rtnet.SwitchName(failed), rtnet.SwitchName(failed+1), evicted)
	if len(outs) != 1 {
		t.Fatalf("outcomes = %+v", outs)
	}
	if o := outs[0]; o.Readmitted || o.Error == "" || o.Attempts != 1 {
		t.Fatalf("outcome %+v, want refused after 1 attempt", o)
	}
}
