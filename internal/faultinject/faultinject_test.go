package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
)

var ringCfg = rtnet.Config{RingNodes: 6}

// fullCycle is the canonical scenario: load the healthy ring, fail a link,
// ride out degraded mode with churn, restore, admit again.
func fullCycle() Script {
	s := Script{}
	for origin := 0; origin < 6; origin++ {
		s = append(s, Event{Kind: KindSetup, ID: core.ConnID(fmt.Sprintf("h%d", origin)),
			Origin: origin, PCR: 0.05})
	}
	s = append(s,
		Event{Kind: KindFail, Node: 2},
		Event{Kind: KindTeardown, ID: "h0"},
		Event{Kind: KindSetup, ID: "d0", Origin: 0, PCR: 0.05},          // wrapped broadcast
		Event{Kind: KindSetup, ID: "d1", Origin: 4, Hops: 2, PCR: 0.02}, // wrapped unicast
		Event{Kind: KindRestore, Node: 2},
		Event{Kind: KindSetup, ID: "p0", Origin: 1, Hops: 3, PCR: 0.02}, // healthy again
	)
	return s
}

func TestScriptedFailureCycle(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := h.Run(fullCycle())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			t.Errorf("event %+v: %v", o.Event, o.Err)
		}
	}
	// The fail event produced a report: 5 broadcasts traverse link 2->3
	// (h3, from failed+1, does not) and all were re-admitted.
	var rep *Outcome
	for i := range outcomes {
		if outcomes[i].Event.Kind == KindFail {
			rep = &outcomes[i]
		}
	}
	if rep == nil || rep.Report == nil {
		t.Fatal("no failure report recorded")
	}
	if got := len(rep.Report.Outcomes); got != 5 {
		t.Fatalf("evicted %d connections, want 5: %+v", got, rep.Report.Outcomes)
	}
	if rep.Report.Readmitted() != 5 {
		t.Fatalf("re-admitted %d of 5: %+v", rep.Report.Readmitted(), rep.Report.Outcomes)
	}
	snap := h.Snapshot()
	if strings.Contains(snap, "down ") {
		t.Errorf("restored network still reports failed links:\n%s", snap)
	}
	if !strings.Contains(snap, "p0") || strings.Contains(snap, "h0 ") {
		t.Errorf("unexpected final state:\n%s", snap)
	}
}

func TestReplayOracleAgrees(t *testing.T) {
	if err := ReplayAgrees(ringCfg, fullCycle()); err != nil {
		t.Fatal(err)
	}
}

// TestDegradedRejectionIsRecordedNotFatal: a hard bound that cannot survive
// the wrap shows up as a per-connection outcome and the invariants still
// hold (the connection is simply gone, not weakened).
func TestDegradedRejectionIsRecordedNotFatal(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	script := Script{
		// Healthy broadcast from 4 is 5 hops (guaranteed 160 <= 200), but
		// its wrapped route is 9 hops (288 > 200).
		{Kind: KindSetup, ID: "tight", Origin: 4, PCR: 0.01, DelayBound: 200},
		{Kind: KindFail, Node: 2},
	}
	out, err := h.Apply(script[0])
	if err != nil || out.Err != nil {
		t.Fatalf("healthy setup: %v / %v", err, out.Err)
	}
	out, err = h.Apply(script[1])
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil || out.Report == nil || out.Report.Rejected() != 1 {
		t.Fatalf("fail outcome = %+v, want one rejected-degraded connection", out)
	}
	if !errors.Is(out.Report.Outcomes[0].Err, core.ErrRejected) {
		t.Fatalf("rejection error = %v, want ErrRejected", out.Report.Outcomes[0].Err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("invariants after degraded rejection: %v", err)
	}
	if got := len(h.Network().Core().Connections()); got != 0 {
		t.Fatalf("%d connections still admitted, want 0", got)
	}
	// The oracle also accepts scripts with recorded degradations.
	if err := ReplayAgrees(ringCfg, script); err != nil {
		t.Fatal(err)
	}
}

func TestHarnessRefusesDoubleFailure(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(Event{Kind: KindFail, Node: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Apply(Event{Kind: KindFail, Node: 3}); !errors.Is(err, ErrScript) {
		t.Fatalf("second failure = %v, want ErrScript", err)
	}
	if _, err := h.Apply(Event{Kind: KindRestore, Node: 3}); !errors.Is(err, ErrScript) {
		t.Fatalf("mismatched restore = %v, want ErrScript", err)
	}
	if _, err := h.Apply(Event{Kind: "flood", Node: 0}); !errors.Is(err, ErrScript) {
		t.Fatalf("unknown kind = %v, want ErrScript", err)
	}
	// Re-failing the same link is a benign no-op event.
	if out, err := h.Apply(Event{Kind: KindFail, Node: 1}); err != nil || len(out.Report.Outcomes) != 0 {
		t.Fatalf("same-link refail: %+v / %v", out, err)
	}
}

// TestInvariantsCatchPlantedViolation: feed the verifier a state that does
// violate the dead-link invariant and make sure it actually fires — a
// verifier that can't fail verifies nothing. With the ring link mapper
// installed, core's eviction is exact and no such state is reachable, so
// the test deliberately downgrades the core to the consecutive-hop default
// mapper to reopen the final-delivery seam, then plants the violation.
func TestInvariantsCatchPlantedViolation(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	coreN := h.Network().Core()
	coreN.SetLinkMapper(nil)
	// Single-hop unicast at node 5 delivering to node 0: the default
	// mapper sees no pair 5->0 in the one-hop route, so the conn survives
	// FailLink; ring geometry says its delivery crosses the dead link.
	seg, err := h.Network().SegmentRoute(5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coreN.Setup(context.Background(), core.ConnRequest{
		ID: "delivery", Spec: traffic.CBR(0.01), Priority: 1, Route: seg,
	}); err != nil {
		t.Fatal(err)
	}
	if evicted, err := coreN.FailLink(rtnet.SwitchName(5), rtnet.SwitchName(0)); err != nil || len(evicted) != 0 {
		t.Fatalf("FailLink = %v, %v; want the downgraded mapper to miss the conn", evicted, err)
	}
	err = h.VerifyNoDeadLinkTraversal()
	if err == nil || !strings.Contains(err.Error(), "delivery") {
		t.Fatalf("planted final-delivery violation not caught: %v", err)
	}
}

// TestSetupRefusesFinalDeliveryOverDeadLink: with the ring link mapper
// installed (the default for rtnet networks), the planted scenario above
// is unreachable — the setup itself is refused.
func TestSetupRefusesFinalDeliveryOverDeadLink(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Network().FailPrimaryLink(5); err != nil {
		t.Fatal(err)
	}
	seg, err := h.Network().SegmentRoute(5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Network().Core().Setup(context.Background(), core.ConnRequest{
		ID: "delivery", Spec: traffic.CBR(0.01), Priority: 1, Route: seg,
	}); !errors.Is(err, core.ErrLinkDown) {
		t.Fatalf("setup delivering over dead link = %v, want ErrLinkDown", err)
	}
}

// TestConcurrentChurnUnderFailures drives setups/teardowns concurrently
// with fail/restore cycles (the -race target), then verifies all
// invariants at quiescence.
func TestConcurrentChurnUnderFailures(t *testing.T) {
	h, err := New(ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	n := h.Network()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				id := core.ConnID(fmt.Sprintf("w%d-%d", w, i))
				route, err := n.SegmentRoute((w+i)%6, 0, 1+i%4)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = n.Core().Setup(context.Background(), core.ConnRequest{
					ID: id, Spec: traffic.CBR(0.002), Priority: 1, Route: route,
				})
				if err != nil && !errors.Is(err, core.ErrRejected) && !errors.Is(err, core.ErrLinkDown) {
					t.Errorf("setup %s: %v", id, err)
				}
				if err == nil && i%3 == 0 {
					if err := n.Core().Teardown(id); err != nil && !errors.Is(err, core.ErrUnknownConn) {
						t.Errorf("teardown %s: %v", id, err)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			if _, err := n.FailPrimaryLink(2); err != nil {
				t.Errorf("fail: %v", err)
			}
			if err := n.RestorePrimaryLink(2); err != nil {
				t.Errorf("restore: %v", err)
			}
		}
		if _, err := n.FailPrimaryLink(2); err != nil {
			t.Errorf("final fail: %v", err)
		}
	}()
	wg.Wait()
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// ReplayAgrees is the serial-replay oracle: it runs the script on two
// fresh replicas and fails unless both end in the identical state — any
// hidden nondeterminism (map iteration, timing dependence, state leakage
// across events) shows up as a snapshot diff.
func ReplayAgrees(cfg rtnet.Config, script Script) error {
	snap := func() (string, error) {
		h, err := New(cfg)
		if err != nil {
			return "", err
		}
		if _, err := h.Run(script); err != nil {
			return "", err
		}
		return h.Snapshot(), nil
	}
	first, err := snap()
	if err != nil {
		return err
	}
	second, err := snap()
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("faultinject: serial replay diverged:\n--- first\n%s--- second\n%s", first, second)
	}
	return nil
}
