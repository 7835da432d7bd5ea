package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"atmcac/internal/obs"
	"atmcac/internal/traffic"
)

// recorder collects trace events for assertions.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Trace(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) byKind(k obs.Kind) []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.Event
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestSetupEmitsTraceEvents(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	rec := &recorder{}
	n.SetTracer(rec)

	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.2), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	setups := rec.byKind(obs.KindSetup)
	if len(setups) != 1 {
		t.Fatalf("setup events = %d, want 1", len(setups))
	}
	ev := setups[0]
	if ev.Outcome != obs.OutcomeAccepted || ev.Conn != "c1" || ev.Hops != 2 {
		t.Fatalf("setup event = %+v", ev)
	}
	hops := rec.byKind(obs.KindHopCheck)
	if len(hops) != 2 {
		t.Fatalf("hop events = %d, want 2", len(hops))
	}
	for _, h := range hops {
		if h.Outcome != obs.OutcomeAccepted {
			t.Fatalf("hop event = %+v", h)
		}
		if h.Slack < 0 {
			t.Fatalf("accepted hop has negative slack %v", h.Slack)
		}
	}

	if err := n.Teardown("c1"); err != nil {
		t.Fatal(err)
	}
	tds := rec.byKind(obs.KindTeardown)
	if len(tds) != 1 || tds[0].Outcome != obs.OutcomeOK {
		t.Fatalf("teardown events = %+v", tds)
	}
}

func TestSetupRejectionTraceCarriesCode(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	rec := &recorder{}
	n.SetTracer(rec)

	// A 1-cell end-to-end bound cannot be met: guarantees sum to 64.
	_, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.2), Priority: 1, Route: route, DelayBound: 1,
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	setups := rec.byKind(obs.KindSetup)
	if len(setups) != 1 {
		t.Fatalf("setup events = %d, want 1", len(setups))
	}
	if setups[0].Outcome != obs.OutcomeRejected || setups[0].Code != CodeDelayBound {
		t.Fatalf("rejection event = %+v, want rejected/%s", setups[0], CodeDelayBound)
	}
}

func TestDuplicateSetupTraceCarriesCode(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	rec := &recorder{}
	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "dup", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	n.SetTracer(rec)
	_, err := n.Setup(context.Background(), ConnRequest{
		ID: "dup", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if !errors.Is(err, ErrDuplicateConn) {
		t.Fatalf("err = %v, want ErrDuplicateConn", err)
	}
	if evs := rec.byKind(obs.KindSetup); len(evs) != 1 || evs[0].Outcome != obs.OutcomeError || evs[0].Code != CodeDuplicate {
		t.Fatalf("duplicate setup events = %+v", evs)
	}
}

func TestFailAndRestoreLinkEmitEvents(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	rec := &recorder{}
	n.SetTracer(rec)
	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	evicted, err := n.FailLink("sw0", "sw1")
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted = %d, want 1", len(evicted))
	}
	fls := rec.byKind(obs.KindFailLink)
	if len(fls) != 1 || fls[0].Evicted != 1 || fls[0].Link != "sw0->sw1" {
		t.Fatalf("fail-link events = %+v", fls)
	}
	if err := n.RestoreLink("sw0", "sw1"); err != nil {
		t.Fatal(err)
	}
	if rls := rec.byKind(obs.KindRestoreLink); len(rls) != 1 {
		t.Fatalf("restore-link events = %+v", rls)
	}
}

func TestAuditEmitsEvent(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	rec := &recorder{}
	n.SetTracer(rec)
	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	v, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.byKind(obs.KindAudit)
	if len(evs) != 1 || evs[0].Violations != len(v) {
		t.Fatalf("audit events = %+v (violations %d)", evs, len(v))
	}
}

func TestErrorCodeTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{ErrRejected, CodeRejected},
		{fmt.Errorf("wrap: %w", ErrLinkDown), CodeLinkDown},
		{fmt.Errorf("wrap: %w", ErrDuplicateConn), CodeDuplicate},
		{ErrUnknownConn, CodeUnknownConn},
		{ErrUnknownSwitch, CodeUnknownSwitch},
		{ErrBadConfig, CodeBadConfig},
		{context.DeadlineExceeded, CodeDeadline},
		{context.Canceled, CodeCanceled},
		{errors.New("mystery"), CodeInternal},
		{&RejectionError{Kind: CodeQueueBudget}, CodeQueueBudget},
		{&RejectionError{Kind: CodeQueueUnstable}, CodeQueueUnstable},
		{fmt.Errorf("wrap: %w", &RejectionError{Kind: CodeDelayBound}), CodeDelayBound},
		{&RejectionError{}, CodeRejected},
	}
	for _, c := range cases {
		if got := ErrorCode(c.err); got != c.want {
			t.Errorf("ErrorCode(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}
