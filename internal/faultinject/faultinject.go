// Package faultinject holds the fault harnesses that check, end to end,
// the paper's promise that no admitted connection ever exceeds its bound
// — across the ring-wrap failover of Section 5 and across every process,
// disk and link fault of the daemons that serve it.
//
// Harness, in this file, runs scripted setup/teardown/fail/restore
// sequences over an in-memory RTnet ring, with invariant checks (no
// admitted connection traverses a dead link, hard guarantees hold after
// recovery, the state audit is clean) and a serial-replay oracle that
// re-runs a script on a fresh replica and demands the identical final
// state.
//
// The other harnesses drive live daemons over real TCP, and all but the
// overload harness stand their fleet up from one fixture (fleet.go). A
// node is one daemon as cacd runs it: a network recovered from its
// journaled files (optionally through a CrashFS and crash points), a wire
// server with cacd's own fail-link adapter (failover.Handler), the
// process's observability wiring, and by role a shipping primary or a
// following standby; crash kills it and inspect reads its state. A
// tcpProxy is the one cuttable link: every partition is a Cut of one, and
// point re-aims it at a node rebooted on a new port. CrashHarness,
// ReplicaHarness, ShardHarness and HAShardHarness differ only in the
// fleet they boot and the faults they arm; the two shard harnesses share
// one scenario (shardScenario) from the map spec to the oracle.
//
// Determinism is deliberate: the failover engine is run with a no-op Sleep
// so scripts never depend on wall-clock timing, and every event outcome —
// including CAC rejections — is recorded rather than raised, so a script
// describes a scenario, not a happy path.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
)

// Kind enumerates script events.
type Kind string

const (
	// KindSetup admits a connection over the current topology (healthy or
	// wrapped, depending on link state).
	KindSetup Kind = "setup"
	// KindTeardown releases a connection.
	KindTeardown Kind = "teardown"
	// KindFail fails a primary ring link and runs the re-admission pass.
	KindFail Kind = "fail"
	// KindRestore clears a failed primary ring link.
	KindRestore Kind = "restore"
)

// Event is one scripted step.
type Event struct {
	Kind Kind

	// ID names the connection for KindSetup / KindTeardown.
	ID core.ConnID
	// Origin, Terminal place the sender for KindSetup.
	Origin, Terminal int
	// Hops selects a unicast segment of that many queueing points; 0 means
	// broadcast (the paper's workload).
	Hops int
	// PCR is the CBR peak cell rate for KindSetup.
	PCR float64
	// DelayBound is the optional hard end-to-end budget for KindSetup.
	DelayBound float64

	// Node identifies primary link Node -> Node+1 for KindFail/KindRestore.
	Node int
}

// Script is a deterministic event sequence.
type Script []Event

// Outcome records what one event did. Err holds per-event outcomes such as
// CAC rejections; it does not stop the script.
type Outcome struct {
	Event  Event
	Err    error
	Report *failover.Report
}

// ErrScript marks events the harness itself refuses (e.g. a second
// concurrent link failure, which the single-fault wrap model cannot heal).
var ErrScript = errors.New("faultinject: invalid script event")

// Harness drives one live network through a script.
type Harness struct {
	cfg rtnet.Config
	net *rtnet.Network
	eng *failover.Engine
	// failedFrom is the currently failed primary link's transmitting node,
	// -1 when the ring is healthy. The wrap model heals exactly one link
	// failure, so the harness enforces single-failure scripts.
	failedFrom int
	outcomes   []Outcome
}

// New builds a harness over a fresh network from cfg.
func New(cfg rtnet.Config) (*Harness, error) {
	net, err := rtnet.New(cfg)
	if err != nil {
		return nil, err
	}
	eng := failover.New(net, failover.Options{
		MaxAttempts: 2,
		Sleep:       func(time.Duration) {},
	})
	return &Harness{cfg: cfg, net: net, eng: eng, failedFrom: -1}, nil
}

// Network exposes the live network, e.g. for concurrent stress around a
// script.
func (h *Harness) Network() *rtnet.Network { return h.net }

// Outcomes returns the recorded event outcomes so far.
func (h *Harness) Outcomes() []Outcome { return h.outcomes }

// Apply executes one event. The returned error is a harness/script error
// (unknown kind, unsupported double failure); admission rejections and
// re-admission degradations land in the Outcome instead.
func (h *Harness) Apply(ev Event) (Outcome, error) {
	out := Outcome{Event: ev}
	switch ev.Kind {
	case KindSetup:
		route, err := h.routeFor(ev)
		if err != nil {
			return out, err
		}
		req := core.ConnRequest{
			ID:         ev.ID,
			Spec:       traffic.CBR(ev.PCR),
			Priority:   1,
			Route:      route,
			DelayBound: ev.DelayBound,
		}
		_, out.Err = h.net.Core().Setup(context.Background(), req)
	case KindTeardown:
		out.Err = h.net.Core().Teardown(ev.ID)
	case KindFail:
		if h.failedFrom >= 0 && h.failedFrom != ev.Node {
			return out, fmt.Errorf("%w: link %d->%d failed while %d->%d is down (wrap heals one failure)",
				ErrScript, ev.Node, ev.Node+1, h.failedFrom, h.failedFrom+1)
		}
		rep, err := h.eng.HandlePrimaryLinkFailure(ev.Node)
		if err != nil {
			return out, err
		}
		h.failedFrom = ev.Node
		out.Report = &rep
		out.Err = rep.Err()
	case KindRestore:
		if h.failedFrom != ev.Node {
			return out, fmt.Errorf("%w: restore of %d->%d but failed link is %d",
				ErrScript, ev.Node, ev.Node+1, h.failedFrom)
		}
		if err := h.net.RestorePrimaryLink(ev.Node); err != nil {
			return out, err
		}
		h.failedFrom = -1
	default:
		return out, fmt.Errorf("%w: unknown kind %q", ErrScript, ev.Kind)
	}
	h.outcomes = append(h.outcomes, out)
	return out, nil
}

// routeFor picks the healthy or wrapped route matching current link state.
func (h *Harness) routeFor(ev Event) (core.Route, error) {
	switch {
	case h.failedFrom < 0 && ev.Hops == 0:
		return h.net.BroadcastRoute(ev.Origin, ev.Terminal)
	case h.failedFrom < 0:
		return h.net.SegmentRoute(ev.Origin, ev.Terminal, ev.Hops)
	case ev.Hops == 0:
		return h.net.WrappedBroadcastRoute(ev.Origin, ev.Terminal, h.failedFrom)
	default:
		dest := (ev.Origin + ev.Hops) % h.cfg.RingNodes
		return h.net.WrappedRouteTo(ev.Origin, ev.Terminal, dest, h.failedFrom)
	}
}

// Run applies the whole script, then verifies the invariants.
func (h *Harness) Run(script Script) ([]Outcome, error) {
	for i, ev := range script {
		if _, err := h.Apply(ev); err != nil {
			return h.outcomes, fmt.Errorf("faultinject: event %d (%s): %w", i, ev.Kind, err)
		}
	}
	return h.outcomes, h.Verify()
}

// Verify checks every harness invariant on the current state.
func (h *Harness) Verify() error {
	if err := h.VerifyNoDeadLinkTraversal(); err != nil {
		return err
	}
	if err := h.VerifyGuarantees(); err != nil {
		return err
	}
	return nil
}

// VerifyNoDeadLinkTraversal asserts that no admitted connection uses a
// failed link — neither between consecutive queueing points nor on its
// final delivery (the receiving node does not queue, so the core route
// cannot show that traversal; it is recovered from ring geometry).
func (h *Harness) VerifyNoDeadLinkTraversal() error {
	failed := h.net.Core().FailedLinks()
	if len(failed) == 0 {
		return nil
	}
	down := make(map[core.Link]struct{}, len(failed))
	for _, l := range failed {
		down[l] = struct{}{}
	}
	for _, req := range h.net.Core().AdmittedRequests() {
		for i := 0; i+1 < len(req.Route); i++ {
			l := core.Link{From: req.Route[i].Switch, To: req.Route[i+1].Switch}
			if _, dead := down[l]; dead {
				return fmt.Errorf("faultinject: connection %q admitted over dead link %s", req.ID, l)
			}
		}
		if l, crosses := h.net.DeliveryLink(req.Route); crosses {
			if _, dead := down[l]; dead {
				return fmt.Errorf("faultinject: connection %q delivers its last hop over dead link %s", req.ID, l)
			}
		}
	}
	return nil
}

// VerifyGuarantees asserts the paper's admission invariants still hold:
// the per-queue audit is clean, every connection with a hard DelayBound
// keeps EndToEndGuaranteed within it, and no route exceeds the wrapped
// worst case of 2(R-1)-1 queueing points.
func (h *Harness) VerifyGuarantees() error {
	if v, err := h.net.Core().Audit(); err != nil {
		return fmt.Errorf("faultinject: audit: %w", err)
	} else if len(v) > 0 {
		return fmt.Errorf("faultinject: audit found %d violations: %+v", len(v), v)
	}
	maxHops := 2*(h.cfg.RingNodes-1) - 1
	for _, req := range h.net.Core().AdmittedRequests() {
		if len(req.Route) > maxHops {
			return fmt.Errorf("faultinject: connection %q has %d queueing points, wrapped max is %d",
				req.ID, len(req.Route), maxHops)
		}
		if req.DelayBound <= 0 {
			continue
		}
		sum := 0.0
		for _, hop := range req.Route {
			sw, ok := h.net.Core().Switch(hop.Switch)
			if !ok {
				return fmt.Errorf("faultinject: connection %q routes through unknown switch %q", req.ID, hop.Switch)
			}
			d, ok := sw.GuaranteedBoundAt(hop.Out, req.Priority)
			if !ok {
				return fmt.Errorf("faultinject: no guaranteed bound at %s:%d", hop.Switch, hop.Out)
			}
			sum += d
		}
		if sum > req.DelayBound {
			return fmt.Errorf("faultinject: connection %q guaranteed %g exceeds its hard bound %g",
				req.ID, sum, req.DelayBound)
		}
	}
	return nil
}

// Snapshot renders the final network state deterministically: admitted
// connections (with full routes) and failed links, both sorted.
func (h *Harness) Snapshot() string {
	reqs := h.net.Core().AdmittedRequests()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].ID < reqs[j].ID })
	var b strings.Builder
	for _, req := range reqs {
		fmt.Fprintf(&b, "%s d=%g:", req.ID, req.DelayBound)
		for _, hop := range req.Route {
			fmt.Fprintf(&b, " %s/%d/%d", hop.Switch, hop.In, hop.Out)
		}
		b.WriteByte('\n')
	}
	for _, l := range h.net.Core().FailedLinks() {
		fmt.Fprintf(&b, "down %s\n", l)
	}
	return b.String()
}
