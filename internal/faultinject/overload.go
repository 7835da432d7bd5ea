// Overload injection: a deterministic harness for the control-plane
// overload path. It runs a real wire server (TCP, newline-delimited JSON)
// over an RTnet ring with an overload limiter on a manual clock, and
// drives it with scripted arrival bursts — interleaved read / low-priority
// / high-priority traffic, link failures mid-storm, explicit clock
// advances for token refill. Because arrivals are sequential and the
// clock never moves on its own, the shed pattern of a script is exactly
// reproducible, so tests can assert the degradation order itself, not
// just coarse aggregates.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/overload"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// OverloadKind enumerates overload-script events.
type OverloadKind string

const (
	// OvSetup requests a broadcast connection (wrapped when a link is
	// down). Priority selects the shedding class: 1 is setup-high, >1 is
	// setup-low.
	OvSetup OverloadKind = "setup"
	// OvRead issues a read-only query (list) — the first class to shed.
	OvRead OverloadKind = "read"
	// OvTeardown releases a connection; recovery class, never shed.
	OvTeardown OverloadKind = "teardown"
	// OvFail fails primary ring link Node -> Node+1 mid-storm; recovery
	// class, never shed.
	OvFail OverloadKind = "fail"
	// OvRestore clears the failed link; recovery class, never shed.
	OvRestore OverloadKind = "restore"
	// OvAdvance moves the limiter clock forward by D, refilling tokens.
	OvAdvance OverloadKind = "advance"
)

// OverloadEvent is one scripted arrival or clock step.
type OverloadEvent struct {
	Kind OverloadKind

	// ID, Origin, Terminal, PCR, Priority, DelayBound shape an OvSetup;
	// ID also names an OvTeardown. Priority 0 means 1.
	ID         core.ConnID
	Origin     int
	Terminal   int
	PCR        float64
	Priority   core.Priority
	DelayBound float64

	// Node identifies primary link Node -> Node+1 for OvFail/OvRestore.
	Node int

	// D is the clock advance for OvAdvance.
	D time.Duration
}

// OverloadScript is a deterministic overload scenario.
type OverloadScript []OverloadEvent

// OverloadOutcome records how the server answered one event.
type OverloadOutcome struct {
	Event OverloadEvent
	// Shed is true when the server answered with a typed overloaded
	// response; RetryAfter is its hint.
	Shed       bool
	RetryAfter time.Duration
	// Err is any non-shed failure (e.g. a genuine CAC rejection).
	Err error
	// Report carries the re-admission outcomes of an OvFail.
	Report *wire.FailoverReport
}

// OverloadHarness drives a live wire server through an overload script.
type OverloadHarness struct {
	cfg        rtnet.Config
	net        *rtnet.Network
	clock      *overload.ManualClock
	limiter    *overload.Limiter
	srv        *wire.Server
	client     *wire.Client
	done       chan struct{}
	obs        *procObs
	failedFrom int
	outcomes   []OverloadOutcome
	// setupsUp counts connections the script successfully established and
	// has not torn down — the accounting oracle for Verify.
	setupsUp int
}

// NewOverload starts a wire server over a fresh ring with the given
// limiter shape (its Now is replaced by the harness manual clock) on an
// ephemeral loopback port. Callers must Close the harness.
func NewOverload(cfg rtnet.Config, lim overload.LimiterConfig) (*OverloadHarness, error) {
	rt, err := rtnet.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &OverloadHarness{
		cfg:        cfg,
		net:        rt,
		clock:      overload.NewManualClock(),
		failedFrom: -1,
		done:       make(chan struct{}),
	}
	lim.Now = h.clock.Now
	h.limiter = overload.NewLimiter(lim)
	h.srv = wire.NewServer(rt.Core())
	h.srv.SetLimiter(h.limiter)
	h.srv.SetFailoverHandler(failover.Handler(rt))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.obs = newProcObs()
	h.srv.SetObservability(h.obs.reg, h.obs.tracer)
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(l)
	}()
	client, err := wire.Dial(l.Addr().String())
	if err != nil {
		_ = h.srv.Close()
		<-h.done
		h.obs.close()
		return nil, err
	}
	h.client = client
	return h, nil
}

// Close tears the client and server down.
func (h *OverloadHarness) Close() error {
	cerr := h.client.Close()
	serr := h.srv.Close()
	<-h.done
	h.obs.close()
	if serr != nil && serr != wire.ErrServerClosed {
		return serr
	}
	return cerr
}

// Clock exposes the limiter's manual clock.
func (h *OverloadHarness) Clock() *overload.ManualClock { return h.clock }

// Limiter exposes the installed limiter, e.g. for HighPriorityFloor.
func (h *OverloadHarness) Limiter() *overload.Limiter { return h.limiter }

// Outcomes returns the recorded event outcomes so far.
func (h *OverloadHarness) Outcomes() []OverloadOutcome { return h.outcomes }

// Apply executes one event against the live server. The returned error is
// a harness/script error; shed responses and CAC rejections land in the
// Outcome instead.
func (h *OverloadHarness) Apply(ev OverloadEvent) (OverloadOutcome, error) {
	out := OverloadOutcome{Event: ev}
	switch ev.Kind {
	case OvSetup:
		prio := ev.Priority
		if prio == 0 {
			prio = 1
		}
		var route core.Route
		var err error
		if h.failedFrom < 0 {
			route, err = h.net.BroadcastRoute(ev.Origin, ev.Terminal)
		} else {
			route, err = h.net.WrappedBroadcastRoute(ev.Origin, ev.Terminal, h.failedFrom)
		}
		if err != nil {
			return out, err
		}
		_, err = h.client.Setup(context.Background(), core.ConnRequest{
			ID:         ev.ID,
			Spec:       traffic.CBR(ev.PCR),
			Priority:   prio,
			Route:      route,
			DelayBound: ev.DelayBound,
		})
		h.recordResult(&out, err)
		if !out.Shed && out.Err == nil {
			h.setupsUp++
		}
	case OvRead:
		_, err := h.client.List(context.Background())
		h.recordResult(&out, err)
	case OvTeardown:
		err := h.client.Teardown(context.Background(), ev.ID)
		h.recordResult(&out, err)
		if !out.Shed && out.Err == nil {
			h.setupsUp--
		}
	case OvFail:
		if h.failedFrom >= 0 && h.failedFrom != ev.Node {
			return out, fmt.Errorf("%w: link %d->%d failed while %d->%d is down (wrap heals one failure)",
				ErrScript, ev.Node, ev.Node+1, h.failedFrom, h.failedFrom+1)
		}
		from := rtnet.SwitchName(ev.Node)
		to := rtnet.SwitchName((ev.Node + 1) % h.cfg.RingNodes)
		rep, err := h.client.FailLink(context.Background(), from, to)
		h.recordResult(&out, err)
		out.Report = rep
		if !out.Shed && out.Err == nil {
			h.failedFrom = ev.Node
			for _, o := range rep.Outcomes {
				if !o.Readmitted {
					h.setupsUp--
				}
			}
		}
	case OvRestore:
		if h.failedFrom != ev.Node {
			return out, fmt.Errorf("%w: restore of %d->%d but failed link is %d",
				ErrScript, ev.Node, ev.Node+1, h.failedFrom)
		}
		from := rtnet.SwitchName(ev.Node)
		to := rtnet.SwitchName((ev.Node + 1) % h.cfg.RingNodes)
		err := h.client.RestoreLink(context.Background(), from, to)
		h.recordResult(&out, err)
		if !out.Shed && out.Err == nil {
			h.failedFrom = -1
		}
	case OvAdvance:
		h.clock.Advance(ev.D)
	default:
		return out, fmt.Errorf("%w: unknown overload kind %q", ErrScript, ev.Kind)
	}
	h.outcomes = append(h.outcomes, out)
	return out, nil
}

// recordResult splits a client error into the typed shed outcome and
// everything else.
func (h *OverloadHarness) recordResult(out *OverloadOutcome, err error) {
	if err == nil {
		return
	}
	var oe *wire.OverloadError
	if errors.As(err, &oe) {
		out.Shed = true
		out.RetryAfter = oe.RetryAfter
		return
	}
	out.Err = err
}

// Run applies the whole script, then verifies the degradation invariants.
func (h *OverloadHarness) Run(script OverloadScript) ([]OverloadOutcome, error) {
	for i, ev := range script {
		if _, err := h.Apply(ev); err != nil {
			return h.outcomes, fmt.Errorf("faultinject: overload event %d (%s): %w", i, ev.Kind, err)
		}
	}
	return h.outcomes, h.Verify()
}

// Verify checks the overload invariants on the current state:
//
//   - every shed response is typed and carries a positive retry-after hint;
//   - recovery-class events (teardown, fail, restore) were never shed;
//   - the server's admitted-connection count equals the script's tally of
//     successful setups minus teardowns and failover losses — shedding and
//     retrying lost or duplicated nothing;
//   - the paper's admission invariants still hold (clean audit, hard
//     delay bounds kept, no dead-link traversal) — overload control
//     degraded throughput, never guarantees.
func (h *OverloadHarness) Verify() error {
	for i, out := range h.outcomes {
		if !out.Shed {
			continue
		}
		if out.RetryAfter <= 0 {
			return fmt.Errorf("faultinject: event %d (%s) shed without a retry-after hint", i, out.Event.Kind)
		}
		switch out.Event.Kind {
		case OvTeardown, OvFail, OvRestore:
			return fmt.Errorf("faultinject: recovery event %d (%s) was shed — degradation order violated",
				i, out.Event.Kind)
		}
	}
	up := len(h.net.Core().Connections())
	if up != h.setupsUp {
		return fmt.Errorf("faultinject: server carries %d connections, script established %d — admissions lost or duplicated",
			up, h.setupsUp)
	}
	inner := &Harness{cfg: h.cfg, net: h.net, failedFrom: h.failedFrom}
	return inner.Verify()
}
