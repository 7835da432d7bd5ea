// Package failover re-admits connections evicted by a ring link failure
// over the wrapped (degraded) topology of paper Section 5.
//
// When a primary ring link fails, core.Network.FailLink atomically evicts
// every admitted connection traversing it and returns their requests. The
// Engine maps each evicted healthy-ring route back to ring terms
// (rtnet.RouteEndpoints), recomputes the equivalent wrapped route
// (rtnet.WrappedBroadcastRoute / WrappedRouteTo), and replays the full
// Algorithm 4.1 admission check over the longer route. Degradation is
// never silent: the original DelayBound travels with the re-admission
// request, so a connection whose hard guarantee cannot be met on the
// wrapped ring is rejected — with the reason recorded — rather than
// re-admitted with a weaker bound.
package failover

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/wire"
)

// Options tunes the re-admission loop.
type Options struct {
	// MaxAttempts bounds how often a CAC-rejected connection is retried
	// (capacity may free up as other teardowns complete). Default 3.
	MaxAttempts int
	// Backoff is the sleep before the first retry; it doubles per attempt.
	// Default 10ms.
	Backoff time.Duration
	// Sleep is called between attempts; tests inject a recorder. Default
	// time.Sleep.
	Sleep func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Engine re-admits evicted connections over the wrapped ring.
type Engine struct {
	net *rtnet.Network
	opt Options
}

// New builds an Engine over the live RTnet network.
func New(net *rtnet.Network, opt Options) *Engine {
	return &Engine{net: net, opt: opt.withDefaults()}
}

// Outcome is the per-connection result of a re-admission pass. Exactly one
// of Readmitted or Err is meaningful: a connection is either carried again
// (over Route, with its original guarantees) or rejected-degraded with the
// reason preserved.
type Outcome struct {
	ID         core.ConnID
	Readmitted bool
	// Route is the wrapped route the connection was re-admitted over.
	Route core.Route
	// Attempts is how many Setup calls were made (>= 1 unless the route
	// could not even be recomputed).
	Attempts int
	// Err is the final error for connections that were not re-admitted.
	Err error
}

// Report aggregates one failure-handling pass.
type Report struct {
	// FailedLink is the directed primary link that went down.
	FailedLink core.Link
	// Outcomes holds one entry per evicted connection, in ID order.
	Outcomes []Outcome
}

// Readmitted counts connections carried again after the failure.
func (r Report) Readmitted() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Readmitted {
			n++
		}
	}
	return n
}

// Rejected counts connections that could not be re-admitted in degraded
// mode.
func (r Report) Rejected() int { return len(r.Outcomes) - r.Readmitted() }

// Err summarises the pass: nil when every evicted connection was
// re-admitted, otherwise an error naming the rejected connections.
func (r Report) Err() error {
	var ids []core.ConnID
	for _, o := range r.Outcomes {
		if !o.Readmitted {
			ids = append(ids, o.ID)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	return fmt.Errorf("failover: %d of %d connections not re-admitted in degraded mode: %v",
		len(ids), len(r.Outcomes), ids)
}

// HandlePrimaryLinkFailure fails primary ring link from -> from+1 on the
// live network and runs the re-admission pass for everything it evicted.
// The error is non-nil only when the failure event itself is invalid
// (unknown node, already-failed link is fine); per-connection rejections
// are reported in the Report, not as an error.
func (e *Engine) HandlePrimaryLinkFailure(from int) (Report, error) {
	link, err := e.net.PrimaryLink(from)
	if err != nil {
		return Report{}, err
	}
	evicted, err := e.net.FailPrimaryLink(from)
	if err != nil {
		return Report{}, err
	}
	return e.Readmit(evicted, from, link), nil
}

// Readmit re-admits the evicted connections over wrapped routes avoiding
// the failed primary link failedFrom -> failedFrom+1. Connections are
// processed in ID order so replays are deterministic; CAC rejections are
// retried with exponential backoff (capacity can free up while other
// evictions tear down), every other error is final.
func (e *Engine) Readmit(evicted []core.ConnRequest, failedFrom int, link core.Link) Report {
	reqs := append([]core.ConnRequest(nil), evicted...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].ID < reqs[j].ID })
	rep := Report{FailedLink: link, Outcomes: make([]Outcome, 0, len(reqs))}
	for _, req := range reqs {
		rep.Outcomes = append(rep.Outcomes, e.readmitOne(req, failedFrom))
	}
	return rep
}

// Handler adapts the engine to the wire server's fail-link operation:
// after the server has failed the link from->to and evicted the
// connections traversing it, each is re-admitted over the wrapped route
// through the full CAC check, once. The server runs the handler under
// its exclusive lock, where nothing can free capacity and admission is
// deterministic, so a retry could only repeat the refusal while every
// other operation waits. A link that is not a primary ring link has no
// wrapped route, so every connection it evicted stays down with that
// error.
func Handler(rt *rtnet.Network) wire.FailoverHandler {
	eng := New(rt, Options{MaxAttempts: 1})
	return func(from, to string, evicted []core.ConnRequest) []wire.ReadmitOutcome {
		node, err := PrimaryFrom(rt, from, to)
		if err != nil {
			outs := make([]wire.ReadmitOutcome, 0, len(evicted))
			for _, r := range evicted {
				outs = append(outs, wire.ReadmitOutcome{ID: r.ID, Error: err.Error()})
			}
			return outs
		}
		rep := eng.Readmit(evicted, node, core.Link{From: from, To: to})
		outs := make([]wire.ReadmitOutcome, 0, len(rep.Outcomes))
		for _, o := range rep.Outcomes {
			out := wire.ReadmitOutcome{ID: o.ID, Readmitted: o.Readmitted, Attempts: o.Attempts, Hops: len(o.Route)}
			if o.Err != nil {
				out.Error = o.Err.Error()
			}
			outs = append(outs, out)
		}
		return outs
	}
}

// PrimaryFrom returns the ring node transmitting the primary link
// from->to, or an error when from->to is not a primary ring link.
func PrimaryFrom(rt *rtnet.Network, from, to string) (int, error) {
	node, err := rtnet.NodeIndex(from)
	if err != nil {
		return 0, err
	}
	if l, lerr := rt.PrimaryLink(node); lerr != nil || l.To != to {
		return 0, fmt.Errorf("%s->%s is not a primary ring link; wrapped re-admission unavailable", from, to)
	}
	return node, nil
}

// readmitOne maps one evicted healthy-ring request to its wrapped
// equivalent and replays admission.
func (e *Engine) readmitOne(req core.ConnRequest, failedFrom int) Outcome {
	out := Outcome{ID: req.ID}
	info, err := e.net.RouteEndpoints(req.Route)
	if err != nil {
		out.Err = fmt.Errorf("failover: cannot classify route of %q: %w", req.ID, err)
		return out
	}
	var route core.Route
	if info.Broadcast {
		route, err = e.net.WrappedBroadcastRoute(info.Origin, info.Terminal, failedFrom)
	} else {
		route, err = e.net.WrappedRouteTo(info.Origin, info.Terminal, info.Dest, failedFrom)
	}
	if err != nil {
		out.Err = fmt.Errorf("failover: no wrapped route for %q: %w", req.ID, err)
		return out
	}
	// Everything but the route — ID, traffic spec, priority, and crucially
	// the hard DelayBound — is preserved, so Algorithm 4.1 decides whether
	// the original guarantee still holds over the longer route.
	req.Route = route
	backoff := e.opt.Backoff
	for attempt := 1; ; attempt++ {
		out.Attempts = attempt
		_, err := e.net.Core().Setup(context.Background(), req)
		if err == nil {
			out.Readmitted = true
			out.Route = route
			return out
		}
		out.Err = err
		if !errors.Is(err, core.ErrRejected) || attempt >= e.opt.MaxAttempts {
			return out
		}
		e.opt.Sleep(backoff)
		backoff *= 2
	}
}
