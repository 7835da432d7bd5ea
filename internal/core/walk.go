package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"atmcac/internal/obs"
)

// Walk is one connection setup in flight along its route: the SETUP
// message of Section 4.1, carrying the request, the switches of the route
// and their fixed bounds D(j,p). Hop i is charged the CDV that the
// guarantees of hops 0..i-1 accumulate under the network's policy
// (Section 4.3), so every admission path — Setup, PrepareSetup, Install
// and the signaling fabric — makes the same per-hop decisions.
//
// A walk is owned by one goroutine at a time; the signaling fabric hands
// it from node to node with the SETUP and REJECT messages. It ends with
// Finish or Abort.
type Walk struct {
	n        *Network
	req      ConnRequest
	switches []*Switch
	// held counts the hops, from the first, that hold a reservation.
	held int
	// adm accumulates the admission: PerHopGuaranteed is resolved up
	// front, PerHopComputed grows by one bound per admitted hop.
	adm Admission
}

// Begin starts the walk of req: it validates the request, refuses a
// route over a failed link, reserves the connection ID and resolves the
// route's switches. The end-to-end budget is checked here, once, before
// any hop: the sum of the fixed per-hop bounds must not exceed a
// requested DelayBound. The caller owns the walk and must end it with
// Finish or Abort; on error nothing is held.
func (n *Network) Begin(ctx context.Context, req ConnRequest) (*Walk, error) {
	w := new(Walk)
	if err := n.begin(ctx, req, w); err != nil {
		return nil, err
	}
	e2e := HardCDV{}.Accumulate(w.adm.PerHopGuaranteed)
	if req.DelayBound > 0 && e2e > req.DelayBound {
		w.Abort()
		return nil, &RejectionError{
			Switch:   "(end-to-end)",
			Priority: req.Priority,
			Bound:    e2e,
			Limit:    req.DelayBound,
			Reason:   "sum of per-hop guarantees exceeds the requested delay bound",
			Kind:     CodeDelayBound,
		}
	}
	w.adm.EndToEndGuaranteed = e2e
	w.adm.PerHopComputed = make([]float64, 0, len(w.switches))
	return w, nil
}

// begin is Begin without the end-to-end budget check, which Install
// skips.
func (n *Network) begin(ctx context.Context, req ConnRequest, w *Walk) error {
	if err := req.validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: setup of %q abandoned: %w", req.ID, err)
	}
	if err := n.routeLinkDown(req.Route); err != nil {
		return fmt.Errorf("%w (setup of %q refused)", err, req.ID)
	}
	if err := n.reserveID(req.ID); err != nil {
		return err
	}
	switches, guaranteed, err := n.resolveRoute(req)
	if err != nil {
		n.abandonID(req.ID)
		return err
	}
	*w = Walk{n: n, req: req, switches: switches, adm: Admission{ID: req.ID, PerHopGuaranteed: guaranteed}}
	return nil
}

// Request returns the request the walk carries.
func (w *Walk) Request() ConnRequest { return w.req }

// hop is the request hop i makes of its switch: the connection clumped
// by the source CDV plus the accumulated guarantees upstream of hop i.
func (w *Walk) hop(i int) HopRequest {
	return HopRequest{
		Conn:     w.req.ID,
		Spec:     w.req.Spec,
		In:       w.req.Route[i].In,
		Out:      w.req.Route[i].Out,
		Priority: w.req.Priority,
		CDV:      w.req.SourceCDV + w.n.policy.Accumulate(w.adm.PerHopGuaranteed[:i]),
	}
}

// Admit runs the CAC check of the next hop at that hop's switch and, on
// success, records and returns its computed bound D'(j,p). A refused hop
// holds nothing; the walk can then only be unwound and aborted.
func (w *Walk) Admit() (float64, error) {
	sw := w.switches[w.held]
	var buf [stackPrios]float64
	d, err := sw.admit(w.hop(w.held), sw.levels(&buf))
	if err != nil {
		return 0, err
	}
	w.held++
	w.adm.PerHopComputed = append(w.adm.PerHopComputed, d)
	return d, nil
}

// Unwind releases the last admitted hop: the step a REJECT takes on its
// way back upstream. An unwound walk can only be aborted.
func (w *Walk) Unwind() {
	w.held--
	// Release cannot fail: this walk admitted the hop and still holds the
	// ID. A wrapped route's earlier visit to the same switch was released
	// with it and reports unknown-connection, which is ignored.
	_ = w.switches[w.held].Release(w.req.ID)
}

// Abort releases every hop the walk still holds, last first, and frees
// the connection ID.
func (w *Walk) Abort() {
	for w.held > 0 {
		w.Unwind()
	}
	w.n.abandonID(w.req.ID)
}

// Finish commits a walk whose every hop is admitted and returns the
// admission. Like CommitPrepared it re-checks the route's links inside
// the commit: a link that failed while the walk was in flight refuses the
// commit and releases the route.
func (w *Walk) Finish() (*Admission, error) {
	if err := w.n.CommitPrepared(w.req); err != nil {
		return nil, err
	}
	return w.admission(), nil
}

// admission completes the admission record with the end-to-end computed
// bound.
func (w *Walk) admission() *Admission {
	w.adm.EndToEndComputed = 0
	for _, d := range w.adm.PerHopComputed {
		w.adm.EndToEndComputed += d
	}
	return &w.adm
}

// admitAll admits every hop in route order. The context is checked before
// each hop, and each hop's check is traced with its slack. Any failure
// aborts the walk.
func (w *Walk) admitAll(ctx context.Context, tr obs.Tracer) error {
	for i := range w.switches {
		if err := ctx.Err(); err != nil {
			w.Abort()
			return fmt.Errorf("core: setup of %q abandoned at hop %d: %w", w.req.ID, i, err)
		}
		hopStart := time.Now()
		d, err := w.Admit()
		if tr != nil {
			ev := obs.Event{
				Kind:     obs.KindHopCheck,
				Conn:     string(w.req.ID),
				Switch:   w.req.Route[i].Switch,
				Duration: time.Since(hopStart),
			}
			if err != nil {
				ev.Outcome = obs.OutcomeRejected
				if !errors.Is(err, ErrRejected) {
					ev.Outcome = obs.OutcomeError
				}
				ev.Code = ErrorCode(err)
			} else {
				// Slack is how far the computed bound D'(j,p) sat below
				// the guarantee D(j,p) at admission, in cell times.
				ev.Outcome = obs.OutcomeAccepted
				ev.Slack = w.adm.PerHopGuaranteed[i] - d
			}
			tr.Trace(ev)
		}
		if err != nil {
			w.Abort()
			return err
		}
	}
	return nil
}
