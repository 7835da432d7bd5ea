package core

import "context"

// Two-phase admission hooks.
//
// A multi-hop setup that spans control-plane shards cannot use Setup
// directly: the coordinator must be able to hold a route's reservations
// on one shard while it negotiates with the others, and later turn the
// hold into an admission or release it without ever exposing a
// half-committed connection. PrepareSetup is the walk of Setup without
// its commit; CommitPrepared and AbortPrepared are the walk's commit and
// abort, keyed by the request because the hold outlives the call that
// made it. A prepared hold has the same capacity footprint as an
// in-flight setup: the hop reservations are real (they consume bandwidth
// and block competing admissions) but the ID stays pending — invisible to
// Connections, AdmittedRequest, and Teardown until committed.

// PrepareSetup runs phase 1 of a two-phase admission: it validates the
// request, claims its ID, and reserves every hop of the route through
// the normal CAC check, but stops short of committing the connection.
// On success the ID is held pending and the caller owns the hold; it
// MUST resolve it with CommitPrepared or AbortPrepared (an orphaned
// hold strands bandwidth until an expiry reaper aborts it). On error
// nothing is held.
func (n *Network) PrepareSetup(ctx context.Context, req ConnRequest) (*Admission, error) {
	w, err := n.Begin(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := w.admitAll(ctx, n.getTracer()); err != nil {
		return nil, err
	}
	return w.admission(), nil
}

// CommitPrepared runs phase 2: it promotes a hold created by
// PrepareSetup(req) into an admitted connection. Like the single-shard
// commit it re-validates link state inside the critical section; if a
// route link failed while the hold was pending the commit is refused
// and the hold is fully released (hop reservations returned, ID freed),
// so a failed commit never leaves residue.
func (n *Network) CommitPrepared(req ConnRequest) error {
	if err := n.commitID(req); err != nil {
		_ = n.releaseRoute(req.ID, req.Route)
		return err
	}
	return nil
}

// AbortPrepared releases a hold created by PrepareSetup(req): every hop
// reservation is returned and the ID becomes free again. It is the
// expiry hook the orphan reaper uses, and it is safe to call with the
// same req at most once per successful PrepareSetup.
func (n *Network) AbortPrepared(req ConnRequest) error {
	err := n.releaseRoute(req.ID, req.Route)
	n.abandonID(req.ID)
	return err
}
