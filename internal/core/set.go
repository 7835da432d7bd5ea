package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"atmcac/internal/bitstream"
	"atmcac/internal/traffic"
)

// Set admission.
//
// A known set of connections — a batch, a recovered state, a planned
// workload, a replicated snapshot — is admitted in one pass: every
// switch's successor state is built once from the switch's whole run of
// hops (one k-way Sum per touched cell, one re-derivation per touched
// queue), Algorithm 4.1 runs once per touched queue in the state that holds
// the whole set, and the successors are published together. Adding a
// connection never lowers a computed bound (TestPropAdmitNeverLowersBounds)
// and each hop's CDV charge depends on configuration only, so the one check
// passes exactly when admitting the members one by one, in request order,
// would accept every one of them. When it does not, the set publishes
// nothing and the members are admitted one by one, so every per-member
// result is what a sequential run returns. The one pass therefore pays
// off only for a set whose every member is admissible, as a populate, a
// recovery into the configuration that admitted the set or a replicated
// snapshot is; a set with one inadmissible member costs its build and
// check on top of the one-by-one admission (BenchmarkRefusedSet in wire).

// SetupSet admits reqs as Setup would, one after another in order, and
// returns each request's admission or error. Each request first passes
// Setup's own checks — validation, context, failed links, duplicate IDs
// (an earlier member of the set counts), route and end-to-end budget — and
// one that fails them gets Setup's error and stays out of the set. The
// rest are admitted as one set. The bounds an admission reports are those
// of the state the whole set commits: at least what one-by-one admission
// reports, and at most the guarantee. The tracer sees one setup event per
// request and one hop-check event per admitted hop, as from Setup.
func (n *Network) SetupSet(ctx context.Context, reqs []ConnRequest) ([]*Admission, []error) {
	if adms, errs, ok := n.admitSet(ctx, reqs, true); ok {
		return adms, errs
	}
	adms, errs := make([]*Admission, len(reqs)), make([]error, len(reqs))
	for i, req := range reqs {
		adms[i], errs[i] = n.Setup(ctx, req)
	}
	return adms, errs
}

// InstallSet is the unchecked form of SetupSet: it loads reqs as Install
// would, one after another in order, without the CAC check, and returns
// each request's error.
func (n *Network) InstallSet(reqs []ConnRequest) []error {
	if _, errs, ok := n.admitSet(context.Background(), reqs, false); ok {
		return errs
	}
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		errs[i] = n.Install(req)
	}
	return errs
}

// setHop is hop h of set member m, at one switch.
type setHop struct {
	m, h int
	conn ConnID
	e    entry
}

// arrivalKey names a hop's arrival envelope: the source envelope clumped
// by the CDV charged upstream.
type arrivalKey struct {
	spec traffic.Spec
	cdv  float64
}

// admitSet admits reqs as one set, checked or not. It reports ok false,
// with nothing published, traced or held, when the set build or check
// fails — the caller then admits the members one by one.
func (n *Network) admitSet(ctx context.Context, reqs []ConnRequest, check bool) ([]*Admission, []error, bool) {
	if len(reqs) == 0 {
		return nil, nil, true
	}
	start := time.Now()
	errs := make([]error, len(reqs))
	walks := make([]Walk, len(reqs))
	var members []int // indexes of the requests that passed Begin's checks
	for i, req := range reqs {
		err := n.begin(ctx, req, &walks[i])
		if err == nil && check {
			if err = walks[i].budget(); err != nil {
				walks[i].Abort()
			}
		}
		if errors.Is(err, ErrDuplicateConn) && slices.ContainsFunc(members, func(m int) bool { return reqs[m].ID == req.ID }) {
			// Admitted one by one, the earlier member would be admitted.
			err = fmt.Errorf("%w: %q", ErrDuplicateConn, req.ID)
		}
		if err != nil {
			errs[i] = err
			continue
		}
		members = append(members, i)
	}
	abort := func() ([]*Admission, []error, bool) {
		for _, i := range members {
			walks[i].Abort()
		}
		return nil, nil, false
	}

	// Each member's hops, grouped by switch in request and route order.
	hops, total := make(map[*Switch]int), 0
	for _, i := range members {
		for _, sw := range walks[i].switches {
			hops[sw]++
			total++
		}
	}
	runs := make(map[*Switch][]setHop, len(hops))
	for sw, n := range hops {
		runs[sw] = make([]setHop, 0, n)
	}
	arrivals := make(map[arrivalKey]bitstream.Stream)
	computed, flat := make([][]float64, len(reqs)), make([]float64, total)
	for _, i := range members {
		w := &walks[i]
		computed[i], flat = flat[:len(w.switches):len(w.switches)], flat[len(w.switches):]
		for h, sw := range w.switches {
			hop := w.hop(h)
			key := arrivalKey{hop.Spec, hop.CDV}
			arr, ok := arrivals[key]
			if !ok {
				src, err := hop.Spec.Stream()
				if err == nil {
					arr, err = src.Delayed(hop.CDV)
				}
				if err != nil {
					return abort()
				}
				arrivals[key] = arr
			}
			k, err := sw.prioIndex(hop.Priority)
			if err != nil {
				return abort()
			}
			runs[sw] = append(runs[sw], setHop{m: i, h: h, conn: hop.Conn,
				e: entry{in: hop.In, out: hop.Out, prio: k, arrival: arr}})
		}
	}
	if err := ctx.Err(); err != nil {
		return abort()
	}

	// Build and check every successor under the writer locks, taken in
	// name order, then publish them all.
	switches := make([]*Switch, 0, len(runs))
	for sw := range runs {
		switches = append(switches, sw)
	}
	slices.SortFunc(switches, func(a, b *Switch) int { return cmp.Compare(a.cfg.Name, b.cfg.Name) })
	for _, sw := range switches {
		sw.mu.Lock()
	}
	nexts := make([]*switchState, len(switches))
	var err error
	for s, sw := range switches {
		if nexts[s], err = sw.extend(runs[sw], check, computed); err != nil {
			break
		}
	}
	if err == nil {
		for s, sw := range switches {
			sw.publish(nexts[s], runs[sw])
		}
	}
	for _, sw := range switches {
		sw.mu.Unlock()
	}
	if err != nil {
		return abort()
	}

	// Commit the IDs in one section, each re-checking its route's links
	// as commitID does; a member whose link failed meanwhile is released.
	var down []int
	n.connMu.Lock()
	for _, i := range members {
		if errs[i] = n.commitLocked(reqs[i]); errs[i] != nil {
			down = append(down, i)
		}
	}
	n.connMu.Unlock()
	for _, i := range down {
		_ = n.releaseRoute(reqs[i].ID, reqs[i].Route)
	}

	var adms []*Admission
	if check {
		adms = make([]*Admission, len(reqs))
		for _, i := range members {
			if errs[i] == nil {
				walks[i].adm.PerHopComputed = computed[i]
				adms[i] = walks[i].admission()
			}
		}
		n.traceSet(reqs, walks, computed, errs, time.Since(start))
	}
	return adms, errs, true
}

// traceSet emits what Setup would for each request of a committed set:
// its hop checks, if it was admitted at every hop, then its setup
// decision. Each request is timed at an equal share of the set.
func (n *Network) traceSet(reqs []ConnRequest, walks []Walk, computed [][]float64, errs []error, took time.Duration) {
	tr := n.getTracer()
	if tr == nil {
		return
	}
	share := took / time.Duration(len(reqs))
	for i, req := range reqs {
		for h, d := range computed[i] {
			tr.Trace(walks[i].hopEvent(h, d, nil, share/time.Duration(len(computed[i]))))
		}
		tr.Trace(setupEvent(req, errs[i], share))
	}
}

// extend builds the successor of the published state that carries run,
// the hops of a set's members at this switch in request and route order;
// the caller holds mu. With check it runs Algorithm 4.1 on every queue at
// or below the most urgent priority the run touches at each of its ports,
// and writes each hop's computed bound into computed[m][h]. A connection
// may cross the switch twice, but never twice through the same port pair.
func (sw *Switch) extend(run []setHop, check bool, computed [][]float64) (*switchState, error) {
	st := sw.state.Load()
	// The run's hops in compareEntries order, each cell's in run order; a
	// member's hops are adjacent in the run, so a member's second hop
	// through one port pair follows its first.
	order := make([]int, len(run))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareEntries(run[a].e, run[b].e) })
	es := make([]entry, len(order))
	conns := st.conns
	for i, o := range order {
		r := &run[o]
		es[i] = r.e
		if i > 0 && run[order[i-1]].m == r.m && es[i-1].in == r.e.in && es[i-1].out == r.e.out {
			return nil, fmt.Errorf("%w: %q at switch %q ports %d->%d", ErrDuplicateConn, r.conn, sw.cfg.Name, r.e.in, r.e.out)
		}
	}
	for i := range run {
		r := &run[i]
		hs := sw.index[r.conn]
		if slices.ContainsFunc(hs, func(h entry) bool { return h.in == r.e.in && h.out == r.e.out }) {
			return nil, fmt.Errorf("%w: %q at switch %q ports %d->%d", ErrDuplicateConn, r.conn, sw.cfg.Name, r.e.in, r.e.out)
		}
		if len(hs) == 0 && (i == 0 || run[i-1].m != r.m) {
			conns++
		}
	}
	ports, err := sw.edit(st.ports, es, true)
	if err != nil {
		return nil, err
	}
	next := &switchState{conns: conns, ports: ports}
	if !check {
		return next, nil
	}
	var buf [stackPrios]float64
	bounds := sw.levels(&buf)
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].out == es[i].out {
			j++
		}
		top := es[i]
		for _, e := range es[i:j] {
			top.prio = min(top.prio, e.prio)
		}
		if _, err := sw.verify(next, top, bounds); err != nil {
			return nil, err
		}
		for _, o := range order[i:j] {
			computed[run[o].m][run[o].h] = bounds[run[o].e.prio]
		}
		i = j
	}
	return next, nil
}

// publish stores a successor extend built and indexes its run's hops; the
// caller holds mu.
func (sw *Switch) publish(next *switchState, run []setHop) {
	for i := range run {
		r := &run[i]
		sw.index[r.conn] = append(slices.Clip(sw.index[r.conn]), r.e)
	}
	sw.state.Store(next)
}
