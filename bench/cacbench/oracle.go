package main

import (
	"context"
	"errors"
	"fmt"
	"math"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/wire"
	wl "atmcac/internal/workload"
)

// boundTolerance is how far, in cell times, a bound recomputed serially
// in-process may sit from the fleet's: sums run in map order, so the
// last float bits differ.
const boundTolerance = 1e-6

// oracleRoutes is how many seeded routes the end-of-run bound comparison
// queries.
const oracleRoutes = 64

// judge checks one answer against what the workload's construction
// guarantees: every generated setup is feasible and must be accepted
// within its guarantee, every refused one must come back as a CAC
// rejection carrying the delay-bound code, and reads must be consistent
// with the fleet shape. A refusal-as-designed is not an error here; a
// wrong accept or a wrong refusal is.
func judge(o op, a answer, residents int) error {
	if o.kind == opRefused {
		var re *wire.RemoteError
		switch {
		case a.err == nil:
			return fmt.Errorf("infeasible setup %s was accepted", o.req.ID)
		case !errors.As(a.err, &re) || !errors.Is(a.err, core.ErrRejected):
			return fmt.Errorf("infeasible setup %s failed instead of being refused: %w", o.req.ID, a.err)
		case re.Code != core.CodeDelayBound:
			return fmt.Errorf("infeasible setup %s refused with code %q, want %q", o.req.ID, re.Code, core.CodeDelayBound)
		}
		return nil
	}
	if a.err != nil {
		if errors.Is(a.err, context.DeadlineExceeded) {
			return fmt.Errorf("timed out after %s", opTimeout)
		}
		return a.err
	}
	switch o.kind {
	case opSetup:
		switch {
		case a.adm.ID != o.req.ID:
			return fmt.Errorf("admission names %q, asked for %q", a.adm.ID, o.req.ID)
		case a.adm.EndToEndGuaranteed != guaranteedSum(o.req.Route, o.req.Priority):
			return fmt.Errorf("guaranteed bound %g, fleet shape says %g", a.adm.EndToEndGuaranteed, guaranteedSum(o.req.Route, o.req.Priority))
		case !(a.adm.EndToEndComputed >= 0 && a.adm.EndToEndComputed <= a.adm.EndToEndGuaranteed):
			return fmt.Errorf("accepted with computed bound %g over the guarantee %g", a.adm.EndToEndComputed, a.adm.EndToEndGuaranteed)
		}
	case opBound:
		if !(a.bound >= 0 && a.bound <= guaranteedSum(o.route, o.prio)) {
			return fmt.Errorf("route bound %g outside [0, %g]", a.bound, guaranteedSum(o.route, o.prio))
		}
	case opInspect:
		for _, p := range a.ports {
			if p.Switch != o.sw {
				return fmt.Errorf("inspect of %s reported switch %s", o.sw, p.Switch)
			}
			if p.Unstable || p.Bound > p.Limit {
				return fmt.Errorf("inspect of %s: port %d priority %d over budget (%g > %g)", o.sw, p.Out, p.Priority, p.Bound, p.Limit)
			}
		}
	case opList:
		if len(a.ids) < residents {
			return fmt.Errorf("list returned %d connections, %d residents are admitted", len(a.ids), residents)
		}
	}
	return nil
}

// sameIDs reports how two connection ID sets differ; nil when equal.
func sameIDs(got []core.ConnID, want []core.ConnRequest) error {
	have := make(map[core.ConnID]bool, len(got))
	for _, id := range got {
		have[id] = true
	}
	missing := 0
	for _, req := range want {
		if !have[req.ID] {
			missing++
		}
		delete(have, req.ID)
	}
	if missing > 0 || len(have) > 0 || len(got) != len(want) {
		return fmt.Errorf("fleet lists %d connections, client holds %d acked (%d missing, %d unexpected)",
			len(got), len(want), missing, len(have))
	}
	return nil
}

// rebuild loads want into a fresh in-process network of the workload's
// shape and audits it: the serial from-scratch reference the fleet's
// state is compared against. With fixed per-hop guarantees admissibility
// is order-independent (core.Network.Install), so installing the acked
// set and auditing it once decides the same thing as replaying every
// acked setup through the CAC check one at a time, without paying
// O(resident) per connection.
func rebuild(w *workloadDef, want []core.ConnRequest) (*rtnet.Network, error) {
	ref, err := w.topology()
	if err != nil {
		return nil, err
	}
	for _, req := range want {
		if err := ref.Core().Install(req); err != nil {
			return nil, fmt.Errorf("serial rebuild of %s: %w", req.ID, err)
		}
	}
	violations, err := ref.Audit()
	if err != nil {
		return nil, err
	}
	if len(violations) > 0 {
		return nil, fmt.Errorf("the fleet admitted a set the serial rebuild finds inadmissible: %v", violations[0])
	}
	return ref, nil
}

// boundQuery asks the fleet for the current bound of a route. A sharded
// fleet's front door does not answer bound, so the route is cut at the
// shard boundary and each owner is asked for its hops.
type boundQuery func(ctx context.Context, route core.Route, p core.Priority) (float64, error)

// compareBounds checks that the fleet and the serial reference compute
// the same RouteBound on oracleRoutes seeded routes.
func compareBounds(ctx context.Context, seed uint64, w *workloadDef, ref *rtnet.Network, ask boundQuery) error {
	rng := wl.NewRNG(seed).Split("oracle-routes")
	for i := 0; i < oracleRoutes; i++ {
		route, err := ref.SegmentRoute(rng.Intn(w.ringNodes), rng.Intn(terminalsPerNode), 1+rng.Intn(5))
		if err != nil {
			return err
		}
		p := core.Priority(1 + rng.Intn(2))
		want, err := ref.Core().RouteBound(route, p)
		if err != nil {
			return err
		}
		got, err := ask(ctx, route, p)
		if err != nil {
			return fmt.Errorf("bound query %d: %w", i, err)
		}
		if math.Abs(got-want) > boundTolerance {
			return fmt.Errorf("route %d priority %d: fleet computes bound %.9g, serial rebuild %.9g", i, p, got, want)
		}
	}
	return nil
}
