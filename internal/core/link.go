package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"atmcac/internal/obs"
)

// ErrLinkDown reports an operation on a route that traverses a failed
// inter-switch link.
var ErrLinkDown = errors.New("core: link down")

// Link identifies a directed inter-switch link by the switches at its two
// ends. A route traverses the link when it queues at From and next at To.
type Link struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// String renders the link for errors and reports.
func (l Link) String() string { return l.From + "->" + l.To }

// LinkMapper enumerates every directed link a route traverses. The default
// maps consecutive queueing points: the cell leaves hop i's switch and
// arrives at hop i+1's switch over the link between them. A topology layer
// that knows about traversals the hop sequence cannot show — e.g. a ring
// route's final delivery to a node that has no queueing point on that
// route — installs an extended mapper via SetLinkMapper so failure
// handling (setup refusal, commit re-validation, eviction) sees every
// physical traversal.
type LinkMapper func(Route) []Link

// SetLinkMapper installs fn as the route link enumerator, replacing the
// consecutive-hop default (nil restores it). It is meant to be called by
// the topology layer during network construction.
func (n *Network) SetLinkMapper(fn LinkMapper) {
	n.linkMu.Lock()
	n.linkMapper = fn
	n.linkMu.Unlock()
}

// routeLinks enumerates the links the route traverses using the installed
// mapper, or consecutive-hop adjacency by default.
func (n *Network) routeLinks(route Route) []Link {
	n.linkMu.RLock()
	fn := n.linkMapper
	n.linkMu.RUnlock()
	if fn != nil {
		return fn(route)
	}
	links := make([]Link, 0, len(route))
	for i := 0; i+1 < len(route); i++ {
		links = append(links, Link{From: route[i].Switch, To: route[i+1].Switch})
	}
	return links
}

// routeLinkDown returns an ErrLinkDown-wrapping error when the route
// traverses a currently failed link. With no link down it returns before
// running the link mapper, which every setup calls twice.
func (n *Network) routeLinkDown(route Route) error {
	n.linkMu.RLock()
	none := len(n.downLinks) == 0
	n.linkMu.RUnlock()
	if none {
		return nil
	}
	links := n.routeLinks(route)
	n.linkMu.RLock()
	defer n.linkMu.RUnlock()
	if len(n.downLinks) == 0 {
		return nil
	}
	for _, l := range links {
		if _, down := n.downLinks[l]; down {
			return fmt.Errorf("%w: %s", ErrLinkDown, l)
		}
	}
	return nil
}

// LinkDown reports whether the directed link from -> to is marked failed.
func (n *Network) LinkDown(from, to string) bool {
	n.linkMu.RLock()
	defer n.linkMu.RUnlock()
	_, down := n.downLinks[Link{From: from, To: to}]
	return down
}

// FailedLinks returns the currently failed links in deterministic order.
func (n *Network) FailedLinks() []Link {
	n.linkMu.RLock()
	links := make([]Link, 0, len(n.downLinks))
	for l := range n.downLinks {
		links = append(links, l)
	}
	n.linkMu.RUnlock()
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// FailLink marks the directed link from -> to as failed and evicts every
// admitted connection whose route traverses it, releasing their
// reservations at every hop. The evicted requests are returned in ID order
// so a failure controller can attempt re-admission over alternate (e.g.
// wrapped-ring) routes.
//
// The mark is published before the admitted set is scanned, and every
// in-flight Setup re-validates its route against the link state inside its
// commit section: a setup racing with FailLink either commits first (and is
// then seen and evicted by the scan) or aborts with ErrLinkDown. In both
// cases no admitted connection traverses the failed link once FailLink
// returns. Failing an already-failed link is a no-op returning no evictions.
func (n *Network) FailLink(from, to string) ([]ConnRequest, error) {
	if from == "" || to == "" || from == to {
		return nil, fmt.Errorf("%w: invalid link %s->%s", ErrBadConfig, from, to)
	}
	for _, name := range []string{from, to} {
		if _, ok := n.Switch(name); !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSwitch, name)
		}
	}
	start := time.Now()
	l := Link{From: from, To: to}
	n.linkMu.Lock()
	if _, down := n.downLinks[l]; down {
		n.linkMu.Unlock()
		return nil, nil
	}
	n.downLinks[l] = struct{}{}
	n.linkMu.Unlock()

	// Collect and unregister the traversing connections atomically, then
	// release their switch reservations outside the lock.
	n.connMu.Lock()
	var evicted []ConnRequest
	for id, req := range n.admitted {
		for _, rl := range n.routeLinks(req.Route) {
			if rl == l {
				cp := req
				cp.Route = append(Route(nil), req.Route...)
				evicted = append(evicted, cp)
				delete(n.admitted, id)
				break
			}
		}
	}
	n.connMu.Unlock()
	sort.Slice(evicted, func(i, j int) bool { return evicted[i].ID < evicted[j].ID })
	for _, req := range evicted {
		// Release cannot fail here: the connection was admitted and its
		// switches cannot be removed from the network.
		_ = n.releaseRoute(req.ID, req.Route)
	}
	if tr := n.getTracer(); tr != nil {
		tr.Trace(obs.Event{
			Kind:     obs.KindFailLink,
			Link:     l.String(),
			Evicted:  len(evicted),
			Duration: time.Since(start),
		})
	}
	return evicted, nil
}

// RestoreLink clears the failure mark of the directed link from -> to. New
// setups may use the link again; evicted connections are not re-admitted
// automatically (re-admission is a policy decision — see internal/failover).
func (n *Network) RestoreLink(from, to string) error {
	l := Link{From: from, To: to}
	n.linkMu.Lock()
	if _, down := n.downLinks[l]; !down {
		n.linkMu.Unlock()
		return fmt.Errorf("%w: link %s is not failed", ErrBadConfig, l)
	}
	delete(n.downLinks, l)
	n.linkMu.Unlock()
	if tr := n.getTracer(); tr != nil {
		tr.Trace(obs.Event{
			Kind:    obs.KindRestoreLink,
			Link:    l.String(),
			Outcome: obs.OutcomeOK,
		})
	}
	return nil
}
