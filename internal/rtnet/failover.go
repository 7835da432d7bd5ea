package rtnet

import (
	"fmt"
	"strconv"
	"strings"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// RTnet's fault tolerance (paper Section 5): the ring nodes are connected
// by dual counter-rotating 155 Mbps links, and a single link or node
// failure is healed by an FDDI-style hardware wrap: the two nodes adjacent
// to the failure fold the primary ring onto the secondary, producing one
// logical ring that traverses every node twice — once in each direction —
// over 2(R-1) directed links.
//
// The CAC consequence is that broadcast routes lengthen (up to about twice
// as many queueing points) and every connection must be re-validated
// against the wrapped topology; WrappedBroadcastRoute and the workload
// helpers below compute the degraded-mode admission problem.

// Secondary-ring ports of a ring node. The primary ring uses
// RingInPort/RingOutPort (0); terminals use 1..N; the secondary ring uses
// a disjoint range.
const (
	SecondaryRingInPort  core.PortID = 100
	SecondaryRingOutPort core.PortID = 100
)

// wrappedLink is one directed link of the healed logical ring.
type wrappedLink struct {
	from      int  // transmitting ring node
	secondary bool // true when the link belongs to the secondary ring
	to        int  // receiving ring node
}

// wrappedRing returns the directed links of the logical ring after the
// primary link failedFrom -> failedFrom+1 fails: the primary segment from
// failedFrom+1 all the way around to failedFrom, then the secondary
// segment back. Every node appears as a transmitter exactly twice except
// the wrap nodes, which transmit once on each ring like everyone else —
// the asymmetry is only in which links are unused.
func (n *Network) wrappedRing(failedFrom int) []wrappedLink {
	r := n.cfg.RingNodes
	links := make([]wrappedLink, 0, 2*(r-1))
	// Primary: failedFrom+1 -> failedFrom+2 -> ... -> failedFrom.
	for i := 0; i < r-1; i++ {
		from := (failedFrom + 1 + i) % r
		links = append(links, wrappedLink{from: from, to: (from + 1) % r})
	}
	// Secondary: failedFrom -> failedFrom-1 -> ... -> failedFrom+1.
	for i := 0; i < r-1; i++ {
		from := (failedFrom - i + r) % r
		links = append(links, wrappedLink{from: from, secondary: true, to: (from - 1 + r) % r})
	}
	return links
}

// wrappedRouteFrom walks the logical wrapped ring from terminal t at node
// origin, appending one queueing point per traversed link, until stop
// reports the receiving node completes the route. It is the common core of
// WrappedBroadcastRoute and WrappedRouteTo.
func (n *Network) wrappedRouteFrom(origin, t, failedFrom int, stop func(to int) bool) (core.Route, error) {
	r := n.cfg.RingNodes
	if origin < 0 || origin >= r {
		return nil, fmt.Errorf("%w: origin node %d", ErrConfig, origin)
	}
	if t < 0 || t >= n.cfg.TerminalsPerNode {
		return nil, fmt.Errorf("%w: terminal %d", ErrConfig, t)
	}
	if failedFrom < 0 || failedFrom >= r {
		return nil, fmt.Errorf("%w: failed link from node %d", ErrConfig, failedFrom)
	}
	ring := n.wrappedRing(failedFrom)
	// Find the first link transmitted by the origin node; the logical ring
	// visits every node, so one exists.
	start := -1
	for i, l := range ring {
		if l.from == origin {
			start = i
			break
		}
	}
	if start == -1 {
		return nil, fmt.Errorf("%w: origin %d not on wrapped ring", ErrConfig, origin)
	}
	route := core.Route{}
	for i := 0; i < len(ring); i++ {
		l := ring[(start+i)%len(ring)]
		in, out := RingInPort, RingOutPort
		if l.secondary {
			in, out = SecondaryRingInPort, SecondaryRingOutPort
		}
		if len(route) == 0 {
			in = TerminalPort(t)
		} else {
			// The inbound direction is that of the previous logical link.
			prev := ring[(start+i-1+len(ring))%len(ring)]
			if prev.secondary {
				in = SecondaryRingInPort
			} else {
				in = RingInPort
			}
		}
		route = append(route, core.Hop{Switch: SwitchName(l.from), In: in, Out: out})
		if stop(l.to) {
			return route, nil
		}
	}
	return nil, fmt.Errorf("%w: wrapped ring does not cover all nodes", ErrConfig)
}

// WrappedBroadcastRoute returns the broadcast route of terminal t at node
// origin after the primary ring link failedFrom -> failedFrom+1 has failed
// and the ring has wrapped. The route follows the logical ring from the
// origin's position until every other ring node has received the cell,
// which can take up to 2(RingNodes-1)-1 queueing points — the capacity
// cost of degraded mode.
func (n *Network) WrappedBroadcastRoute(origin, t, failedFrom int) (core.Route, error) {
	visited := make(map[int]bool, n.cfg.RingNodes)
	visited[origin] = true
	return n.wrappedRouteFrom(origin, t, failedFrom, func(to int) bool {
		visited[to] = true
		return len(visited) == n.cfg.RingNodes
	})
}

// WrappedRouteTo returns the route of a unicast connection from terminal t
// of node origin to node dest after the primary ring link failedFrom ->
// failedFrom+1 has failed: the cell follows the logical wrapped ring from
// the origin until dest receives it, which can take up to 2(RingNodes-1)-1
// queueing points. It is the degraded-mode replacement of SegmentRoute.
func (n *Network) WrappedRouteTo(origin, t, dest, failedFrom int) (core.Route, error) {
	if dest < 0 || dest >= n.cfg.RingNodes || dest == origin {
		return nil, fmt.Errorf("%w: destination node %d", ErrConfig, dest)
	}
	return n.wrappedRouteFrom(origin, t, failedFrom, func(to int) bool { return to == dest })
}

// NodeIndex parses a ring-node switch name (as produced by SwitchName)
// back to its ring index.
func NodeIndex(name string) (int, error) {
	digits, ok := strings.CutPrefix(name, "ring")
	i, err := strconv.Atoi(digits)
	if !ok || err != nil || i < 0 || SwitchName(i) != name {
		return 0, fmt.Errorf("%w: %q is not a ring node name", ErrConfig, name)
	}
	return i, nil
}

// TerminalIndex is the inverse of TerminalPort: the 0-based terminal number
// attached at ring-node port p.
func TerminalIndex(p core.PortID) (int, error) {
	if p < 1 || p >= SecondaryRingInPort {
		return 0, fmt.Errorf("%w: port %d is not a terminal port", ErrConfig, p)
	}
	return int(p) - 1, nil
}

// PrimaryLink returns the directed primary ring link transmitted by node
// from (from -> from+1) in core link terms.
func (n *Network) PrimaryLink(from int) (core.Link, error) {
	if from < 0 || from >= n.cfg.RingNodes {
		return core.Link{}, fmt.Errorf("%w: ring node %d", ErrConfig, from)
	}
	return core.Link{
		From: SwitchName(from),
		To:   SwitchName((from + 1) % n.cfg.RingNodes),
	}, nil
}

// DeliveryLink returns the ring link a route's final transmission crosses,
// when the last hop transmits onto a ring (primary or secondary) port. The
// receiving node has no queueing point on the route, so this link is
// invisible to the core's consecutive-hop adjacency; failure handling must
// account for it separately (see RouteLinks).
func (n *Network) DeliveryLink(route core.Route) (core.Link, bool) {
	if len(route) == 0 {
		return core.Link{}, false
	}
	last := route[len(route)-1]
	i, err := NodeIndex(last.Switch)
	if err != nil {
		return core.Link{}, false
	}
	r := n.cfg.RingNodes
	var to int
	switch last.Out {
	case RingOutPort:
		to = (i + 1) % r
	case SecondaryRingOutPort:
		to = (i - 1 + r) % r
	default:
		// Delivery to a locally attached terminal crosses no ring link.
		return core.Link{}, false
	}
	return core.Link{From: SwitchName(i), To: SwitchName(to)}, true
}

// RouteLinks is the core.LinkMapper for ring routes: consecutive
// queueing points plus the final delivery link.
func (n *Network) RouteLinks(route core.Route) []core.Link {
	links := make([]core.Link, 0, len(route))
	for i := 0; i+1 < len(route); i++ {
		links = append(links, core.Link{From: route[i].Switch, To: route[i+1].Switch})
	}
	if l, ok := n.DeliveryLink(route); ok {
		links = append(links, l)
	}
	return links
}

// FailPrimaryLink marks primary ring link from -> from+1 down on the live
// CAC network and returns the evicted connection requests in ID order (see
// core.Network.FailLink; the installed ring link mapper makes the eviction
// scan and all setup checks cover final-delivery traversals too).
// Re-admission over wrapped routes is the failover engine's job.
func (n *Network) FailPrimaryLink(from int) ([]core.ConnRequest, error) {
	l, err := n.PrimaryLink(from)
	if err != nil {
		return nil, err
	}
	return n.coreN.FailLink(l.From, l.To)
}

// RestorePrimaryLink clears the failure mark of primary ring link
// from -> from+1.
func (n *Network) RestorePrimaryLink(from int) error {
	l, err := n.PrimaryLink(from)
	if err != nil {
		return err
	}
	return n.coreN.RestoreLink(l.From, l.To)
}

// RouteInfo describes a healthy-topology RTnet route in ring terms.
type RouteInfo struct {
	// Origin and Terminal identify the sender; Dest is the last ring node
	// to receive the cell.
	Origin, Terminal, Dest int
	// Broadcast marks a full broadcast route (every other node receives).
	Broadcast bool
}

// RouteEndpoints classifies a healthy-ring route (as produced by
// SegmentRoute or BroadcastRoute) back into ring terms, so a failure
// controller can recompute the equivalent wrapped route. Routes that do not
// follow the healthy primary ring — e.g. already-wrapped routes — are
// rejected.
func (n *Network) RouteEndpoints(route core.Route) (RouteInfo, error) {
	r := n.cfg.RingNodes
	if len(route) < 1 || len(route) > r-1 {
		return RouteInfo{}, fmt.Errorf("%w: route of %d hops is not a healthy-ring route", ErrConfig, len(route))
	}
	origin, err := NodeIndex(route[0].Switch)
	if err != nil {
		return RouteInfo{}, err
	}
	terminal, err := TerminalIndex(route[0].In)
	if err != nil {
		return RouteInfo{}, err
	}
	for h, hop := range route {
		i, err := NodeIndex(hop.Switch)
		if err != nil {
			return RouteInfo{}, err
		}
		if i != (origin+h)%r || hop.Out != RingOutPort || (h > 0 && hop.In != RingInPort) {
			return RouteInfo{}, fmt.Errorf("%w: hop %d of route does not follow the primary ring", ErrConfig, h)
		}
	}
	return RouteInfo{
		Origin:    origin,
		Terminal:  terminal,
		Dest:      (origin + len(route)) % r,
		Broadcast: len(route) == r-1,
	}, nil
}

// SymmetricWorkloadWrapped builds the symmetric cyclic workload of
// SymmetricWorkload over the wrapped (degraded) topology.
func (n *Network) SymmetricWorkloadWrapped(load float64, prio core.Priority, failedFrom int) ([]core.ConnRequest, error) {
	total := n.cfg.RingNodes * n.cfg.TerminalsPerNode
	if !(load > 0) || load > 1 {
		return nil, fmt.Errorf("%w: total load %g not in (0, 1]", ErrConfig, load)
	}
	pcr := load / float64(total)
	reqs := make([]core.ConnRequest, 0, total)
	for i := 0; i < n.cfg.RingNodes; i++ {
		for t := 0; t < n.cfg.TerminalsPerNode; t++ {
			route, err := n.WrappedBroadcastRoute(i, t, failedFrom)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, core.ConnRequest{
				ID:       ConnectionID(i, t),
				Spec:     traffic.CBR(pcr),
				Priority: prio,
				Route:    route,
			})
		}
	}
	return reqs, nil
}

// MaxWrappedRouteBound returns the largest end-to-end computed bound over
// all wrapped broadcast routes under the installed load.
func (n *Network) MaxWrappedRouteBound(prio core.Priority, failedFrom int) (float64, error) {
	worst := 0.0
	for i := 0; i < n.cfg.RingNodes; i++ {
		route, err := n.WrappedBroadcastRoute(i, 0, failedFrom)
		if err != nil {
			return 0, err
		}
		d, err := n.coreN.RouteBound(route, prio)
		if err != nil {
			return 0, err
		}
		if d > worst {
			worst = d
		}
	}
	return worst, nil
}
