package rtnet

import (
	"context"
	"errors"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// TestWrappedRoutesThroughLiveSetup feeds the §5 wrapped-ring routes
// through the live hop-by-hop admission path (Network.Setup with the full
// Algorithm 4.1 check) after the primary link has actually been failed,
// instead of the offline Install+Audit planner the wrapped math was
// previously tested with.
func TestWrappedRoutesThroughLiveSetup(t *testing.T) {
	const (
		ringNodes = 6
		failed    = 2
	)
	n := newRTnet(t, Config{RingNodes: ringNodes})
	evicted, err := n.FailPrimaryLink(failed)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("idle network evicted %v", evicted)
	}

	pcr := 0.3 / float64(ringNodes)
	for origin := 0; origin < ringNodes; origin++ {
		route, err := n.WrappedBroadcastRoute(origin, 0, failed)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := n.Core().Setup(context.Background(), core.ConnRequest{
			ID: ConnectionID(origin, 0), Spec: traffic.CBR(pcr), Priority: 1, Route: route,
		})
		if err != nil {
			t.Fatalf("live setup of wrapped route from %d: %v", origin, err)
		}
		if want := float64(len(route)) * DefaultQueueCells; adm.EndToEndGuaranteed != want {
			t.Errorf("origin %d: guaranteed %g, want %g", origin, adm.EndToEndGuaranteed, want)
		}
		// The wrapped route must not traverse the failed primary link.
		l, _ := n.PrimaryLink(failed)
		for i := 0; i+1 < len(route); i++ {
			if route[i].Switch == l.From && route[i+1].Switch == l.To {
				t.Errorf("origin %d: wrapped route crosses failed link %s", origin, l)
			}
		}
	}
	if v, err := n.Audit(); err != nil || len(v) > 0 {
		t.Fatalf("audit after live wrapped setups: %v %v", v, err)
	}
	// Setups over the healthy-topology broadcast route are refused while
	// the link is down (they would traverse it for some origins).
	route, err := n.BroadcastRoute(failed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "refused", Spec: traffic.CBR(pcr), Priority: 1, Route: route,
	}); !errors.Is(err, core.ErrLinkDown) {
		t.Fatalf("healthy-route setup over failed link = %v, want ErrLinkDown", err)
	}
}

// TestWrappedTeardownIdempotent: a wrapped route visits ring nodes twice
// (once per ring direction); teardown must release every hop entry exactly
// once per switch and a second teardown must report the connection unknown
// rather than double-freeing.
func TestWrappedTeardownIdempotent(t *testing.T) {
	n := newRTnet(t, Config{RingNodes: 5})
	route, err := n.WrappedBroadcastRoute(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the route revisits at least one switch.
	visits := make(map[string]int)
	for _, hop := range route {
		visits[hop.Switch]++
	}
	twice := 0
	for _, c := range visits {
		if c == 2 {
			twice++
		}
	}
	if twice == 0 {
		t.Fatalf("wrapped route %v never revisits a switch", route)
	}
	if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
		ID: "wrap", Spec: traffic.CBR(0.01), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	for name := range visits {
		sw, _ := n.Core().Switch(name)
		if !sw.Has("wrap") {
			t.Fatalf("switch %s missing the wrapped connection", name)
		}
	}
	if err := n.Core().Teardown("wrap"); err != nil {
		t.Fatalf("teardown of wrapped route: %v", err)
	}
	for name := range visits {
		sw, _ := n.Core().Switch(name)
		if sw.Has("wrap") {
			t.Errorf("switch %s still carries entries after teardown", name)
		}
		if sw.ConnectionCount() != 0 {
			t.Errorf("switch %s carries %d connections after teardown", name, sw.ConnectionCount())
		}
	}
	if err := n.Core().Teardown("wrap"); !errors.Is(err, core.ErrUnknownConn) {
		t.Fatalf("second teardown = %v, want ErrUnknownConn", err)
	}
}

// TestFailPrimaryLinkEvictsFinalDelivery: a route whose LAST transmission
// crosses the failed link has no queueing point at the receiving node, so
// the core consecutive-hop model cannot see the traversal; the rtnet layer
// must evict it from ring-topology knowledge.
func TestFailPrimaryLinkEvictsFinalDelivery(t *testing.T) {
	const failed = 2
	n := newRTnet(t, Config{RingNodes: 6})
	setup := func(id string, route core.Route) {
		t.Helper()
		if _, err := n.Core().Setup(context.Background(), core.ConnRequest{
			ID: core.ConnID(id), Spec: traffic.CBR(0.01), Priority: 1, Route: route,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast from failed+2: queueing points at 4,5,0,1,2 — node 2's
	// transmission to node 3 is the final delivery over the failed link.
	bcast, err := n.BroadcastRoute((failed+2)%6, 0)
	if err != nil {
		t.Fatal(err)
	}
	setup("bcast-last-hop", bcast)
	// Unicast terminating at failed+1: single hop at node 2 delivering to 3.
	uni, err := n.SegmentRoute(failed, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	setup("uni-into-dead", uni)
	// Unicast well clear of the failed link: hops at 3, 4, delivery to 5.
	clear, err := n.SegmentRoute(failed+1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	setup("survivor", clear)

	evicted, err := n.FailPrimaryLink(failed)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]core.ConnID, len(evicted))
	for i, req := range evicted {
		ids[i] = req.ID
	}
	if len(ids) != 2 || ids[0] != "bcast-last-hop" || ids[1] != "uni-into-dead" {
		t.Fatalf("evicted = %v, want [bcast-last-hop uni-into-dead]", ids)
	}
	if conns := n.Core().Connections(); len(conns) != 1 || conns[0] != "survivor" {
		t.Fatalf("admitted after failure = %v, want [survivor]", conns)
	}
}

func TestNodeAndTerminalIndex(t *testing.T) {
	for _, i := range []int{0, 3, 15, 42} {
		got, err := NodeIndex(SwitchName(i))
		if err != nil || got != i {
			t.Errorf("NodeIndex(SwitchName(%d)) = %d, %v", i, got, err)
		}
	}
	for _, bad := range []string{"", "ring", "ring-1", "ring3x", "ring+3", "ring 3", "ring003", "term00-00", "sw0"} {
		if _, err := NodeIndex(bad); err == nil {
			t.Errorf("NodeIndex(%q) succeeded", bad)
		}
	}
	for tt := 0; tt < MaxTerminalsPerNode; tt++ {
		got, err := TerminalIndex(TerminalPort(tt))
		if err != nil || got != tt {
			t.Errorf("TerminalIndex(TerminalPort(%d)) = %d, %v", tt, got, err)
		}
	}
	for _, bad := range []core.PortID{RingInPort, SecondaryRingInPort, 200} {
		if _, err := TerminalIndex(bad); err == nil {
			t.Errorf("TerminalIndex(%d) succeeded", bad)
		}
	}
}

func TestRouteEndpoints(t *testing.T) {
	n := newRTnet(t, Config{RingNodes: 6, TerminalsPerNode: 2})
	for origin := 0; origin < 6; origin++ {
		for hops := 1; hops < 6; hops++ {
			route, err := n.SegmentRoute(origin, 1, hops)
			if err != nil {
				t.Fatal(err)
			}
			info, err := n.RouteEndpoints(route)
			if err != nil {
				t.Fatalf("origin=%d hops=%d: %v", origin, hops, err)
			}
			want := RouteInfo{
				Origin: origin, Terminal: 1, Dest: (origin + hops) % 6,
				Broadcast: hops == 5,
			}
			if info != want {
				t.Errorf("origin=%d hops=%d: info = %+v, want %+v", origin, hops, info, want)
			}
		}
	}
	// Wrapped routes are not healthy-ring routes.
	wrapped, err := n.WrappedBroadcastRoute(0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RouteEndpoints(wrapped); err == nil {
		t.Error("RouteEndpoints accepted a wrapped route")
	}
	if _, err := n.RouteEndpoints(nil); err == nil {
		t.Error("RouteEndpoints accepted an empty route")
	}
}

// TestWrappedRouteTo checks degraded-mode unicast: the route reaches the
// destination without the failed link and matches SegmentRoute's endpoints.
func TestWrappedRouteTo(t *testing.T) {
	n := newRTnet(t, Config{RingNodes: 6})
	for failed := 0; failed < 6; failed++ {
		for origin := 0; origin < 6; origin++ {
			for dest := 0; dest < 6; dest++ {
				if dest == origin {
					if _, err := n.WrappedRouteTo(origin, 0, dest, failed); err == nil {
						t.Errorf("WrappedRouteTo(origin=dest=%d) succeeded", origin)
					}
					continue
				}
				route, err := n.WrappedRouteTo(origin, 0, dest, failed)
				if err != nil {
					t.Fatalf("failed=%d origin=%d dest=%d: %v", failed, origin, dest, err)
				}
				if len(route) < 1 || len(route) > 2*5-1 {
					t.Errorf("failed=%d origin=%d dest=%d: %d hops", failed, origin, dest, len(route))
				}
				if route[0].Switch != SwitchName(origin) || route[0].In != TerminalPort(0) {
					t.Errorf("route starts at %+v, want origin %d", route[0], origin)
				}
				for i := 0; i+1 < len(route); i++ {
					if route[i].Switch == SwitchName(failed) && route[i+1].Switch == SwitchName((failed+1)%6) &&
						route[i].Out == RingOutPort && route[i+1].In == RingInPort {
						t.Errorf("failed=%d origin=%d dest=%d: route uses the failed primary link", failed, origin, dest)
					}
				}
			}
		}
	}
}

// TestWrappedRouteToReachesDest verifies the last hop actually delivers to
// the destination by replaying the wrapped-ring link sequence.
func TestWrappedRouteToReachesDest(t *testing.T) {
	n := newRTnet(t, Config{RingNodes: 7})
	const failed = 3
	ring := n.wrappedRing(failed)
	for origin := 0; origin < 7; origin++ {
		for dest := 0; dest < 7; dest++ {
			if dest == origin {
				continue
			}
			route, err := n.WrappedRouteTo(origin, 0, dest, failed)
			if err != nil {
				t.Fatal(err)
			}
			// Find the walk's start and replay len(route) links.
			start := -1
			for i, l := range ring {
				if l.from == origin {
					start = i
					break
				}
			}
			last := ring[(start+len(route)-1)%len(ring)]
			if last.to != dest {
				t.Errorf("origin=%d dest=%d: walk of %d links ends at %d",
					origin, dest, len(route), last.to)
			}
		}
	}
}
