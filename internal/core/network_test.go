package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"atmcac/internal/traffic"
)

func TestHardCDVAccumulate(t *testing.T) {
	p := HardCDV{}
	if got := p.Accumulate(nil); got != 0 {
		t.Errorf("Accumulate(nil) = %g, want 0", got)
	}
	if got := p.Accumulate([]float64{32, 32, 32}); got != 96 {
		t.Errorf("Accumulate = %g, want 96", got)
	}
	if p.Name() != "hard" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestSoftCDVAccumulate(t *testing.T) {
	p := SoftCDV{}
	if got := p.Accumulate(nil); got != 0 {
		t.Errorf("Accumulate(nil) = %g, want 0", got)
	}
	if got := p.Accumulate([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Accumulate([3 4]) = %g, want 5", got)
	}
	// Soft accumulation is never larger than hard.
	bounds := []float64{32, 32, 32, 32}
	if (SoftCDV{}).Accumulate(bounds) >= (HardCDV{}).Accumulate(bounds) {
		t.Error("soft CDV not smaller than hard CDV on a multi-hop route")
	}
	if p.Name() != "soft" {
		t.Errorf("Name = %q", p.Name())
	}
}

// twoHopNetwork builds sw0 -> sw1 with 32-cell highest-priority queues.
func twoHopNetwork(t *testing.T, policy CDVPolicy) (*Network, Route) {
	t.Helper()
	n := NewNetwork(policy)
	for i := 0; i < 2; i++ {
		if _, err := n.AddSwitch(SwitchConfig{
			Name:       fmt.Sprintf("sw%d", i),
			QueueCells: map[Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	route := Route{{Switch: "sw0", In: 1, Out: 0}, {Switch: "sw1", In: 1, Out: 0}}
	return n, route
}

func TestNewNetworkDefaultsToHard(t *testing.T) {
	n := NewNetwork(nil)
	if n.Policy().Name() != "hard" {
		t.Errorf("default policy = %q, want hard", n.Policy().Name())
	}
}

func TestAddSwitchDuplicate(t *testing.T) {
	n := NewNetwork(HardCDV{})
	cfg := SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: 32}}
	if _, err := n.AddSwitch(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSwitch(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate AddSwitch error = %v, want ErrBadConfig", err)
	}
	if _, err := n.AddSwitch(SwitchConfig{Name: "bad"}); err == nil {
		t.Fatal("AddSwitch with invalid config succeeded")
	}
}

func TestSwitchLookup(t *testing.T) {
	n, _ := twoHopNetwork(t, HardCDV{})
	if _, ok := n.Switch("sw0"); !ok {
		t.Error("Switch(sw0) not found")
	}
	if _, ok := n.Switch("nope"); ok {
		t.Error("Switch(nope) found")
	}
	names := n.SwitchNames()
	if len(names) != 2 || names[0] != "sw0" || names[1] != "sw1" {
		t.Errorf("SwitchNames = %v", names)
	}
}

func TestSetupTwoHops(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	adm, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if err != nil {
		t.Fatal(err)
	}
	if adm.EndToEndGuaranteed != 64 {
		t.Errorf("EndToEndGuaranteed = %g, want 64", adm.EndToEndGuaranteed)
	}
	if len(adm.PerHopGuaranteed) != 2 || adm.PerHopGuaranteed[0] != 32 {
		t.Errorf("PerHopGuaranteed = %v", adm.PerHopGuaranteed)
	}
	if len(adm.PerHopComputed) != 2 {
		t.Fatalf("PerHopComputed = %v", adm.PerHopComputed)
	}
	var sum float64
	for _, d := range adm.PerHopComputed {
		sum += d
	}
	if math.Abs(sum-adm.EndToEndComputed) > 1e-12 {
		t.Errorf("EndToEndComputed = %g, want sum of per-hop %g", adm.EndToEndComputed, sum)
	}
	for _, name := range []string{"sw0", "sw1"} {
		sw, _ := n.Switch(name)
		if !sw.Has("c1") {
			t.Errorf("switch %s does not carry c1", name)
		}
	}
	ids := n.Connections()
	if len(ids) != 1 || ids[0] != "c1" {
		t.Errorf("Connections = %v", ids)
	}
}

func TestSetupValidation(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	tests := []struct {
		name string
		req  ConnRequest
		want error
	}{
		{"empty id", ConnRequest{Spec: traffic.CBR(0.1), Priority: 1, Route: route}, ErrBadConfig},
		{"bad spec", ConnRequest{ID: "x", Spec: traffic.VBR(0, 0, 0), Priority: 1, Route: route}, traffic.ErrInvalidSpec},
		{"empty route", ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 1}, ErrBadConfig},
		{"negative delay", ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 1, Route: route, DelayBound: -1}, ErrBadConfig},
		{"unknown switch", ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 1,
			Route: Route{{Switch: "nope", In: 1, Out: 0}}}, ErrUnknownSwitch},
		{"unknown priority", ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 7, Route: route}, ErrBadConfig},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := n.Setup(context.Background(), tt.req); !errors.Is(err, tt.want) {
				t.Errorf("Setup error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestSetupDuplicate(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	req := ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route}
	if _, err := n.Setup(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Setup(context.Background(), req); !errors.Is(err, ErrDuplicateConn) {
		t.Fatalf("duplicate Setup error = %v, want ErrDuplicateConn", err)
	}
}

func TestSetupEndToEndBudgetCheck(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	// Two 32-cell hops guarantee 64; a request for 50 must be refused
	// before touching any switch.
	_, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route, DelayBound: 50,
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Setup error = %v, want ErrRejected", err)
	}
	sw, _ := n.Switch("sw0")
	if sw.ConnectionCount() != 0 {
		t.Error("rejected setup left state at sw0")
	}
	// A request for exactly 64 passes.
	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "c2", Spec: traffic.CBR(0.1), Priority: 1, Route: route, DelayBound: 64,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSetupRollbackOnMidRouteRejection: sw1 is pre-loaded near its limit so
// the second hop rejects; the first hop's commitment must be rolled back.
func TestSetupRollbackOnMidRouteRejection(t *testing.T) {
	n := NewNetwork(HardCDV{})
	if _, err := n.AddSwitch(SwitchConfig{Name: "sw0", QueueCells: map[Priority]float64{1: 1000}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddSwitch(SwitchConfig{Name: "sw1", QueueCells: map[Priority]float64{1: 3}}); err != nil {
		t.Fatal(err)
	}
	sw1, _ := n.Switch("sw1")
	// Pre-load sw1 with simultaneous bursts on distinct links up to its
	// 3-cell budget.
	for i := 0; i < 4; i++ {
		if _, err := sw1.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("bg%d", i)), Spec: traffic.CBR(0.01),
			In: PortID(10 + i), Out: 0, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	route := Route{{Switch: "sw0", In: 1, Out: 0}, {Switch: "sw1", In: 1, Out: 0}}
	_, err := n.Setup(context.Background(), ConnRequest{ID: "c1", Spec: traffic.CBR(0.01), Priority: 1, Route: route})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Setup error = %v, want ErrRejected", err)
	}
	sw0, _ := n.Switch("sw0")
	if sw0.Has("c1") {
		t.Error("hop 0 commitment not rolled back after mid-route rejection")
	}
	if len(n.Connections()) != 0 {
		t.Error("rejected connection recorded at network level")
	}
}

func TestTeardown(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	if _, err := n.Setup(context.Background(), ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route}); err != nil {
		t.Fatal(err)
	}
	if err := n.Teardown("c1"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sw0", "sw1"} {
		sw, _ := n.Switch(name)
		if sw.Has("c1") {
			t.Errorf("teardown left c1 at %s", name)
		}
	}
	if err := n.Teardown("c1"); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double Teardown error = %v, want ErrUnknownConn", err)
	}
}

// TestCDVAccumulationAcrossHops: hop h of a hard-CDV network sees
// CDV = 32*h, so the per-hop computed bound is non-decreasing along a route
// carrying identical cross traffic.
func TestCDVAccumulationAcrossHops(t *testing.T) {
	n := NewNetwork(HardCDV{})
	const hops = 4
	route := make(Route, hops)
	for i := 0; i < hops; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := n.AddSwitch(SwitchConfig{Name: name, QueueCells: map[Priority]float64{1: 1000}}); err != nil {
			t.Fatal(err)
		}
		route[i] = Hop{Switch: name, In: 1, Out: 0}
	}
	// A bursty VBR connection plus a fixed competitor at every hop.
	for i := 0; i < hops; i++ {
		sw, _ := n.Switch(fmt.Sprintf("sw%d", i))
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("cross%d", i)), Spec: traffic.VBR(0.8, 0.2, 16),
			In: 2, Out: 0, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	adm, err := n.Setup(context.Background(), ConnRequest{ID: "c1", Spec: traffic.VBR(0.5, 0.1, 8), Priority: 1, Route: route})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h < hops; h++ {
		if adm.PerHopComputed[h] < adm.PerHopComputed[h-1]-1e-9 {
			t.Errorf("per-hop bounds not non-decreasing along the route: %v", adm.PerHopComputed)
		}
	}
	if adm.PerHopComputed[hops-1] <= adm.PerHopComputed[0] {
		t.Errorf("accumulated CDV had no effect: %v", adm.PerHopComputed)
	}
}

// TestSoftCDVAdmitsMoreThanHard: identical networks, the soft policy
// produces smaller clumping and hence smaller bounds.
func TestSoftCDVAdmitsMoreThanHard(t *testing.T) {
	bound := func(policy CDVPolicy) float64 {
		n := NewNetwork(policy)
		const hops = 6
		route := make(Route, hops)
		for i := 0; i < hops; i++ {
			name := fmt.Sprintf("sw%d", i)
			if _, err := n.AddSwitch(SwitchConfig{Name: name, QueueCells: map[Priority]float64{1: 64}}); err != nil {
				t.Fatal(err)
			}
			route[i] = Hop{Switch: name, In: 1, Out: 0}
		}
		for c := 0; c < 6; c++ {
			if _, err := n.Setup(context.Background(), ConnRequest{
				ID: ConnID(fmt.Sprintf("c%d", c)), Spec: traffic.CBR(0.01),
				Priority: 1,
				Route:    routeWithIn(route, PortID(c+1)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		d, err := n.RouteBound(route, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	hard, soft := bound(HardCDV{}), bound(SoftCDV{})
	if soft >= hard {
		t.Errorf("soft route bound %g not smaller than hard %g", soft, hard)
	}
}

// routeWithIn returns a copy of route with every In port replaced, so that
// parallel connections enter each switch on distinct links.
func routeWithIn(route Route, in PortID) Route {
	out := make(Route, len(route))
	copy(out, route)
	for i := range out {
		out[i].In = in
	}
	return out
}

func TestInstallAndAuditCleanSet(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	for i := 0; i < 4; i++ {
		if err := n.Install(ConnRequest{
			ID: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.05), Priority: 1,
			Route: routeWithIn(route, PortID(i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("Audit of a feasible set reported %v", violations)
	}
}

func TestInstallAndAuditOverload(t *testing.T) {
	n := NewNetwork(HardCDV{})
	if _, err := n.AddSwitch(SwitchConfig{Name: "sw0", QueueCells: map[Priority]float64{1: 2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := n.Install(ConnRequest{
			ID: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.05), Priority: 1,
			Route: Route{{Switch: "sw0", In: PortID(i + 1), Out: 0}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("Audit = %v, want exactly one violation", violations)
	}
	v := violations[0]
	if v.Switch != "sw0" || v.Priority != 1 || v.Limit != 2 || v.Bound <= 2 {
		t.Errorf("violation = %+v", v)
	}
	if v.String() == "" {
		t.Error("Violation.String empty")
	}
}

func TestAuditReportsUnstable(t *testing.T) {
	n := NewNetwork(HardCDV{})
	if _, err := n.AddSwitch(SwitchConfig{Name: "sw0", QueueCells: map[Priority]float64{1: 32}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Install(ConnRequest{
			ID: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.5), Priority: 1,
			Route: Route{{Switch: "sw0", In: PortID(i + 1), Out: 0}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !math.IsInf(violations[0].Bound, 1) {
		t.Fatalf("Audit = %v, want one unstable (+Inf) violation", violations)
	}
}

// TestSetupAgreesWithInstallAudit: any set admitted sequentially by Setup
// passes Audit — the fixed per-switch bounds make admission order
// irrelevant, which is what the offline planning path relies on.
func TestSetupAgreesWithInstallAudit(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	admitted := 0
	for i := 0; i < 40; i++ {
		_, err := n.Setup(context.Background(), ConnRequest{
			ID: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.VBR(0.2, 0.02, 4), Priority: 1,
			Route: routeWithIn(route, PortID(i+1)),
		})
		if errors.Is(err, ErrRejected) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	if admitted == 0 || admitted == 40 {
		t.Fatalf("admitted %d connections; scenario does not exercise the limit", admitted)
	}
	violations, err := n.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("sequentially admitted set fails Audit: %v", violations)
	}
}

func TestRouteBound(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	if _, err := n.Setup(context.Background(), ConnRequest{ID: "c1", Spec: traffic.VBR(0.5, 0.05, 8), Priority: 1, Route: route}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Setup(context.Background(), ConnRequest{ID: "c2", Spec: traffic.VBR(0.5, 0.05, 8), Priority: 1,
		Route: routeWithIn(route, 2)}); err != nil {
		t.Fatal(err)
	}
	d, err := n.RouteBound(route, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("RouteBound = %g, want > 0", d)
	}
	if _, err := n.RouteBound(Route{{Switch: "nope"}}, 1); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("RouteBound error = %v, want ErrUnknownSwitch", err)
	}
}

// TestConcurrentSetupTeardown exercises the engine under parallel setup and
// teardown of disjoint connections.
func TestConcurrentSetupTeardown(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				id := ConnID(fmt.Sprintf("g%d-k%d", g, k))
				_, err := n.Setup(context.Background(), ConnRequest{
					ID: id, Spec: traffic.CBR(0.001), Priority: 1,
					Route: routeWithIn(route, PortID(g+1)),
				})
				if err != nil {
					errs <- err
					return
				}
				if err := n.Teardown(id); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(n.Connections()); got != 0 {
		t.Errorf("connections remaining after teardown: %d", got)
	}
}

func TestAssignPriority(t *testing.T) {
	n := NewNetwork(HardCDV{})
	queues := map[Priority]float64{1: 32, 2: 128, 3: 512}
	route := make(Route, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("ap%d", i)
		if _, err := n.AddSwitch(SwitchConfig{Name: name, QueueCells: queues}); err != nil {
			t.Fatal(err)
		}
		route[i] = Hop{Switch: name, In: 1, Out: 0}
	}
	tests := []struct {
		budget float64
		want   Priority
	}{
		{2000, 3}, // 3*512 = 1536 fits: least urgent wins
		{1000, 2}, // 3*128 = 384 fits, 1536 does not
		{200, 1},  // only 3*32 = 96 fits
		{96, 1},   // exact fit
	}
	for _, tt := range tests {
		got, err := n.AssignPriority(route, tt.budget)
		if err != nil {
			t.Fatalf("budget %g: %v", tt.budget, err)
		}
		if got != tt.want {
			t.Errorf("budget %g: priority %d, want %d", tt.budget, got, tt.want)
		}
	}
	// Impossible budget.
	if _, err := n.AssignPriority(route, 50); !errors.Is(err, ErrRejected) {
		t.Errorf("impossible budget error = %v, want ErrRejected", err)
	}
	// Validation.
	if _, err := n.AssignPriority(nil, 100); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty route error = %v", err)
	}
	if _, err := n.AssignPriority(route, 0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero budget error = %v", err)
	}
	if _, err := n.AssignPriority(Route{{Switch: "ghost"}}, 100); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("unknown switch error = %v", err)
	}
}

// TestAssignPriorityHonoursPortOverrides: a larger per-port FIFO on the
// route changes which priorities fit.
func TestAssignPriorityHonoursPortOverrides(t *testing.T) {
	n := NewNetwork(HardCDV{})
	if _, err := n.AddSwitch(SwitchConfig{
		Name:           "sw",
		QueueCells:     map[Priority]float64{1: 32, 2: 128},
		PortQueueCells: map[PortID]map[Priority]float64{5: {2: 1000}},
	}); err != nil {
		t.Fatal(err)
	}
	base := Route{{Switch: "sw", In: 1, Out: 0}}
	over := Route{{Switch: "sw", In: 1, Out: 5}}
	// Budget 200: on the base port priority 2 (128) fits; on the overridden
	// port priority 2's guarantee is 1000, so only priority 1 fits.
	p, err := n.AssignPriority(base, 200)
	if err != nil || p != 2 {
		t.Fatalf("base port priority = %d (%v), want 2", p, err)
	}
	p, err = n.AssignPriority(over, 200)
	if err != nil || p != 1 {
		t.Fatalf("override port priority = %d (%v), want 1", p, err)
	}
}

// TestSetupContextCancelledLeavesNoResidue: a setup abandoned by its
// context before completing must admit nothing and leave no partial
// per-hop reservations — the invariant the wire server's propagated
// client deadline relies on.
func TestSetupContextCancelledLeavesNoResidue(t *testing.T) {
	n, route := twoHopNetwork(t, HardCDV{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := n.Setup(ctx, ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Setup with cancelled ctx = %v, want context.Canceled", err)
	}
	for _, name := range []string{"sw0", "sw1"} {
		sw, _ := n.Switch(name)
		if sw.Has("c1") {
			t.Errorf("switch %s carries the abandoned connection", name)
		}
	}
	if ids := n.Connections(); len(ids) != 0 {
		t.Errorf("abandoned setup recorded: %v", ids)
	}
	// The same request goes through once the caller retries without the
	// dead context.
	if _, err := n.Setup(context.Background(), ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Errorf("retry after abandonment: %v", err)
	}
}
