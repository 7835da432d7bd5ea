package signaling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// lineFabric builds sw0 -> sw1 -> sw2 with 32-cell queues.
func lineFabric(t *testing.T, queues map[core.Priority]float64) (*Fabric, core.Route) {
	t.Helper()
	if queues == nil {
		queues = map[core.Priority]float64{1: 32}
	}
	f := NewFabric(nil)
	t.Cleanup(f.Close)
	route := make(core.Route, 3)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := f.AddNode(core.SwitchConfig{Name: name, QueueCells: queues}); err != nil {
			t.Fatal(err)
		}
		route[i] = core.Hop{Switch: name, In: 1, Out: 0}
	}
	return f, route
}

func TestConnectEstablishesEverywhere(t *testing.T) {
	f, route := lineFabric(t, nil)
	res, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "c1" {
		t.Errorf("result ID = %q", res.ID)
	}
	if res.EndToEndGuaranteed != 96 {
		t.Errorf("EndToEndGuaranteed = %g, want 96", res.EndToEndGuaranteed)
	}
	if len(res.PerHopComputed) != 3 || len(res.PerHopGuaranteed) != 3 {
		t.Errorf("per-hop slices = %v / %v", res.PerHopComputed, res.PerHopGuaranteed)
	}
	var sum float64
	for _, d := range res.PerHopComputed {
		sum += d
	}
	if math.Abs(sum-res.EndToEndComputed) > 1e-12 {
		t.Errorf("EndToEndComputed = %g, want %g", res.EndToEndComputed, sum)
	}
	for i := 0; i < 3; i++ {
		n, _ := f.Node(fmt.Sprintf("sw%d", i))
		if !n.Switch().Has("c1") {
			t.Errorf("node sw%d does not carry c1", i)
		}
	}
	ids := f.Established()
	if len(ids) != 1 || ids[0] != "c1" {
		t.Errorf("Established = %v", ids)
	}
}

func TestConnectValidation(t *testing.T) {
	f, route := lineFabric(t, nil)
	if _, err := f.Connect(testCtx(t), core.ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 1}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("empty route error = %v", err)
	}
	bad := core.Route{{Switch: "nope", In: 1, Out: 0}}
	if _, err := f.Connect(testCtx(t), core.ConnRequest{ID: "x", Spec: traffic.CBR(0.1), Priority: 1, Route: bad}); !errors.Is(err, core.ErrUnknownSwitch) {
		t.Errorf("unknown node error = %v", err)
	}
	if _, err := f.Connect(testCtx(t), core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect(testCtx(t), core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route}); !errors.Is(err, core.ErrDuplicateConn) {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestRejectRollsBackUpstream(t *testing.T) {
	f, route := lineFabric(t, nil)
	// Saturate the last node so the third hop rejects.
	last, _ := f.Node("sw2")
	for i := 0; i < 40; i++ {
		_, err := last.Switch().Admit(core.HopRequest{
			Conn: core.ConnID(fmt.Sprintf("bg%d", i)), Spec: traffic.CBR(0.02),
			In: core.PortID(10 + i), Out: 0, Priority: 1,
		})
		if err != nil {
			break
		}
	}
	_, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.02), Priority: 1, Route: route,
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("Connect error = %v, want ErrRejected", err)
	}
	var rej *core.RejectionError
	if !errors.As(err, &rej) || rej.Switch != "sw2" {
		t.Errorf("rejection detail = %v, want switch sw2", err)
	}
	for i := 0; i < 3; i++ {
		n, _ := f.Node(fmt.Sprintf("sw%d", i))
		if n.Switch().Has("c1") {
			t.Errorf("node sw%d still carries rejected c1", i)
		}
	}
	if len(f.Established()) != 0 {
		t.Error("rejected connection recorded as established")
	}
}

// TestEndToEndBudgetRejectedBeforeFirstHop: the origin refuses a request
// whose per-hop guarantees cannot meet its end-to-end bound before any
// SETUP leaves it. sw0 is saturated so that any hop admission there would
// fail with queue-budget; the refusal must still be the end-to-end one.
func TestEndToEndBudgetRejectedBeforeFirstHop(t *testing.T) {
	f, route := lineFabric(t, nil)
	sw0, _ := f.Node("sw0")
	var bg []core.ConnID
	for i := 0; ; i++ {
		id := core.ConnID(fmt.Sprintf("bg%d", i))
		if _, err := sw0.Switch().Admit(core.HopRequest{
			Conn: id, Spec: traffic.CBR(0.01), In: core.PortID(10 + i), Out: 0, Priority: 1,
		}); err != nil {
			break
		}
		bg = append(bg, id)
	}
	hop := core.HopRequest{Conn: "c1", Spec: traffic.CBR(0.1), In: 1, Out: 0, Priority: 1}
	if _, err := sw0.Switch().Check(hop); core.ErrorCode(err) != core.CodeQueueBudget {
		t.Fatalf("saturated sw0 check = %v, want %s", err, core.CodeQueueBudget)
	}
	// Three 32-cell hops guarantee 96 > requested 50.
	_, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route, DelayBound: 50,
	})
	var rej *core.RejectionError
	if !errors.As(err, &rej) || rej.Switch != "(end-to-end)" || core.ErrorCode(err) != core.CodeDelayBound {
		t.Fatalf("Connect error = %v, want an (end-to-end) %s rejection", err, core.CodeDelayBound)
	}
	for i := 0; i < 3; i++ {
		n, _ := f.Node(fmt.Sprintf("sw%d", i))
		if n.Switch().Has("c1") {
			t.Errorf("node sw%d still carries budget-rejected c1", i)
		}
	}
	// A request matching the guarantee succeeds once sw0 has room.
	for _, id := range bg {
		if err := sw0.Switch().Release(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c2", Spec: traffic.CBR(0.1), Priority: 1, Route: route, DelayBound: 96,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnect(t *testing.T) {
	f, route := lineFabric(t, nil)
	if _, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Disconnect(testCtx(t), "c1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n, _ := f.Node(fmt.Sprintf("sw%d", i))
		if n.Switch().Has("c1") {
			t.Errorf("node sw%d still carries c1 after disconnect", i)
		}
	}
	if err := f.Disconnect(testCtx(t), "c1"); !errors.Is(err, core.ErrUnknownConn) {
		t.Errorf("double disconnect error = %v", err)
	}
	// The ID is reusable.
	if _, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentConnects races many setups through a shared bottleneck; the
// admitted subset must pass the audit and the rejected ones must leave no
// residue.
func TestConcurrentConnects(t *testing.T) {
	f, route := lineFabric(t, map[core.Priority]float64{1: 8})
	const attempts = 32
	var wg sync.WaitGroup
	results := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := make(core.Route, len(route))
			copy(r, route)
			for h := range r {
				r[h].In = core.PortID(i + 1)
			}
			_, err := f.Connect(testCtx(t), core.ConnRequest{
				ID: core.ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.01),
				Priority: 1, Route: r,
			})
			results[i] = err
		}(i)
	}
	wg.Wait()
	admitted, rejected := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, core.ErrRejected):
			rejected++
		default:
			t.Errorf("connection %d unexpected error: %v", i, err)
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("admitted %d rejected %d; scenario does not exercise contention", admitted, rejected)
	}
	// Every node's committed state matches the admitted set and stays
	// within its budget.
	for i := 0; i < 3; i++ {
		n, _ := f.Node(fmt.Sprintf("sw%d", i))
		if got := n.Switch().ConnectionCount(); got != admitted {
			t.Errorf("node sw%d carries %d connections, want %d", i, got, admitted)
		}
		d, err := n.Switch().ComputedBound(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d > 8+1e-9 {
			t.Errorf("node sw%d bound %g exceeds budget", i, d)
		}
	}
	if got := len(f.Established()); got != admitted {
		t.Errorf("Established count = %d, want %d", got, admitted)
	}
}

func TestConnectContextCancelled(t *testing.T) {
	f, route := lineFabric(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Connect(ctx, core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Connect error = %v, want context.Canceled", err)
	}
	// The protocol still completes in the background; eventually the
	// connection is established and can be disconnected.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(f.Established()) == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(f.Established()) != 1 {
		t.Fatal("abandoned setup never completed in the background")
	}
	if err := f.Disconnect(testCtx(t), "c1"); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndFailsFast(t *testing.T) {
	f, route := lineFabric(t, nil)
	f.Close()
	f.Close() // second close is a no-op
	if _, err := f.Connect(testCtx(t), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after Close error = %v, want ErrClosed", err)
	}
	if err := f.Disconnect(testCtx(t), "c1"); !errors.Is(err, ErrClosed) {
		t.Errorf("Disconnect after Close error = %v, want ErrClosed", err)
	}
	if _, err := f.AddNode(core.SwitchConfig{Name: "x", QueueCells: map[core.Priority]float64{1: 1}}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddNode after Close error = %v, want ErrClosed", err)
	}
}

func TestAddNodeValidation(t *testing.T) {
	f := NewFabric(core.SoftCDV{})
	t.Cleanup(f.Close)
	if _, err := f.AddNode(core.SwitchConfig{Name: "a"}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("invalid config error = %v", err)
	}
	if _, err := f.AddNode(core.SwitchConfig{Name: "a", QueueCells: map[core.Priority]float64{1: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddNode(core.SwitchConfig{Name: "a", QueueCells: map[core.Priority]float64{1: 8}}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("duplicate node error = %v", err)
	}
	if _, ok := f.Node("a"); !ok {
		t.Error("Node(a) not found")
	}
	if _, ok := f.Node("zz"); ok {
		t.Error("Node(zz) found")
	}
}

// TestSignalingMatchesSequentialSetup: the distributed protocol and the
// core.Network sequential path make identical decisions for the same
// request on the same state — the same admission, bit for bit, or the
// same refusal, down to its code and message.
func TestSignalingMatchesSequentialSetup(t *testing.T) {
	queues := map[core.Priority]float64{1: 64}
	bg := core.ConnRequest{ID: "bg", Spec: traffic.VBR(0.5, 0.1, 8), Priority: 1}
	probe := core.ConnRequest{ID: "probe", Spec: traffic.VBR(0.3, 0.05, 4), Priority: 1}
	cases := []struct {
		name string
		// prepare brings a side's network to the case's state.
		prepare  func(t *testing.T, n *core.Network)
		delay    float64
		wantCode string
		wantAt   string // the refusing switch of a rejection
	}{
		{name: "accept"},
		{name: "accept-at-budget", delay: 192},
		{
			name: "hop-rejection-at-last-hop",
			prepare: func(t *testing.T, n *core.Network) {
				sw2, _ := n.Switch("sw2")
				for i := 0; ; i++ {
					if _, err := sw2.Admit(core.HopRequest{
						Conn: core.ConnID(fmt.Sprintf("sat%d", i)), Spec: traffic.CBR(0.005),
						In: core.PortID(10 + i), Out: 0, Priority: 1,
					}); err != nil {
						return
					}
				}
			},
			wantCode: core.CodeQueueBudget, wantAt: "sw2",
		},
		{name: "end-to-end-budget", delay: 100, wantCode: core.CodeDelayBound, wantAt: "(end-to-end)"},
		{name: "negative-delay-bound", delay: -5, wantCode: core.CodeBadConfig},
		{
			name: "failed-link",
			prepare: func(t *testing.T, n *core.Network) {
				if _, err := n.FailLink("sw1", "sw2"); err != nil {
					t.Fatal(err)
				}
			},
			wantCode: core.CodeLinkDown,
		},
	}
	for _, policy := range []core.CDVPolicy{core.HardCDV{}, core.SoftCDV{}} {
		for _, tc := range cases {
			t.Run(policy.Name()+"/"+tc.name, func(t *testing.T) {
				f := NewFabric(policy)
				t.Cleanup(f.Close)
				n := core.NewNetwork(policy)
				route := make(core.Route, 3)
				for i := range route {
					cfg := core.SwitchConfig{Name: fmt.Sprintf("sw%d", i), QueueCells: queues}
					if _, err := f.AddNode(cfg); err != nil {
						t.Fatal(err)
					}
					if _, err := n.AddSwitch(cfg); err != nil {
						t.Fatal(err)
					}
					route[i] = core.Hop{Switch: cfg.Name, In: 1, Out: 0}
				}
				// Load both with an identical background connection.
				bg := bg
				bg.Route = make(core.Route, len(route))
				for h := range route {
					bg.Route[h] = core.Hop{Switch: route[h].Switch, In: 7, Out: 0}
				}
				if _, err := f.Connect(testCtx(t), bg); err != nil {
					t.Fatal(err)
				}
				if _, err := n.Setup(context.Background(), bg); err != nil {
					t.Fatal(err)
				}
				if tc.prepare != nil {
					tc.prepare(t, f.net)
					tc.prepare(t, n)
				}
				req := probe
				req.Route = route
				req.DelayBound = tc.delay
				got, gotErr := f.Connect(testCtx(t), req)
				want, wantErr := n.Setup(context.Background(), req)

				if code := core.ErrorCode(wantErr); code != tc.wantCode {
					t.Fatalf("sequential outcome %q (%v), want %q", code, wantErr, tc.wantCode)
				}
				if gc, wc := core.ErrorCode(gotErr), core.ErrorCode(wantErr); gc != wc {
					t.Fatalf("signaling code %q (%v), sequential code %q (%v)", gc, gotErr, wc, wantErr)
				}
				if wantErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Errorf("signaling error %q, sequential error %q", gotErr, wantErr)
					}
					var gotRej, wantRej *core.RejectionError
					if errors.As(wantErr, &wantRej) != errors.As(gotErr, &gotRej) {
						t.Fatalf("rejection detail differs: signaling %v, sequential %v", gotErr, wantErr)
					}
					if wantRej != nil {
						if *gotRej != *wantRej {
							t.Errorf("signaling rejection %+v, sequential %+v", *gotRej, *wantRej)
						}
						if wantRej.Switch != tc.wantAt {
							t.Errorf("rejected at %q, want %q", wantRej.Switch, tc.wantAt)
						}
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("signaling admission %+v, sequential %+v", *got, *want)
				}
			})
		}
	}
}
