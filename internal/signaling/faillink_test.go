package signaling

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// faultFabric builds n0 -> n1 -> ... with 32-cell priority-1 queues.
func faultFabric(t *testing.T, nodes int) (*Fabric, func(origin, hops int) core.Route) {
	t.Helper()
	f := NewFabric(nil)
	for i := 0; i < nodes; i++ {
		if _, err := f.AddNode(core.SwitchConfig{
			Name:       fmt.Sprintf("n%d", i),
			QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	route := func(origin, hops int) core.Route {
		r := make(core.Route, hops)
		for h := 0; h < hops; h++ {
			r[h] = core.Hop{Switch: fmt.Sprintf("n%d", origin+h), In: 1, Out: 0}
		}
		return r
	}
	return f, route
}

func TestFabricFailLinkEvictsTraversing(t *testing.T) {
	f, route := faultFabric(t, 4)
	defer f.Close()
	ctx := context.Background()
	for _, c := range []struct {
		id core.ConnID
		r  core.Route
	}{
		{"crosses", route(0, 3)}, // n0, n1, n2
		{"local", route(2, 2)},   // n2, n3
	} {
		if _, err := f.Connect(ctx, core.ConnRequest{
			ID: c.id, Spec: traffic.CBR(0.01), Priority: 1, Route: c.r,
		}); err != nil {
			t.Fatal(err)
		}
	}
	evicted, err := f.FailLink("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].ID != "crosses" {
		t.Fatalf("evicted = %+v, want [crosses]", evicted)
	}
	if ids := f.Established(); len(ids) != 1 || ids[0] != "local" {
		t.Fatalf("established = %v, want [local]", ids)
	}
	for _, name := range []string{"n0", "n1", "n2"} {
		n, _ := f.Node(name)
		if n.Switch().Has("crosses") {
			t.Errorf("node %s still carries the evicted connection", name)
		}
	}
	// Idempotent on an already-failed link.
	if again, err := f.FailLink("n1", "n2"); err != nil || len(again) != 0 {
		t.Fatalf("second FailLink = %v, %v", again, err)
	}
	// A new setup over the failed link is refused before any SETUP leaves.
	if _, err := f.Connect(ctx, core.ConnRequest{
		ID: "late", Spec: traffic.CBR(0.01), Priority: 1, Route: route(0, 3),
	}); !errors.Is(err, core.ErrLinkDown) {
		t.Fatalf("Connect over failed link = %v, want ErrLinkDown", err)
	}
	if err := f.RestoreLink("n1", "n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Connect(ctx, core.ConnRequest{
		ID: "late", Spec: traffic.CBR(0.01), Priority: 1, Route: route(0, 3),
	}); err != nil {
		t.Fatalf("Connect after restore: %v", err)
	}
}

func TestFabricFailLinkValidation(t *testing.T) {
	f, _ := faultFabric(t, 2)
	defer f.Close()
	if _, err := f.FailLink("n0", "ghost"); !errors.Is(err, core.ErrUnknownSwitch) {
		t.Fatalf("unknown endpoint = %v, want core.ErrUnknownSwitch", err)
	}
	if _, err := f.FailLink("n0", "n0"); !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("self link = %v, want ErrBadConfig", err)
	}
	if err := f.RestoreLink("n0", "n1"); !errors.Is(err, core.ErrBadConfig) {
		t.Fatalf("restore healthy link = %v, want ErrBadConfig", err)
	}
	if _, err := f.FailLink("n0", "n1"); err != nil {
		t.Fatal(err)
	}
	if links := f.FailedLinks(); len(links) != 1 || links[0] != (core.Link{From: "n0", To: "n1"}) {
		t.Fatalf("FailedLinks = %v", links)
	}
}

// TestFabricFailLinkConnectRace races distributed setups across a link with
// fail/restore cycles and checks that no connection survives established
// over the finally-failed link.
func TestFabricFailLinkConnectRace(t *testing.T) {
	f, route := faultFabric(t, 5)
	defer f.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for g := 0; g < 120; g++ {
			id := core.ConnID(fmt.Sprintf("c%03d", g))
			_, err := f.Connect(ctx, core.ConnRequest{
				ID: id, Spec: traffic.CBR(0.0005), Priority: 1,
				Route: route(g%2, 3),
			})
			if err != nil && !errors.Is(err, core.ErrLinkDown) && !errors.Is(err, core.ErrRejected) {
				t.Errorf("connect %s: %v", id, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 15; r++ {
			if _, err := f.FailLink("n2", "n3"); err != nil {
				t.Errorf("fail: %v", err)
			}
			if err := f.RestoreLink("n2", "n3"); err != nil {
				t.Errorf("restore: %v", err)
			}
		}
		if _, err := f.FailLink("n2", "n3"); err != nil {
			t.Errorf("final fail: %v", err)
		}
	}()
	wg.Wait()

	for _, req := range f.net.AdmittedRequests() {
		for i := 0; i+1 < len(req.Route); i++ {
			if req.Route[i].Switch == "n2" && req.Route[i+1].Switch == "n3" {
				t.Errorf("connection %s established over failed link n2->n3", req.ID)
			}
		}
	}
}
