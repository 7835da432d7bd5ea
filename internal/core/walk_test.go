package core

import (
	"context"
	"errors"
	"testing"

	"atmcac/internal/traffic"
)

// TestWalkRenameWrappedRoute: renaming a walk re-labels every reservation
// once per switch, even on a route that visits a switch twice, and a
// rename onto an ID in use is refused without disturbing the walk.
func TestWalkRenameWrappedRoute(t *testing.T) {
	n, _ := twoHopNetwork(t, HardCDV{})
	wrapped := Route{
		{Switch: "sw0", In: 1, Out: 0},
		{Switch: "sw1", In: 0, Out: 0},
		{Switch: "sw0", In: 2, Out: 1},
	}
	taken := ConnRequest{ID: "taken", Spec: traffic.CBR(0.01), Priority: 1, Route: wrapped[1:2]}
	if _, err := n.Setup(context.Background(), taken); err != nil {
		t.Fatal(err)
	}
	w, err := n.Begin(context.Background(), ConnRequest{ID: "probe", Spec: traffic.CBR(0.1), Priority: 1, Route: wrapped})
	if err != nil {
		t.Fatal(err)
	}
	for range wrapped {
		if _, err := w.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rename("taken"); !errors.Is(err, ErrDuplicateConn) {
		t.Fatalf("rename onto an admitted ID = %v, want ErrDuplicateConn", err)
	}
	if err := w.Rename("c"); err != nil {
		t.Fatal(err)
	}
	adm, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if adm.ID != "c" || len(adm.PerHopComputed) != len(wrapped) {
		t.Fatalf("admission = %+v, want c over %d hops", adm, len(wrapped))
	}
	for _, name := range []string{"sw0", "sw1"} {
		sw, _ := n.Switch(name)
		if sw.Has("probe") || !sw.Has("c") {
			t.Errorf("%s: probe held %v, c held %v; want only c", name, sw.Has("probe"), sw.Has("c"))
		}
	}
	// The old ID is free again.
	if _, err := n.Begin(context.Background(), ConnRequest{ID: "probe", Spec: traffic.CBR(0.1), Priority: 1, Route: wrapped[:1]}); err != nil {
		t.Fatalf("probe ID still reserved after rename: %v", err)
	}
}
