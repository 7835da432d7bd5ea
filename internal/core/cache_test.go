package core

import (
	"fmt"
	"testing"

	"atmcac/internal/traffic"
)

// TestCacheInvalidationOnMutations: the per-port cells are the only copy of
// the aggregates, so repeated bound queries read the same streams, every
// mutation (admit, install, release) publishes re-summed ones, and a release
// brings back the earlier value bit for bit.
func TestCacheInvalidationOnMutations(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6})
	admit := func(i int) {
		t.Helper()
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.VBR(0.4, 0.01, 8),
			In: PortID(i), Out: 0, Priority: 1, CDV: 32,
		}); err != nil {
			t.Fatal(err)
		}
	}
	admit(1)
	d1, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated query: identical result.
	d1again, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d1again {
		t.Fatalf("repeated bound differs: %g vs %g", d1, d1again)
	}
	// Admit re-sums.
	admit(2)
	d2, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Fatalf("bound after second admission %g not above %g (stale cell?)", d2, d1)
	}
	// Install re-sums.
	if err := sw.Install(HopRequest{
		Conn: "inst", Spec: traffic.VBR(0.4, 0.01, 8),
		In: 7, Out: 0, Priority: 1, CDV: 32,
	}); err != nil {
		t.Fatal(err)
	}
	d3, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d3 <= d2 {
		t.Fatalf("bound after install %g not above %g (stale cell?)", d3, d2)
	}
	// Release re-sums and restores the earlier value exactly.
	if err := sw.Release("inst"); err != nil {
		t.Fatal(err)
	}
	d4, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d4 != d2 {
		t.Fatalf("bound after release %g, want %g", d4, d2)
	}
}

// TestCacheNotPoisonedByCheck: Check builds the candidate's successor state
// but never publishes it, so the cells readers see stay candidate-free.
func TestCacheNotPoisonedByCheck(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6})
	if _, err := sw.Admit(HopRequest{
		Conn: "base", Spec: traffic.VBR(0.4, 0.01, 8), In: 1, Out: 0, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	before, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A Check evaluates bounds with a hypothetical heavy connection.
	if _, err := sw.Check(HopRequest{
		Conn: "ghost", Spec: traffic.VBR(0.5, 0.1, 32), In: 2, Out: 0, Priority: 1, CDV: 96,
	}); err != nil {
		t.Fatal(err)
	}
	after, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("Check changed the published bound: %g vs %g", before, after)
	}
}
