package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"atmcac/internal/traffic"
)

// randomConnSet is a quick-generable set of connection requests over a
// 3-switch line with random specs, entry ports and CDVs.
type randomConnSet struct {
	Specs []traffic.Spec
	CDVs  []float64
	Ins   []int
}

// Generate implements quick.Generator.
func (randomConnSet) Generate(r *rand.Rand, _ int) reflect.Value {
	k := 2 + r.Intn(5)
	set := randomConnSet{}
	for i := 0; i < k; i++ {
		pcr := 0.05 + 0.4*r.Float64()
		scr := pcr * (0.05 + 0.3*r.Float64()) / float64(k)
		set.Specs = append(set.Specs, traffic.VBR(pcr, scr, float64(1+r.Intn(10))))
		set.CDVs = append(set.CDVs, 64*r.Float64())
		set.Ins = append(set.Ins, 1+r.Intn(6))
	}
	return reflect.ValueOf(set)
}

// admitAll admits the set onto a fresh switch in the given order; it
// returns the switch and whether every connection was admitted.
func admitAll(t *testing.T, set randomConnSet, order []int, queue float64) (*Switch, bool) {
	t.Helper()
	sw, err := NewSwitch(SwitchConfig{Name: "sw", QueueCells: map[Priority]float64{1: queue}})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range order {
		_, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)),
			Spec: set.Specs[i],
			In:   PortID(set.Ins[i]), Out: 0, Priority: 1,
			CDV: set.CDVs[i],
		})
		if errors.Is(err, ErrRejected) {
			return sw, false
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sw, true
}

// TestPropAdmissionOrderIndependent: with fixed per-switch bounds, the
// final computed bound of a fully-admitted set does not depend on the
// admission order — the property that justifies offline planning. A
// cell's Sia is summed exactly on the rate grid, so "does not depend" is ==.
func TestPropAdmissionOrderIndependent(t *testing.T) {
	f := func(set randomConnSet, seed int64) bool {
		order := make([]int, len(set.Specs))
		for i := range order {
			order[i] = i
		}
		fwd, okFwd := admitAll(t, set, order, 1e6)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		shuffled, okShuf := admitAll(t, set, order, 1e6)
		if !okFwd || !okShuf {
			// With an effectively unlimited queue everything is admitted
			// unless the set is unstable; both orders must then agree on
			// infeasibility of some prefix, which a huge queue reduces to
			// the unstable case only — also order-independent.
			return okFwd == okShuf
		}
		d1, err1 := fwd.ComputedBound(0, 1)
		d2, err2 := shuffled.ComputedBound(0, 1)
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		return d1 == d2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropAdmittedPrefixPassesAudit: whatever prefix the sequential
// admission accepts onto a tight queue is audit-clean.
func TestPropAdmittedPrefixPassesAudit(t *testing.T) {
	f := func(set randomConnSet) bool {
		n := NewNetwork(HardCDV{})
		if _, err := n.AddSwitch(SwitchConfig{Name: "sw", QueueCells: map[Priority]float64{1: 12}}); err != nil {
			t.Fatal(err)
		}
		for i := range set.Specs {
			_, err := n.Setup(context.Background(), ConnRequest{
				ID:        ConnID(fmt.Sprintf("c%d", i)),
				Spec:      set.Specs[i],
				Priority:  1,
				Route:     Route{{Switch: "sw", In: PortID(set.Ins[i]), Out: 0}},
				SourceCDV: set.CDVs[i],
			})
			if err != nil && !errors.Is(err, ErrRejected) {
				t.Fatal(err)
			}
		}
		violations, err := n.Audit()
		if err != nil {
			t.Fatal(err)
		}
		return len(violations) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropTeardownRestoresBounds: admit a base set, record the bound,
// admit and tear down an extra connection, and the bound returns exactly.
func TestPropTeardownRestoresBounds(t *testing.T) {
	f := func(set randomConnSet, extraSeed int64) bool {
		n := NewNetwork(HardCDV{})
		if _, err := n.AddSwitch(SwitchConfig{Name: "sw", QueueCells: map[Priority]float64{1: 1e6}}); err != nil {
			t.Fatal(err)
		}
		route := Route{{Switch: "sw", In: 1, Out: 0}}
		for i := range set.Specs {
			if _, err := n.Setup(context.Background(), ConnRequest{
				ID:        ConnID(fmt.Sprintf("c%d", i)),
				Spec:      set.Specs[i],
				Priority:  1,
				Route:     Route{{Switch: "sw", In: PortID(set.Ins[i]), Out: 0}},
				SourceCDV: set.CDVs[i],
			}); err != nil {
				return errors.Is(err, ErrRejected)
			}
		}
		before, errBefore := n.RouteBound(route, 1)
		rng := rand.New(rand.NewSource(extraSeed))
		extra := ConnRequest{
			ID:       "extra",
			Spec:     traffic.VBR(0.3, 0.01, float64(1+rng.Intn(8))),
			Priority: 1,
			Route:    Route{{Switch: "sw", In: 9, Out: 0}},
		}
		if _, err := n.Setup(context.Background(), extra); err != nil {
			return errors.Is(err, ErrRejected)
		}
		if err := n.Teardown("extra"); err != nil {
			t.Fatal(err)
		}
		after, errAfter := n.RouteBound(route, 1)
		if errBefore != nil || errAfter != nil {
			return (errBefore == nil) == (errAfter == nil)
		}
		return before == after
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropBoundMonotoneUnderAdmission: each successive admission can only
// raise the port's computed bound.
func TestPropBoundMonotoneUnderAdmission(t *testing.T) {
	f := func(set randomConnSet) bool {
		sw, err := NewSwitch(SwitchConfig{Name: "sw", QueueCells: map[Priority]float64{1: 1e6}})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for i := range set.Specs {
			_, err := sw.Admit(HopRequest{
				Conn: ConnID(fmt.Sprintf("c%d", i)),
				Spec: set.Specs[i],
				In:   PortID(set.Ins[i]), Out: 0, Priority: 1,
				CDV: set.CDVs[i],
			})
			if errors.Is(err, ErrRejected) {
				return true // unstable tail; earlier prefix was monotone
			}
			if err != nil {
				t.Fatal(err)
			}
			d, err := sw.ComputedBound(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d < prev-1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
