package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"atmcac/internal/bitstream"
	"atmcac/internal/traffic"
)

func newTestSwitch(t *testing.T, queues map[Priority]float64) *Switch {
	t.Helper()
	sw, err := NewSwitch(SwitchConfig{Name: "sw", QueueCells: queues})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestNewSwitchValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     SwitchConfig
		wantErr bool
	}{
		{"valid", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: 32}}, false},
		{"two priorities", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: 32, 2: 128}}, false},
		{"no queues", SwitchConfig{Name: "a"}, true},
		{"priority zero", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{0: 32}}, true},
		{"negative priority", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{-1: 32}}, true},
		{"zero size", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: 0}}, true},
		{"negative size", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: -4}}, true},
		{"nan size", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: math.NaN()}}, true},
		{"inf size", SwitchConfig{Name: "a", QueueCells: map[Priority]float64{1: math.Inf(1)}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSwitch(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewSwitch error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadConfig) {
				t.Errorf("error %v does not wrap ErrBadConfig", err)
			}
		})
	}
}

func TestNewSwitchCopiesConfig(t *testing.T) {
	queues := map[Priority]float64{1: 32}
	sw, err := NewSwitch(SwitchConfig{Name: "a", QueueCells: queues})
	if err != nil {
		t.Fatal(err)
	}
	queues[1] = 1
	if d, _ := sw.GuaranteedBound(1); d != 32 {
		t.Fatalf("mutating caller's map changed the switch: bound = %g", d)
	}
}

func TestGuaranteedBound(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32, 2: 128})
	if d, ok := sw.GuaranteedBound(1); !ok || d != 32 {
		t.Errorf("GuaranteedBound(1) = %g, %v; want 32, true", d, ok)
	}
	if d, ok := sw.GuaranteedBound(2); !ok || d != 128 {
		t.Errorf("GuaranteedBound(2) = %g, %v; want 128, true", d, ok)
	}
	if _, ok := sw.GuaranteedBound(3); ok {
		t.Error("GuaranteedBound(3) reported an unconfigured priority")
	}
}

func TestAdmitBasic(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	res, err := sw.Admit(HopRequest{
		Conn: "c1", Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guaranteed != 32 {
		t.Errorf("Guaranteed = %g, want 32", res.Guaranteed)
	}
	d, ok := res.Bounds[1]
	if !ok {
		t.Fatal("Bounds missing the connection's priority")
	}
	// A single conforming CBR connection never queues behind itself.
	if d != 0 {
		t.Errorf("single CBR connection bound = %g, want 0", d)
	}
	if !sw.Has("c1") {
		t.Error("admitted connection not present")
	}
	if got := sw.ConnectionCount(); got != 1 {
		t.Errorf("ConnectionCount = %d, want 1", got)
	}
}

func TestCheckDoesNotCommit(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	if _, err := sw.Check(HopRequest{Conn: "c1", Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if sw.Has("c1") {
		t.Error("Check committed the connection")
	}
	if got := sw.ConnectionCount(); got != 0 {
		t.Errorf("ConnectionCount = %d, want 0", got)
	}
}

func TestAdmitDuplicate(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	req := HopRequest{Conn: "c1", Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 1}
	if _, err := sw.Admit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Admit(req); !errors.Is(err, ErrDuplicateConn) {
		t.Fatalf("second Admit error = %v, want ErrDuplicateConn", err)
	}
	if _, err := sw.Check(req); !errors.Is(err, ErrDuplicateConn) {
		t.Fatalf("Check of admitted conn error = %v, want ErrDuplicateConn", err)
	}
}

func TestRelease(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	req := HopRequest{Conn: "c1", Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 1}
	if _, err := sw.Admit(req); err != nil {
		t.Fatal(err)
	}
	if err := sw.Release("c1"); err != nil {
		t.Fatal(err)
	}
	if sw.Has("c1") {
		t.Error("released connection still present")
	}
	if err := sw.Release("c1"); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double Release error = %v, want ErrUnknownConn", err)
	}
	// The slot is reusable.
	if _, err := sw.Admit(req); err != nil {
		t.Fatalf("re-admission after release failed: %v", err)
	}
}

func TestValidateRequest(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	tests := []struct {
		name string
		req  HopRequest
		want error
	}{
		{"empty conn", HopRequest{Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 1}, ErrBadConfig},
		{"unknown priority", HopRequest{Conn: "c", Spec: traffic.CBR(0.1), In: 0, Out: 1, Priority: 9}, ErrBadConfig},
		{"invalid spec", HopRequest{Conn: "c", Spec: traffic.VBR(0, 0, 0), In: 0, Out: 1, Priority: 1}, traffic.ErrInvalidSpec},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := sw.Admit(tt.req); !errors.Is(err, tt.want) {
				t.Errorf("Admit error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestAdmitUntilRejection fills one output port with bursty connections on
// distinct incoming links until the FIFO budget rejects one, and verifies
// the rejection leaves the switch state untouched.
func TestAdmitUntilRejection(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 8})
	admitted := 0
	var rejection *RejectionError
	for i := 0; i < 64; i++ {
		_, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)),
			Spec: traffic.CBR(0.01),
			In:   PortID(i + 1), Out: 0, Priority: 1,
		})
		if err != nil {
			if !errors.As(err, &rejection) {
				t.Fatalf("unexpected error type: %v", err)
			}
			break
		}
		admitted++
	}
	if rejection == nil {
		t.Fatal("64 simultaneous bursts on an 8-cell queue were all admitted")
	}
	// Simultaneous unit-rate first cells from k distinct links give a bound
	// of about k-1 cell times; a budget of 8 admits 9.
	if admitted != 9 {
		t.Errorf("admitted %d connections, want 9", admitted)
	}
	if !errors.Is(rejection, ErrRejected) {
		t.Error("RejectionError does not wrap ErrRejected")
	}
	if rejection.Switch != "sw" || rejection.Priority != 1 {
		t.Errorf("rejection = %+v, want switch sw priority 1", rejection)
	}
	if got := sw.ConnectionCount(); got != admitted {
		t.Errorf("rejection mutated state: count %d, want %d", got, admitted)
	}
	// The computed bound of the committed set stays within the budget.
	d, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d > 8+1e-9 {
		t.Errorf("committed bound %g exceeds budget 8", d)
	}
}

// TestFilteringEffectOfSharedLink: the same connections arriving via one
// shared incoming link are pre-smoothed by that link and produce a zero
// bound, while the same set on distinct links bursts simultaneously. This is
// the "filtering effect" the paper exploits for tighter bounds.
func TestFilteringEffectOfSharedLink(t *testing.T) {
	const k = 10
	shared := newTestSwitch(t, map[Priority]float64{1: 32})
	distinct := newTestSwitch(t, map[Priority]float64{1: 32})
	for i := 0; i < k; i++ {
		id := ConnID(fmt.Sprintf("c%d", i))
		if _, err := shared.Admit(HopRequest{Conn: id, Spec: traffic.CBR(0.05), In: 1, Out: 0, Priority: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := distinct.Admit(HopRequest{Conn: id, Spec: traffic.CBR(0.05), In: PortID(i + 1), Out: 0, Priority: 1}); err != nil {
			t.Fatal(err)
		}
	}
	dShared, err := shared.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dDistinct, err := distinct.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dShared != 0 {
		t.Errorf("shared-link bound = %g, want 0 (link pre-filters the aggregate)", dShared)
	}
	if math.Abs(dDistinct-(k-1)) > 1e-9 {
		t.Errorf("distinct-link bound = %g, want %d (simultaneous unit-rate cells)", dDistinct, k-1)
	}
}

func TestAdmitRejectsUnstable(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6})
	if _, err := sw.Admit(HopRequest{Conn: "a", Spec: traffic.CBR(0.6), In: 1, Out: 0, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := sw.Admit(HopRequest{Conn: "b", Spec: traffic.CBR(0.6), In: 2, Out: 0, Priority: 1})
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("error = %v, want RejectionError", err)
	}
	if !math.IsInf(rej.Bound, 1) {
		t.Errorf("unstable rejection bound = %g, want +Inf", rej.Bound)
	}
}

// TestLowerPriorityProtection: a new high-priority connection that would
// push an existing lower-priority queue past its budget is rejected (Steps
// 5-6 of Section 4.3).
func TestLowerPriorityProtection(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1000, 2: 25})
	// Lower-priority load close to its own budget.
	for i := 0; i < 20; i++ {
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("low%d", i)),
			Spec: traffic.CBR(0.02),
			In:   PortID(i + 1), Out: 0, Priority: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dLow, err := sw.ComputedBound(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dLow > 25 {
		t.Fatalf("setup broken: low-priority bound %g already over budget", dLow)
	}
	// A heavy high-priority burst steals service from priority 2; its own
	// generous budget passes but priority 2's does not.
	_, err = sw.Admit(HopRequest{
		Conn: "high", Spec: traffic.VBR(1, 0.4, 40), In: 30, Out: 0, Priority: 1,
	})
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("error = %v, want RejectionError protecting the lower priority", err)
	}
	if rej.Priority != 2 {
		t.Errorf("rejection at priority %d, want 2", rej.Priority)
	}
	if sw.Has("high") {
		t.Error("rejected connection was committed")
	}
}

// TestHigherPriorityUnaffected: admitting a low-priority connection does not
// evaluate (and cannot reject on) higher-priority queues.
func TestHigherPriorityUnaffected(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 4, 2: 1000})
	// Fill priority 1 to its limit.
	for i := 0; i < 5; i++ {
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("hi%d", i)),
			Spec: traffic.CBR(0.01),
			In:   PortID(i + 1), Out: 0, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A low-priority connection must still be admissible; its own bound
	// accounts for the priority-1 interference.
	res, err := sw.Admit(HopRequest{
		Conn: "low", Spec: traffic.CBR(0.01), In: 10, Out: 0, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Bounds[1]; ok {
		t.Error("low-priority admission reported a bound for the higher priority")
	}
	if res.Bounds[2] <= 0 {
		t.Errorf("low-priority bound = %g, want > 0 (delayed behind priority 1)", res.Bounds[2])
	}
}

func TestCDVWorsensBound(t *testing.T) {
	mk := func(cdv float64) float64 {
		sw := newTestSwitch(t, map[Priority]float64{1: 1000})
		for i := 0; i < 8; i++ {
			if _, err := sw.Admit(HopRequest{
				Conn: ConnID(fmt.Sprintf("c%d", i)),
				Spec: traffic.VBR(0.5, 0.05, 10),
				In:   PortID(i + 1), Out: 0, Priority: 1,
				CDV: cdv,
			}); err != nil {
				t.Fatal(err)
			}
		}
		d, err := sw.ComputedBound(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d0, d64 := mk(0), mk(64)
	if d64 <= d0 {
		t.Errorf("bound with CDV=64 (%g) not larger than with CDV=0 (%g)", d64, d0)
	}
}

func TestComputedBoundEmptyPort(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	d, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("bound of empty port = %g, want 0", d)
	}
	if _, err := sw.ComputedBound(0, 9); !errors.Is(err, ErrBadConfig) {
		t.Errorf("ComputedBound with unknown priority error = %v, want ErrBadConfig", err)
	}
}

func TestMaxBacklogWithinBudget(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 8})
	for i := 0; i < 9; i++ {
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)),
			Spec: traffic.CBR(0.01),
			In:   PortID(i + 1), Out: 0, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := sw.MaxBacklog(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q > d+1e-9 {
		t.Errorf("backlog %g exceeds delay bound %g", q, d)
	}
	if q > 8+1e-9 {
		t.Errorf("backlog %g exceeds the 8-cell queue", q)
	}
	if _, err := sw.MaxBacklog(0, 9); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MaxBacklog with unknown priority error = %v, want ErrBadConfig", err)
	}
}

func TestOutPorts(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 32})
	if got := sw.OutPorts(); len(got) != 0 {
		t.Fatalf("OutPorts of empty switch = %v", got)
	}
	for i, out := range []PortID{3, 1, 3} {
		if _, err := sw.Admit(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.01),
			In: 0, Out: out, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := sw.OutPorts()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("OutPorts = %v, want [1 3]", got)
	}
}

func TestInstallSkipsCheck(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1})
	// 8 simultaneous bursts would fail Admit on a 1-cell queue but Install
	// accepts them; the violation surfaces in the computed bound.
	for i := 0; i < 8; i++ {
		if err := sw.Install(HopRequest{
			Conn: ConnID(fmt.Sprintf("c%d", i)),
			Spec: traffic.CBR(0.01),
			In:   PortID(i + 1), Out: 0, Priority: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := sw.ComputedBound(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 1 {
		t.Errorf("bound = %g, want > 1 (installed set over budget)", d)
	}
	if err := sw.Install(HopRequest{Conn: "c0", Spec: traffic.CBR(0.01), In: 1, Out: 0, Priority: 1}); !errors.Is(err, ErrDuplicateConn) {
		t.Errorf("duplicate Install error = %v, want ErrDuplicateConn", err)
	}
}

// TestCellExactnessCeiling: a cell's Sia is exact below 2²¹ link rates and
// its peak is its member count, so Admit and Install alike refuse, as a
// configuration error, a hop that would take a cell to 2²¹ members. The
// full cell is planted, not filled.
func TestCellExactnessCeiling(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6})
	spec := traffic.VBR(0.01, 0.001, 4)
	if err := sw.Install(HopRequest{Conn: "a", Spec: spec, In: 1, Out: 0, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	st := sw.state.Load()
	st.ports[0].links[0].cells[0].sia = bitstream.Constant(maxCellMembers - 1)
	req := HopRequest{Conn: "b", Spec: spec, In: 1, Out: 0, Priority: 1}
	if _, err := sw.Admit(req); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Admit into a full cell: %v, want ErrBadConfig", err)
	}
	if err := sw.Install(req); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Install into a full cell: %v, want ErrBadConfig", err)
	}
	if sw.state.Load() != st || sw.Has("b") {
		t.Error("a refused hop changed the published state")
	}
}

// TestReleaseRefusesCorruptCell: a cell whose Sia does not hold a member's
// arrival cannot be demultiplexed, so Release reports the corruption and
// publishes nothing.
func TestReleaseRefusesCorruptCell(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6})
	if err := sw.Install(HopRequest{Conn: "a", Spec: traffic.VBR(0.01, 0.001, 4), In: 1, Out: 0, Priority: 1}); err != nil {
		t.Fatal(err)
	}
	st := sw.state.Load()
	st.ports[0].links[0].cells[0].sia = bitstream.Zero()
	if err := sw.Release("a"); !errors.Is(err, bitstream.ErrNotComponent) {
		t.Errorf("Release from a corrupt cell: %v, want ErrNotComponent", err)
	}
	if sw.state.Load() != st || !sw.Has("a") {
		t.Error("a failed release changed the published state")
	}
}
