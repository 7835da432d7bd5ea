package core

import (
	"context"
	"fmt"
	"testing"

	"atmcac/internal/traffic"
)

// admitResidentAllocs is what one Admit + Release costs on the switch
// below: the hop's envelope, its index entry, the port, link and cell
// slices, one stream each for the cell's Sia, its Sif, the link's
// higher-priority share and the port's Soa, raw higher-priority sum and
// Sof, the published state and the HopResult. None of it depends on the
// number of residents or on how many connections a cell holds.
const admitResidentAllocs = 27

// admitResidentCost installs n residents on a switch shaped like a loaded
// ring node (the root BenchmarkAdmitResident): one output port fed by 16
// incoming links at two priorities, five CDV classes per cell. It returns
// the allocations of one Admit + Release of a probe on that switch.
func admitResidentCost(t *testing.T, n int) float64 {
	t.Helper()
	sw := newTestSwitch(t, map[Priority]float64{1: 1e6, 2: 2e6})
	spec := traffic.VBR(0.0004, 0.00001, 4)
	for i := 0; i < n; i++ {
		if err := sw.Install(HopRequest{
			Conn: ConnID(fmt.Sprintf("r%06d", i)), Spec: spec,
			In: PortID(i % 16), Out: 0,
			Priority: Priority(1 + i/16%2), CDV: float64(4096 * (i / 32 % 5)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	probe := HopRequest{Conn: "probe", Spec: spec, In: 5, Out: 0, Priority: 1, CDV: 8192}
	return testing.AllocsPerRun(50, func() {
		if _, err := sw.Admit(probe); err != nil {
			t.Fatal(err)
		}
		if err := sw.Release("probe"); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAdmitResidentAllocs pins the allocations of admission at 1k
// residents.
func TestAdmitResidentAllocs(t *testing.T) {
	if got := admitResidentCost(t, 1<<10); got > admitResidentAllocs {
		t.Errorf("Admit + Release: %v allocations, want <= %d", got, admitResidentAllocs)
	}
}

// TestAdmitResidentAllocsFlat: sixteen times the residents may cost a few
// allocations more and nothing else, because a cell's Sia is one stream
// updated in place of its members and the ConnID index is a map.
func TestAdmitResidentAllocsFlat(t *testing.T) {
	small, large := admitResidentCost(t, 1<<10), admitResidentCost(t, 1<<14)
	if large > small+4 {
		t.Errorf("Admit + Release: %v allocations at 16k residents, %v at 1k; want at most 4 more", large, small)
	}
	t.Logf("Admit + Release: %v allocations at 1k residents, %v at 16k", small, large)
}

// Allocations of one network-level setup or install plus its teardown on
// the 3-hop route of TestNetworkSetupAllocs: the Admit + Release costs of
// three empty switches, the ID bookkeeping, the resolved route and the
// Admission.
const (
	networkSetupAllocs   = 45
	networkInstallAllocs = 43
)

// TestNetworkSetupAllocs pins the allocations of Network.Setup + Teardown
// and Network.Install + Teardown over a 3-hop route under both CDV
// policies, so the hop walk every admission path shares cannot grow them.
func TestNetworkSetupAllocs(t *testing.T) {
	for _, policy := range []CDVPolicy{HardCDV{}, SoftCDV{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			n := NewNetwork(policy)
			route := make(Route, 3)
			for i := range route {
				name := fmt.Sprintf("sw%d", i)
				if _, err := n.AddSwitch(SwitchConfig{Name: name, QueueCells: map[Priority]float64{1: 1e6}}); err != nil {
					t.Fatal(err)
				}
				route[i] = Hop{Switch: name, In: 1, Out: 0}
			}
			req := ConnRequest{ID: "c", Spec: traffic.VBR(0.01, 0.001, 4), Priority: 1, Route: route}
			ctx := context.Background()
			setup := testing.AllocsPerRun(50, func() {
				if _, err := n.Setup(ctx, req); err != nil {
					t.Fatal(err)
				}
				if err := n.Teardown(req.ID); err != nil {
					t.Fatal(err)
				}
			})
			if setup > networkSetupAllocs {
				t.Errorf("Setup + Teardown: %v allocations, want <= %d", setup, networkSetupAllocs)
			}
			install := testing.AllocsPerRun(50, func() {
				if err := n.Install(req); err != nil {
					t.Fatal(err)
				}
				if err := n.Teardown(req.ID); err != nil {
					t.Fatal(err)
				}
			})
			if install > networkInstallAllocs {
				t.Errorf("Install + Teardown: %v allocations, want <= %d", install, networkInstallAllocs)
			}
			t.Logf("Setup + Teardown %v, Install + Teardown %v", setup, install)
		})
	}
}
