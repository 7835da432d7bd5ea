package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/routing"
	"atmcac/internal/topology"
	"atmcac/internal/workload"
)

// generatedStateCase builds a generated topology, routes a sampled fleet
// across it host-to-host, and returns the network plus the admissible
// requests — the inputs the state codec must preserve exactly. Everything
// derives from the fixed seed, so the same case reproduces bit-identically
// in the fuzz corpus and the round-trip test.
func generatedStateCase(tb testing.TB, seed uint64) (*core.Network, []core.ConnRequest) {
	tb.Helper()
	g, err := topology.Campus(topology.CampusConfig{
		Buildings: 2, FloorsPerBuilding: 2, HostsPerFloor: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	n, err := routing.BuildNetwork(g, map[core.Priority]float64{1: 32, 2: 128}, core.HardCDV{})
	if err != nil {
		tb.Fatal(err)
	}
	fleet, err := workload.SampleFleet(seed, workload.FleetConfig{}, 24)
	if err != nil {
		tb.Fatal(err)
	}
	// Host endpoints in fixed pair order; templates cycle across them.
	var hosts []topology.NodeID
	for b := 0; b < 2; b++ {
		for f := 0; f < 2; f++ {
			hosts = append(hosts, topology.CampusHost(b, f, 0))
		}
	}
	var admitted []core.ConnRequest
	for i, tmpl := range fleet {
		from := hosts[i%len(hosts)]
		to := hosts[(i+1)%len(hosts)]
		route, err := routing.Route(g, from, to)
		if err != nil {
			tb.Fatalf("route %s -> %s: %v", from, to, err)
		}
		req := core.ConnRequest{
			ID:         core.ConnID(fmt.Sprintf("gen-%d", i)),
			Spec:       tmpl.Spec,
			Priority:   tmpl.Priority,
			Route:      route,
			DelayBound: 512,
		}
		if _, err := n.Setup(context.Background(), req); err != nil {
			continue // fleet member rejected by CAC; snapshot holds admitted only
		}
		admitted = append(admitted, req)
	}
	if len(admitted) == 0 {
		tb.Fatal("generated case admitted no connections; seed or fleet config degenerate")
	}
	return n, admitted
}

// TestStateRoundTripGeneratedTopology runs a generated-campus admission
// state through the codec: SaveState, LoadState, and Recover onto a
// freshly built network of the same topology must reproduce the
// connection set exactly.
func TestStateRoundTripGeneratedTopology(t *testing.T) {
	_, admitted := generatedStateCase(t, 42)
	t.Logf("generated case admitted %d/24 fleet members", len(admitted))

	statePath := filepath.Join(t.TempDir(), "state.json")
	store := NewStateStore(statePath)
	if err := store.SaveState(PersistentState{Connections: admitted}); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	st, _, err := store.LoadState()
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	back := st.Connections
	if len(back) != len(admitted) {
		t.Fatalf("round trip changed length: %d -> %d", len(admitted), len(back))
	}
	for i := range admitted {
		if back[i].ID != admitted[i].ID ||
			back[i].Spec != admitted[i].Spec ||
			back[i].Priority != admitted[i].Priority ||
			back[i].DelayBound != admitted[i].DelayBound ||
			len(back[i].Route) != len(admitted[i].Route) {
			t.Fatalf("round trip drifted at %d:\n  sent %+v\n  got  %+v", i, admitted[i], back[i])
		}
		for h := range admitted[i].Route {
			if back[i].Route[h] != admitted[i].Route[h] {
				t.Fatalf("route hop %d of %s drifted: %+v -> %+v",
					h, admitted[i].ID, admitted[i].Route[h], back[i].Route[h])
			}
		}
	}

	// Recover onto a fresh network of the same generated topology: every
	// request that was admissible originally must be admissible again.
	g, err := topology.Campus(topology.CampusConfig{Buildings: 2, FloorsPerBuilding: 2, HostsPerFloor: 1})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := routing.BuildNetwork(g, map[core.Priority]float64{1: 32, 2: 128}, core.HardCDV{})
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurable(DurableConfig{StatePath: statePath})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	rep, err := dur.Recover(empty)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Failed) != 0 || rep.Restored != len(admitted) {
		t.Fatalf("Recover restored %d with %d failures, want %d with 0", rep.Restored, len(rep.Failed), len(admitted))
	}
	if viols, err := empty.Audit(); err != nil || len(viols) != 0 {
		t.Fatalf("restored network audit: %d violations, err=%v", len(viols), err)
	}
}

// generatedCorpusSeed serializes the generated-topology admitted set for
// the FuzzStateRoundTrip corpus. Corpus generation must never fail, so it
// uses a throwaway testing.T via a subtest-free fuzz seed path.
func generatedCorpusSeed(f *testing.F, seed uint64) []byte {
	f.Helper()
	_, admitted := generatedStateCase(f, seed)
	data, err := json.Marshal(admitted)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
