package wire

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// fuzzNetwork builds a small two-switch line the decoded requests are
// executed against, so the fuzzer exercises the full server handling path
// (decode -> validate -> admit/query -> encode), not just json.Unmarshal.
func fuzzNetwork(tb testing.TB) *core.Network {
	tb.Helper()
	n := core.NewNetwork(core.HardCDV{})
	for _, name := range []string{"ring00", "ring01"} {
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name:       name,
			QueueCells: map[core.Priority]float64{1: 32, 2: 128},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// FuzzDecodeRequest fuzzes one protocol line end to end, mirroring the
// bitstream fuzzers: any byte sequence must either fail to decode cleanly
// or decode, execute, and produce a response that re-encodes to valid JSON
// (the invariant serveConn relies on — an unencodable response silently
// kills the client's connection). It must never panic.
func FuzzDecodeRequest(f *testing.F) {
	// Seed corpus: the request examples of docs/PROTOCOL.md.
	f.Add([]byte(`{"op": "setup", "request": {"id": "press-42", "spec": {"pcr": 0.5, "scr": 0.05, "mbs": 8, "cdvt": 12}, "priority": 1, "route": [{"switch": "ring00", "in": 1, "out": 0}, {"switch": "ring01", "in": 0, "out": 0}], "delayBound": 64, "sourceCDV": 0}}`))
	f.Add([]byte(`{"op": "teardown", "id": "conn-id"}`))
	f.Add([]byte(`{"op": "list"}`))
	f.Add([]byte(`{"op": "bound", "route": [{"switch": "ring00", "in": 1, "out": 0}], "priority": 1}`))
	f.Add([]byte(`{"op": "inspect", "switch": "ring03"}`))
	f.Add([]byte(`{"op": "inspect"}`))
	f.Add([]byte(`{"op": "audit"}`))
	// Malformed and adversarial shapes.
	f.Add([]byte(`{"op": "setup"}`))
	f.Add([]byte(`{"op": "setup", "request": {"id": "", "spec": {"pcr": -1}}}`))
	f.Add([]byte(`{"op": "setup", "request": {"id": "x", "spec": {"pcr": 1e308, "scr": 1e-308, "mbs": 1e17}, "priority": -9, "route": [{"switch": "ring00"}]}}`))
	f.Add([]byte(`{"op": "bound", "route": [], "priority": 99}`))
	f.Add([]byte(`{"op": ""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"op": "setup", "request": {"id": "y", "spec": {"pcr": 0.2, "scr": 0.2, "mbs": 1}, "priority": 1, "route": [{"switch": "ring00", "in": 0, "out": 0}], "sourceCDV": 1e300}}`))
	f.Add([]byte("\x00\xff{"))

	f.Fuzz(func(t *testing.T, line []byte) {
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			// serveConn answers malformed lines with an error response and
			// keeps the connection; nothing further to execute.
			return
		}
		srv := NewServer(fuzzNetwork(t))
		resp := srv.dispatch(req)

		// The response must survive the wire: encode, then decode again.
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("response for %q does not marshal: %v\nresponse: %+v", line, err, resp)
		}
		var back Response
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("encoded response does not round-trip: %v\n%s", err, data)
		}
		if back.OK != resp.OK || back.Error != resp.Error || back.Rejected != resp.Rejected {
			t.Fatalf("response round-trip drifted: sent %+v, got %+v", resp, back)
		}
		// Numeric payloads must be JSON-representable (no NaN/Inf leaks).
		if math.IsNaN(back.Bound) || math.IsInf(back.Bound, 0) {
			t.Fatalf("non-finite bound %g leaked into the protocol", back.Bound)
		}
		if resp.Admission != nil {
			for _, d := range append(append([]float64(nil),
				resp.Admission.PerHopGuaranteed...), resp.Admission.PerHopComputed...) {
				if math.IsNaN(d) || math.IsInf(d, 0) {
					t.Fatalf("non-finite per-hop bound %g in admission", d)
				}
			}
		}
	})
}

// FuzzStateRoundTrip fuzzes the persistence layer: arbitrary bytes as a
// state file must either fail to load cleanly or load into requests that
// survive a SaveState/LoadState round trip and a Recover onto a fresh
// network without a panic — the invariant cacd relies on when restarting
// from a snapshot it did not necessarily write itself.
func FuzzStateRoundTrip(f *testing.F) {
	// Seed corpus: a genuine snapshot plus degenerate and hostile shapes.
	seed := []core.ConnRequest{
		{ID: "a", Spec: traffic.CBR(0.1), Priority: 1,
			Route: core.Route{{Switch: "ring00", In: 1, Out: 0}}, DelayBound: 64},
		{ID: "b", Spec: traffic.VBR(0.5, 0.05, 8), Priority: 2,
			Route: core.Route{{Switch: "ring01", In: 2, Out: 3}}, SourceCDV: 16},
	}
	if data, err := json.Marshal(seed); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[{"id": "", "spec": {"pcr": -1}}]`))
	f.Add([]byte(`[{"id": "x", "spec": {"pcr": 1e308, "scr": 1e-308, "mbs": 1e17}, "priority": -9, "route": [{"switch": "ring00"}]}]`))
	f.Add([]byte(`[{"id": "dup"}, {"id": "dup"}]`))
	f.Add([]byte("\x00\xff["))
	// Generated-topology snapshots: admitted fleets routed across a campus
	// hierarchy, with multi-hop routes and mixed CBR/VBR descriptors the
	// hand-written seeds above do not cover.
	f.Add(generatedCorpusSeed(f, 42))
	f.Add(generatedCorpusSeed(f, 123))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		st, _, err := NewStateStore(path).LoadState()
		if err != nil {
			// Rejected cleanly; nothing to round-trip.
			return
		}
		reqs := st.Connections
		second := NewStateStore(filepath.Join(dir, "copy.json"))
		if err := second.SaveState(PersistentState{Connections: reqs}); err != nil {
			t.Fatalf("loaded state does not re-save: %v", err)
		}
		st, _, err = second.LoadState()
		if err != nil {
			t.Fatalf("saved state does not re-load: %v", err)
		}
		back := st.Connections
		if len(back) != len(reqs) {
			t.Fatalf("round trip changed length: %d -> %d", len(reqs), len(back))
		}
		for i := range reqs {
			if back[i].ID != reqs[i].ID || len(back[i].Route) != len(reqs[i].Route) {
				t.Fatalf("round trip drifted at %d: %+v -> %+v", i, reqs[i], back[i])
			}
		}
		// Recover runs every surviving request through the full CAC check;
		// it must report failures, never panic, whatever the shapes are.
		dur, err := OpenDurable(DurableConfig{StatePath: path})
		if err != nil {
			t.Fatal(err)
		}
		defer dur.Close()
		if _, err := dur.Recover(fuzzNetwork(t)); err != nil {
			t.Fatalf("Recover errored on loadable state: %v", err)
		}
	})
}
