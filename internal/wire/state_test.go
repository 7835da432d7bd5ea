package wire

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

func twoSwitchNetwork(t *testing.T) (*core.Network, core.Route) {
	t.Helper()
	n := core.NewNetwork(core.HardCDV{})
	route := make(core.Route, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name: name, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
		route[i] = core.Hop{Switch: name, In: 1, Out: 0}
	}
	return n, route
}

func TestStateStoreRoundTrip(t *testing.T) {
	store := NewStateStore(filepath.Join(t.TempDir(), "state.json"))
	// Missing file loads empty.
	st, _, err := store.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Connections) != 0 {
		t.Fatalf("missing file loaded %v", st.Connections)
	}
	want := []core.ConnRequest{
		{ID: "a", Spec: traffic.CBR(0.1), Priority: 1,
			Route: core.Route{{Switch: "sw0", In: 1, Out: 0}}, DelayBound: 64},
		{ID: "b", Spec: traffic.VBR(0.5, 0.05, 8), Priority: 2,
			Route: core.Route{{Switch: "sw1", In: 2, Out: 3}}, SourceCDV: 16},
	}
	if err := store.SaveState(PersistentState{Connections: want}); err != nil {
		t.Fatal(err)
	}
	st, _, err = store.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	got := st.Connections
	if len(got) != 2 || got[0].ID != "a" || got[1].Spec.MBS != 8 ||
		got[0].DelayBound != 64 || got[1].SourceCDV != 16 ||
		got[1].Route[0].Out != 3 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestStateStoreCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStateStore(path).LoadState(); err == nil {
		t.Fatal("corrupt state accepted")
	}
}

func TestStateStoreChecksumMismatchQuarantines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	store := NewStateStore(path)
	if err := store.SaveState(PersistentState{Connections: []core.ConnRequest{
		{ID: "a", Spec: traffic.CBR(0.1), Priority: 1,
			Route: core.Route{{Switch: "sw0", In: 1, Out: 0}}},
	}}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte without touching the trailer.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err = store.LoadState()
	if !errors.Is(err, ErrCorruptState) {
		t.Fatalf("Load of corrupted snapshot = %v, want ErrCorruptState", err)
	}
	// The corrupt file has been moved aside, not left in place.
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Errorf("corrupt snapshot still at %s (stat: %v)", path, serr)
	}
	if _, serr := os.Stat(store.QuarantinePath()); serr != nil {
		t.Errorf("quarantined snapshot missing: %v", serr)
	}
	// A reload after quarantine is an empty store, not a repeat error.
	st, _, err := store.LoadState()
	if err != nil || len(st.Connections) != 0 {
		t.Errorf("Load after quarantine = %v, %v; want empty, nil", st.Connections, err)
	}
}

// TestStateStoreQuarantineKeepsEveryCorpse corrupts the snapshot twice:
// the second quarantine must not overwrite the first's evidence, it gets
// a counter-suffixed path.
func TestStateStoreQuarantineKeepsEveryCorpse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	store := NewStateStore(path)
	corruptOnce := func(marker byte) {
		t.Helper()
		if err := store.SaveState(PersistentState{Connections: []core.ConnRequest{
			{ID: "a", Spec: traffic.CBR(0.1), Priority: 1,
				Route: core.Route{{Switch: "sw0", In: 1, Out: 0}}},
		}}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[2] = marker
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.LoadState(); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("Load of corrupted snapshot = %v, want ErrCorruptState", err)
		}
	}
	corruptOnce(0xAA)
	corruptOnce(0xBB)
	first, err := os.ReadFile(store.QuarantinePath())
	if err != nil {
		t.Fatalf("first quarantine evidence missing: %v", err)
	}
	second, err := os.ReadFile(store.QuarantinePath() + ".1")
	if err != nil {
		t.Fatalf("second quarantine evidence missing: %v", err)
	}
	if first[2] != 0xAA || second[2] != 0xBB {
		t.Errorf("quarantine evidence shuffled: first[2]=%#x second[2]=%#x", first[2], second[2])
	}
}

func TestStateStoreLegacyFileAcceptedWithWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	// A pre-checksum snapshot: plain JSON array, no trailer.
	legacy := `[{"id": "old", "spec": {"pcr": 0.1}, "priority": 1,
		"route": [{"switch": "sw0", "in": 1, "out": 0}]}]`
	if err := os.WriteFile(path, []byte(legacy), 0o600); err != nil {
		t.Fatal(err)
	}
	st, warning, err := NewStateStore(path).LoadState()
	if err != nil {
		t.Fatalf("legacy snapshot rejected: %v", err)
	}
	if len(st.Connections) != 1 || st.Connections[0].ID != "old" {
		t.Fatalf("legacy snapshot loaded %+v", st.Connections)
	}
	if warning == "" {
		t.Error("legacy snapshot accepted without a warning")
	}
}

// TestStateStoreV1TrailerVerifiedWithWarning pins the trailer migration
// contract: a snapshot bearing the legacy crc-only "#crc32:" trailer
// still checksum-verifies, loads with epoch 0, and is flagged through
// the warning channel so operators know the file predates replication.
func TestStateStoreV1TrailerVerifiedWithWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	payload := []byte(`[{"id": "v1", "spec": {"pcr": 0.1}, "priority": 1,
		"route": [{"switch": "sw0", "in": 1, "out": 0}]}]` + "\n")
	data := append([]byte{}, payload...)
	data = append(data, fmt.Sprintf("%s%08x\n", checksumPrefix, crc32.ChecksumIEEE(payload))...)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	st, warning, err := NewStateStore(path).LoadState()
	if err != nil {
		t.Fatalf("v1-trailer snapshot rejected: %v", err)
	}
	if len(st.Connections) != 1 || st.Connections[0].ID != "v1" {
		t.Fatalf("v1-trailer snapshot loaded %+v", st.Connections)
	}
	if st.Epoch != 0 {
		t.Fatalf("v1 trailer carries no epoch, loaded epoch %d", st.Epoch)
	}
	if warning == "" {
		t.Error("v1-trailer snapshot accepted without a warning")
	}
	// The checksum still protects the payload: a flipped byte must be
	// detected, not silently loaded as epoch-0 state.
	data[2] ^= 0x01
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStateStore(path).LoadState(); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("corrupted v1-trailer snapshot loaded: %v", err)
	}
}

// TestStateStoreTrailerCarriesEpoch pins the v2 trailer round-trip: the
// replication epoch travels in the trailer line, outside the JSON
// payload, and survives save/load without a warning.
func TestStateStoreTrailerCarriesEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	store := NewStateStore(path)
	if err := store.SaveState(PersistentState{Epoch: 7, LastSeq: 42}); err != nil {
		t.Fatal(err)
	}
	st, warning, err := store.LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 7 || st.LastSeq != 42 {
		t.Fatalf("round-trip lost the watermark: epoch %d lastSeq %d", st.Epoch, st.LastSeq)
	}
	if warning != "" {
		t.Fatalf("current-format snapshot loaded with warning %q", warning)
	}
}

// TestShutdownDrainsPersistRetry starves the snapshot so a compaction
// fails and the background retry loop starts, then shuts the server down:
// Shutdown must wait the retry loop out and write the final snapshot
// itself, so the state on disk after exit is current, not stale.
func TestShutdownDrainsPersistRetry(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "sub", "state.json")
	if err := os.MkdirAll(filepath.Dir(statePath), 0o700); err != nil {
		t.Fatal(err)
	}
	network, route := twoSwitchNetwork(t)
	dur, err := OpenDurable(DurableConfig{
		StatePath: statePath, JournalPath: filepath.Join(dir, "state.journal"),
		CompactRecords: 1, // every record compacts
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if _, err := dur.Recover(network); err != nil {
		t.Fatal(err)
	}
	// With the snapshot's directory gone the journal append still lands,
	// but the compaction behind it fails and arms the background retry.
	if err := os.RemoveAll(filepath.Dir(statePath)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(network)
	srv.SetDurable(dur)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	resp, err := client.call(context.Background(), Request{Op: OpSetup, Request: &core.ConnRequest{
		ID: "durable", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !strings.Contains(resp.Warning, "deferred") {
		t.Fatalf("setup = %+v, want acked with a deferred-compaction warning", resp)
	}
	// Make the store writable again, then shut down: the final snapshot
	// must land and no retry goroutine may linger past Shutdown.
	if err := os.MkdirAll(filepath.Dir(statePath), 0o700); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	<-done
	st, _, err := NewStateStore(statePath).LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Connections) != 1 || st.Connections[0].ID != "durable" {
		t.Fatalf("state after drained shutdown = %+v, want the admitted connection", st.Connections)
	}
}

// TestServerPersistsAcrossRestart drives the full lifecycle over TCP in
// the default durability mode: a server admits a connection, dies without
// a final snapshot, and a new server recovers it from the journal; the
// teardown survives the next restart too.
func TestServerPersistsAcrossRestart(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	client, _, stop := bootDurable(t, statePath, "", 0)
	route := core.Route{{Switch: "sw0", In: 1, Out: 0}, {Switch: "sw1", In: 1, Out: 0}}
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "persist-me", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	stop()

	client2, _, stop2 := bootDurable(t, statePath, "", 0)
	ids, err := client2.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "persist-me" {
		t.Fatalf("after restart List = %v", ids)
	}
	if err := client2.Teardown(context.Background(), "persist-me"); err != nil {
		t.Fatal(err)
	}
	stop2()

	client3, _, stop3 := bootDurable(t, statePath, "", 0)
	defer stop3()
	if ids, err := client3.List(context.Background()); err != nil || len(ids) != 0 {
		t.Fatalf("after teardown and restart List = %v, %v; want empty", ids, err)
	}
}
