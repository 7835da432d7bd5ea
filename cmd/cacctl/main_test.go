package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/journal"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	f()
	_ = w.Close()
	return <-done
}

// startServer runs an in-process cacd-equivalent on a loopback listener.
func startServer(t *testing.T) string {
	addr, _ := startRingServer(t)
	return addr
}

// startRingServer is startServer with cacd's wrapped-ring re-admission on
// fail-link; it also returns the served ring.
func startRingServer(t *testing.T) (string, *rtnet.Network) {
	t.Helper()
	rt, err := rtnet.New(rtnet.Config{RingNodes: 8, TerminalsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(rt.Core())
	srv.SetFailoverHandler(failover.Handler(rt))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return l.Addr().String(), rt
}

// TestSetupOverWrappedRing: while primary link ring03->ring04 is down, a
// setup whose healthy broadcast route crosses it is admitted on the
// wrapped route, one whose route does not cross it keeps the healthy
// route, and bound prices the wrapped route too.
func TestSetupOverWrappedRing(t *testing.T) {
	addr, rt := startRingServer(t)
	base := []string{"-addr", addr}
	captureStdout(t, func() {
		if err := run(append(base, "fail-link", "-node", "3", "-ring", "8")); err != nil {
			t.Error(err)
		}
	})
	for _, tc := range []struct {
		id      string
		origin  int
		wrapped bool
	}{{"c7", 5, true}, {"c8", 4, false}, {"c9", 3, true}} {
		out := captureStdout(t, func() {
			if err := run(append(base, "setup", "-id", tc.id, "-ring", "8",
				"-origin", strconv.Itoa(tc.origin), "-terminal", "2", "-pcr", "0.01")); err != nil {
				t.Errorf("setup %s: %v", tc.id, err)
			}
		})
		if !strings.Contains(out, "connected "+tc.id) {
			t.Errorf("setup %s output = %q", tc.id, out)
		}
		want, err := rt.BroadcastRoute(tc.origin, 2)
		if tc.wrapped {
			want, err = rt.WrappedBroadcastRoute(tc.origin, 2, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		req, ok := rt.Core().AdmittedRequest(core.ConnID(tc.id))
		if !ok || !reflect.DeepEqual(req.Route, want) {
			t.Errorf("%s admitted on %v (ok %v), want %v", tc.id, req.Route, ok, want)
		}
	}
	// bound prices the route setup would request: the 13-hop wrap, whose
	// secondary-ring queues c9 and c7 load, not the healthy 7 hops.
	wrapped, err := rt.WrappedBroadcastRoute(5, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rt.Core().RouteBound(wrapped, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("end-to-end computed bound: %.1f cell times", d)
	out := captureStdout(t, func() {
		if err := run(append(base, "bound", "-ring", "8", "-origin", "5", "-terminal", "2")); err != nil {
			t.Error(err)
		}
	})
	if len(wrapped) != 13 || !strings.Contains(out, want) {
		t.Errorf("bound over the %d-hop wrap printed %q, want %q", len(wrapped), out, want)
	}
}

func TestFullLifecycle(t *testing.T) {
	addr := startServer(t)
	base := []string{"-addr", addr}

	out := captureStdout(t, func() {
		if err := run(append(base, "setup", "-id", "c1", "-ring", "8",
			"-origin", "2", "-terminal", "1", "-pcr", "0.05")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "connected c1") {
		t.Errorf("setup output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "setup", "-id", "c2", "-ring", "8",
			"-origin", "3", "-pcr", "0.3", "-scr", "0.05", "-mbs", "8")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "connected c2") {
		t.Errorf("VBR setup output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "list")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "c1") || !strings.Contains(out, "c2") {
		t.Errorf("list output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "bound", "-ring", "8", "-origin", "2", "-terminal", "1")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "end-to-end computed bound") {
		t.Errorf("bound output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "inspect", "-envelope")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "bound") || !strings.Contains(out, "envelope: {") {
		t.Errorf("inspect output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "teardown", "-id", "c1")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "released c1") {
		t.Errorf("teardown output = %q", out)
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "teardown", "-id", "c2")); err != nil {
			t.Error(err)
		}
	})
	_ = out
	out = captureStdout(t, func() {
		if err := run(append(base, "list")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "no connections") {
		t.Errorf("final list output = %q", out)
	}
}

func TestRunErrors(t *testing.T) {
	addr := startServer(t)
	tests := []struct {
		name string
		args []string
	}{
		{"no subcommand", []string{"-addr", addr}},
		{"unknown subcommand", []string{"-addr", addr, "frobnicate"}},
		{"setup without id", []string{"-addr", addr, "setup"}},
		{"teardown without id", []string{"-addr", addr, "teardown"}},
		{"teardown unknown", []string{"-addr", addr, "teardown", "-id", "ghost"}},
		{"setup bad origin", []string{"-addr", addr, "setup", "-id", "x", "-ring", "8", "-origin", "99"}},
		{"unreachable server", []string{"-addr", "127.0.0.1:1", "list"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

func TestSetupRejectionSurfaces(t *testing.T) {
	addr := startServer(t)
	// Overload the ring until a rejection surfaces as an error.
	rejected := false
	for i := 0; i < 40 && !rejected; i++ {
		err := run([]string{"-addr", addr, "setup",
			"-id", string(rune('a' + i)), "-ring", "8",
			"-origin", string(rune('0' + i%8)),
			"-pcr", "0.12"})
		if err != nil {
			rejected = true
			if !strings.Contains(err.Error(), "rejected") {
				t.Errorf("rejection error = %v", err)
			}
		}
	}
	if !rejected {
		t.Error("overload never rejected")
	}
}

// TestStateVerifyOffline checks the offline inspector against a real
// snapshot+journal pair: clean, torn, and corrupt — all without a
// running daemon, and without modifying either file.
func TestStateVerifyOffline(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	jpath := statePath + ".journal"
	store := wire.NewStateStore(statePath)
	if err := store.SaveState(wire.PersistentState{
		LastSeq: 2,
		Connections: []core.ConnRequest{
			{ID: "a", Spec: traffic.CBR(0.01), Priority: 1,
				Route: core.Route{{Switch: "ring00", In: 1, Out: 0}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	log, _, _, err := journal.Open(journal.OSFS{}, jpath)
	if err != nil {
		t.Fatal(err)
	}
	log.SetNextSeq(3)
	if err := log.Append(&journal.Record{Op: journal.OpTeardown, ID: "a"}, true); err != nil {
		t.Fatal(err)
	}
	req := core.ConnRequest{ID: "b", Spec: traffic.CBR(0.01), Priority: 1,
		Route: core.Route{{Switch: "ring00", In: 2, Out: 0}}}
	if err := log.Append(&journal.Record{Op: journal.OpSetup, Request: &req}, true); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if err := run([]string{"state", "show", statePath}); err != nil {
			t.Errorf("state show: %v", err)
		}
	})
	for _, want := range []string{
		"1 connections", "watermark 2", "checksum ok",
		"2 valid records (2 past watermark), clean",
		"replayed state: 1 connections", "b prio 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("state show output missing %q:\n%s", want, out)
		}
	}

	// Tear the journal tail: verify reports the position, repairs nothing.
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xx")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() {
		if err := run([]string{"state", "verify", statePath}); err != nil {
			t.Errorf("state verify on torn journal: %v", err)
		}
	})
	if !strings.Contains(out, "TORN at byte") {
		t.Errorf("torn tail not reported:\n%s", out)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("state verify modified the journal")
	}

	// Corrupt the snapshot: verify exits non-zero and leaves it in place.
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	data[2] ^= 0x01
	if err := os.WriteFile(statePath, data, 0o600); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() {
		if err := run([]string{"state", "verify", statePath}); err == nil {
			t.Error("state verify accepted a corrupt snapshot")
		}
	})
	if !strings.Contains(out, "CORRUPT") {
		t.Errorf("corruption not reported:\n%s", out)
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Errorf("state verify quarantined the snapshot: %v", err)
	}
}

func TestStateCmdErrors(t *testing.T) {
	for _, args := range [][]string{
		{"state"},
		{"state", "frobnicate", "x"},
		{"state", "verify"},
		{"state", "verify", "a", "b"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
