package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// startShardServer is startServer with a shard identity, returning the
// server too so the test can park a prepared hold on it.
func startShardServer(t *testing.T, id string) (string, *wire.Server) {
	t.Helper()
	rt, err := rtnet.New(rtnet.Config{RingNodes: 8, TerminalsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(rt.Core())
	srv.SetShardID(id)
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
	return l.Addr().String(), srv
}

// TestShardStatusAndHealthSurfaces drives cacctl's shard status, shard
// reap and health commands against a shard holding one live prepare:
// health must name the role, epoch and shard, status must show the hold
// with its TTL, and reap must expire it once overdue.
func TestShardStatusAndHealthSurfaces(t *testing.T) {
	addr, _ := startShardServer(t, "s7")
	base := []string{"-addr", addr}

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	route, err := broadcastRoute(8, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ShardPrepare(context.Background(), "t1", core.ConnRequest{
		ID: "held", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() {
		if err := run(append(base, "health")); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{"role: ", "(epoch ", "shard: s7", "prepared holds: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("health output %q missing %q", out, want)
		}
	}

	out = captureStdout(t, func() {
		if err := run(append(base, "shard", "status")); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{"shard: s7", "role: ", "hold t1: connection held"} {
		if !strings.Contains(out, want) {
			t.Errorf("shard status output %q missing %q", out, want)
		}
	}

	time.Sleep(40 * time.Millisecond)
	out = captureStdout(t, func() {
		if err := run(append(base, "shard", "reap")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "reaped t1") {
		t.Errorf("shard reap output = %q", out)
	}
	out = captureStdout(t, func() {
		if err := run(append(base, "shard", "status")); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "prepared holds: none") {
		t.Errorf("post-reap status output = %q", out)
	}
}

// TestShardRouteOffline plans a route against a map spec with no server.
func TestShardRouteOffline(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"shard", "route",
			"-map", "s0@h0:1=sw0,sw1;s1@h1:1=sw2",
			"sw0", "sw1", "sw2"}); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{
		"leg 1: shard s0 (h0:1): sw0 -> sw1",
		"leg 2: shard s1 (h1:1): sw2",
		"3 hops over 2 shards",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shard route output %q missing %q", out, want)
		}
	}
	// A wrap revisiting s0 still counts 2 shards (the runs merge into one
	// prepared leg) and flags the -delay requirement.
	out = captureStdout(t, func() {
		if err := run([]string{"shard", "route",
			"-map", "s0@h0:1=sw0,sw1;s1@h1:1=sw2",
			"sw0", "sw2", "sw1"}); err != nil {
			t.Error(err)
		}
	})
	for _, want := range []string{
		"leg 3: shard s0 (h0:1): sw1",
		"3 hops over 2 shards",
		"route revisits a shard",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("wrapped shard route output %q missing %q", out, want)
		}
	}
	if err := run([]string{"shard", "route", "-map", "s0@h0:1=sw0", "swX"}); err == nil {
		t.Error("unowned switch accepted")
	}
	if err := run([]string{"shard", "route", "-map", "garbage", "sw0"}); err == nil {
		t.Error("malformed map accepted")
	}
}
