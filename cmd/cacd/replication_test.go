package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// bootDaemon starts run() with the given args plus ephemeral listen and
// replication-listen addresses and returns the bound addresses. The
// daemon exits when the whole test process receives SIGTERM.
func bootDaemon(t *testing.T, done chan error, withRepl bool, extra ...string) (addr, replAddr string) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	replCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	testHookReplListen = func(a net.Addr) { replCh <- a }
	defer func() { testHookListen = nil; testHookReplListen = nil }()

	args := []string{"-listen", "127.0.0.1:0", "-ring", "4", "-terminals", "1"}
	if withRepl {
		args = append(args, "-replication-listen", "127.0.0.1:0")
	}
	args = append(args, extra...)
	go func() { done <- run(args) }()
	if withRepl {
		select {
		case a := <-replCh:
			replAddr = a.String()
		case err := <-done:
			t.Fatalf("daemon exited before replication listener: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never announced its replication address")
		}
	}
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	return addr, replAddr
}

func waitReplication(t *testing.T, client *wire.Client, cond func(*wire.ReplicationReport) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := client.Replication(context.Background())
		if err == nil && cond(rep) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep, err := client.Replication(context.Background())
	t.Fatalf("replication condition never met (last report %+v, err %v)", rep, err)
}

func setupConn(client *wire.Client, id string) error {
	rt, err := rtnet.New(rtnet.Config{RingNodes: 4, TerminalsPerNode: 1})
	if err != nil {
		return err
	}
	route, err := rt.BroadcastRoute(0, 0)
	if err != nil {
		return err
	}
	_, err = client.Setup(context.Background(), core.ConnRequest{
		ID: core.ConnID(id), Spec: traffic.CBR(0.01), Priority: 1, Route: route,
	})
	return err
}

// TestReplicationEndToEnd runs a primary and a warm standby as two full
// cacd daemons: a setup acked by the primary must appear on the standby,
// the standby must refuse writes until promoted, and after a cacctl-style
// promote the ex-standby must admit new work at a higher epoch.
func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	pDone := make(chan error, 1)
	sDone := make(chan error, 1)
	pAddr, pRepl := bootDaemon(t, pDone, true,
		"-state", filepath.Join(dir, "primary.json"), "-durability", "journal-sync")
	sAddr, _ := bootDaemon(t, sDone, false,
		"-state", filepath.Join(dir, "standby.json"), "-durability", "journal-sync",
		"-replicate-from", pRepl)

	pc, err := wire.Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	sc, err := wire.Dial(sAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	waitReplication(t, sc, func(rep *wire.ReplicationReport) bool {
		return rep.Role == "standby" && rep.Connected
	})
	// The standby calls itself connected once it has sent its hello; a
	// sync-mode primary refuses writes until its own side has caught the
	// standby up and attached the stream.
	waitReplication(t, pc, func(rep *wire.ReplicationReport) bool {
		return rep.Role == "primary" && rep.Connected
	})
	if err := setupConn(pc, "repl-1"); err != nil {
		t.Fatalf("primary setup: %v", err)
	}
	waitReplication(t, sc, func(rep *wire.ReplicationReport) bool {
		return rep.AckedSeq >= 1 && rep.LastSeq >= 1
	})

	// The warm standby is read-only until promoted.
	err = setupConn(sc, "refused")
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Code != wire.CodeStandby {
		t.Fatalf("standby setup error = %v, want code %s", err, wire.CodeStandby)
	}

	rep, err := sc.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if rep.Epoch == 0 {
		t.Fatal("promotion did not advance the epoch")
	}
	if err := setupConn(sc, "repl-2"); err != nil {
		t.Fatalf("promoted standby setup: %v", err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, done := range []chan error{pDone, sDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not drain on SIGTERM")
		}
	}
}

// TestStandbyAutoFailover points a cacd standby with -failover-timeout at
// an in-process primary, kills the primary, and requires the standby to
// promote itself and start admitting work.
func TestStandbyAutoFailover(t *testing.T) {
	dir := t.TempDir()

	// In-process primary: journal-sync durability plus a replication
	// shipper, killable without signalling the whole test process.
	rt, err := rtnet.New(rtnet.Config{RingNodes: 4, TerminalsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	psrv := wire.NewServer(rt.Core())
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath: filepath.Join(dir, "primary.json"),
		FS:        journal.OSFS{},
		Mode:      wire.DurabilityJournalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dur.Recover(rt.Core()); err != nil {
		t.Fatal(err)
	}
	psrv.SetDurable(dur)
	prim := replica.NewPrimary(psrv, replica.PrimaryConfig{Mode: replica.ModeSync, HeartbeatEvery: 50 * time.Millisecond})
	psrv.SetShipper(prim)
	psrv.SetReplicationStatus(replica.Status(prim, nil))
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(replLn)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go psrv.Serve(ln)

	sDone := make(chan error, 1)
	sAddr, _ := bootDaemon(t, sDone, false,
		"-state", filepath.Join(dir, "standby.json"), "-durability", "journal-sync",
		"-replicate-from", replLn.Addr().String(), "-failover-timeout", "300ms")
	sc, err := wire.Dial(sAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	waitReplication(t, sc, func(rep *wire.ReplicationReport) bool {
		return rep.Role == "standby" && rep.Connected
	})
	pc, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// The standby calls itself connected once it has dialled; a sync-mode
	// primary refuses writes until its own side has accepted that stream.
	waitReplication(t, pc, func(rep *wire.ReplicationReport) bool {
		return rep.Role == "primary" && rep.Connected
	})
	if err := setupConn(pc, "pre-failover"); err != nil {
		t.Fatalf("primary setup: %v", err)
	}
	pc.Close()
	waitReplication(t, sc, func(rep *wire.ReplicationReport) bool {
		return rep.AckedSeq >= 1
	})

	// Kill the primary; the standby must self-promote after the timeout.
	prim.Close()
	psrv.Close()
	dur.Close()
	waitReplication(t, sc, func(rep *wire.ReplicationReport) bool {
		return rep.Role == "primary" && rep.Epoch >= 1
	})
	if err := setupConn(sc, "post-failover"); err != nil {
		t.Fatalf("auto-promoted standby setup: %v", err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sDone:
		if err != nil {
			t.Fatalf("standby exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("standby did not drain on SIGTERM")
	}
}

// TestReplicationFlagValidation pins the configuration contract: both
// replication roles require -state, and a valid replication mode.
func TestReplicationFlagValidation(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	tests := [][]string{
		{"-replication-listen", "127.0.0.1:0"},
		{"-replicate-from", "127.0.0.1:1"},
		{"-replication-listen", "127.0.0.1:0", "-state", state, "-durability", "journal", "-replication-mode", "nope"},
	}
	for _, args := range tests {
		t.Run(fmt.Sprint(args), func(t *testing.T) {
			if err := run(append(args, "-listen", "127.0.0.1:0")); err == nil {
				t.Errorf("run(%v) succeeded, want error", args)
			}
		})
	}
}
