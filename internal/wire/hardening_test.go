package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// startServerWith runs a CAC server on a loopback listener after applying
// configure, returning a connected client and the server.
func startServerWith(t *testing.T, configure func(*Server)) (*Client, *Server, core.Route) {
	t.Helper()
	network := core.NewNetwork(core.HardCDV{})
	route := make(core.Route, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("sw%d", i)
		if _, err := network.AddSwitch(core.SwitchConfig{
			Name: name, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
		route[i] = core.Hop{Switch: name, In: 1, Out: 0}
	}
	srv := NewServer(network)
	if configure != nil {
		configure(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); !errors.Is(err, ErrServerClosed) {
			t.Errorf("Serve returned %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		<-done
	})
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client, srv, route
}

// TestOversizedRequestGetsError: a line beyond MaxLineBytes draws an
// explicit protocol error response before the connection closes — not a
// silent disconnect.
func TestOversizedRequestGetsError(t *testing.T) {
	client, _, _ := startServerWith(t, nil)
	conn, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Exactly MaxLineBytes with no newline fills the scanner's buffer, which
	// is the oversized condition; not writing more avoids racing the close.
	huge := make([]byte, MaxLineBytes)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReaderSize(conn, 4096).ReadString('\n')
	if err != nil {
		t.Fatalf("no response before close: %v", err)
	}
	if !strings.Contains(line, "request too large") {
		t.Errorf("response = %q, want request-too-large error", line)
	}
}

func TestFailLinkRestoreLinkHealthOps(t *testing.T) {
	var handled []core.ConnID
	client, _, route := startServerWith(t, func(s *Server) {
		s.SetFailoverHandler(func(from, to string, evicted []core.ConnRequest) []ReadmitOutcome {
			outs := make([]ReadmitOutcome, 0, len(evicted))
			for _, r := range evicted {
				handled = append(handled, r.ID)
				outs = append(outs, ReadmitOutcome{ID: r.ID, Readmitted: true, Attempts: 1})
			}
			return outs
		})
	})
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Connections != 1 || len(h.FailedLinks) != 0 || h.Violations != 0 || h.Draining {
		t.Fatalf("health = %+v", h)
	}
	report, err := client.FailLink(context.Background(), "sw0", "sw1")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != 1 || report.Outcomes[0].ID != "c1" || !report.Outcomes[0].Readmitted {
		t.Fatalf("report = %+v", report)
	}
	if len(handled) != 1 || handled[0] != "c1" {
		t.Fatalf("handler saw %v", handled)
	}
	h, err = client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.FailedLinks) != 1 || h.FailedLinks[0] != (core.Link{From: "sw0", To: "sw1"}) {
		t.Fatalf("health after failure = %+v", h)
	}
	if err := client.RestoreLink(context.Background(), "sw0", "sw1"); err != nil {
		t.Fatal(err)
	}
	if err := client.RestoreLink(context.Background(), "sw0", "sw1"); err == nil {
		t.Error("restoring a healthy link succeeded")
	}
	if _, err := client.FailLink(context.Background(), "sw0", "sw0"); err == nil {
		t.Error("failing a self-link succeeded")
	}
	h, err = client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.FailedLinks) != 0 {
		t.Fatalf("health after restore = %+v", h)
	}
}

func TestFailLinkWithoutHandlerReportsDown(t *testing.T) {
	client, _, route := startServerWith(t, nil)
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	report, err := client.FailLink(context.Background(), "sw0", "sw1")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Outcomes) != 1 || report.Outcomes[0].Readmitted ||
		!strings.Contains(report.Outcomes[0].Error, "no failover handler") {
		t.Fatalf("report = %+v", report)
	}
}

// withDurable returns a startServerWith configuration that recovers the
// server's network from cfg and attaches the journal, closing it once the
// server is closed.
func withDurable(t *testing.T, cfg DurableConfig) func(*Server) {
	return func(s *Server) {
		t.Helper()
		dur, err := OpenDurable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dur.Close() })
		if _, err := dur.Recover(s.network); err != nil {
			t.Fatal(err)
		}
		s.SetDurable(dur)
	}
}

// TestShutdownDrains: Shutdown unblocks idle sessions, stops the accept
// loop, and writes a final state snapshot.
func TestShutdownDrains(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	client, srv, route := startServerWith(t, withDurable(t, DurableConfig{StatePath: statePath}))
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "keep", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot so only Shutdown's final write can fix it.
	if err := os.WriteFile(statePath, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The idle client's next round-trip fails cleanly.
	if _, err := client.List(context.Background()); err == nil {
		t.Error("client still served after drain")
	}
	st, _, err := NewStateStore(statePath).LoadState()
	if err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	if len(st.Connections) != 1 || st.Connections[0].ID != "keep" {
		t.Fatalf("final snapshot = %+v", st.Connections)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestPersistFailureWarnsAndRetries pins the warning-only persistence of
// recovery-class records (persistWarn): a fail-link whose journal append
// fails is still acked — the link is down whether or not the record
// landed — with a "deferred" warning, and the background retry then
// lands a snapshot that holds the failed link.
func TestPersistFailureWarnsAndRetries(t *testing.T) {
	ctl := &syncCtl{}
	client, srv, route, _ := startDurableServer(t, ctl)
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "c1", Spec: traffic.CBR(0.1), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	ctl.fail.Store(true) // the fail-link's group fsync fails
	resp, err := client.call(context.Background(), Request{Op: OpFailLink, From: "sw0", To: "sw1"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Failover == nil || len(resp.Failover.Outcomes) != 1 {
		t.Fatalf("fail-link refused outright: %+v", resp)
	}
	if !strings.Contains(resp.Warning, "deferred") {
		t.Fatalf("warning = %q, want a deferred-append warning", resp.Warning)
	}
	// The retry loop exits once a snapshot lands, so draining it waits for
	// exactly that.
	srv.drainRetry()
	st, _, err := NewStateStore(srv.dur.store.Path()).LoadState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Connections) != 0 || len(st.FailedLinks) != 1 || st.FailedLinks[0] != (core.Link{From: "sw0", To: "sw1"}) {
		t.Fatalf("retried snapshot = %+v, want no connections and sw0->sw1 failed", st)
	}
}

// TestIOTimeoutDropsIdleConnection: with an IO timeout set, a client that
// never sends a request is disconnected instead of pinning a handler
// goroutine forever.
func TestIOTimeoutDropsIdleConnection(t *testing.T) {
	client, _, _ := startServerWith(t, func(s *Server) {
		s.SetIOTimeout(500 * time.Millisecond)
	})
	addr := clientAddr(t, client)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection not dropped")
	}
	// A client that sends within the deadline still works.
	fresh, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.List(context.Background()); err != nil {
		t.Fatalf("active client dropped: %v", err)
	}
}
