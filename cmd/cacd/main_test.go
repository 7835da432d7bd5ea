package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// TestMain runs cacd itself when CACD_CHILD_ARGS is set, so a test can
// start the daemon as a child process and kill it with SIGKILL (see
// startCacd).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CACD_CHILD_ARGS"); ok {
		if err := run(strings.Split(args, "\n")); err != nil {
			fmt.Fprintln(os.Stderr, "cacd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startCacd runs cacd with args in a child process. Its stdout lines
// arrive on the returned channel; the process is killed when the test
// ends if it is still running.
func startCacd(t *testing.T, args ...string) (*exec.Cmd, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CACD_CHILD_ARGS="+strings.Join(args, "\n"))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	return cmd, lines
}

// awaitLine skips stdout lines until one starts with prefix and returns it.
func awaitLine(t *testing.T, lines <-chan string, prefix string) string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("cacd exited before printing %q", prefix)
			}
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case <-timeout:
			t.Fatalf("cacd never printed %q", prefix)
		}
	}
}

// TestEndToEndSnapshotAlias: -durability snapshot, the retired
// full-rewrite mode, is refused like any unknown mode, before a file is
// opened. (A state file it wrote still opens under journal-sync; see
// wire's TestSnapshotModeFileOpens.)
func TestEndToEndSnapshotAlias(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "state.json")
	err := run([]string{"-listen", "127.0.0.1:0", "-ring", "4", "-terminals", "1",
		"-state", stateFile, "-durability", "snapshot"})
	if err == nil || !strings.Contains(err.Error(), `unknown durability mode "snapshot"`) {
		t.Fatalf("-durability snapshot: run = %v, want an unknown durability mode refusal", err)
	}
	if _, serr := os.Stat(stateFile); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("the refused run touched %s: %v", stateFile, serr)
	}
}

func TestRunValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-nope"}},
		{"bad policy", []string{"-policy", "maybe"}},
		{"bad ring", []string{"-ring", "1"}},
		{"bad terminals", []string{"-terminals", "99"}},
		{"unusable listen address", []string{"-listen", "256.256.256.256:0"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Errorf("run(%v) succeeded, want error", tt.args)
			}
		})
	}
}

// TestRunServesAndShutsDown boots the server on an ephemeral port, waits
// for it to accept, and stops it with SIGTERM (the handler is registered
// before the listener opens, so the self-signal is safe).
func TestRunServesAndShutsDown(t *testing.T) {
	const addr = "127.0.0.1:47831"
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", addr, "-ring", "4", "-terminals", "1"})
	}()
	// Wait until the server accepts connections.
	deadline := time.Now().Add(5 * time.Second)
	var conn net.Conn
	var err error
	for time.Now().Before(deadline) {
		conn, err = net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	_ = conn.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestEndToEndConcurrentSessions boots cacd with a persistence file on an
// ephemeral port, drives 100 concurrent cacctl-style sessions (each dials,
// sets up a connection over the wire protocol, queries, and half tear
// down), then verifies the surviving set and that the persisted state
// round-trips: reading it and re-admitting it onto a freshly built
// network of the same shape reproduces exactly the established set.
func TestEndToEndConcurrentSessions(t *testing.T) {
	const (
		ringNodes = 8
		terminals = 4
		sessions  = 100
	)
	stateFile := filepath.Join(t.TempDir(), "state.json")

	addrCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	defer func() { testHookListen = nil }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-ring", fmt.Sprint(ringNodes),
			"-terminals", fmt.Sprint(terminals),
			"-queue", "1000000",
			"-state", stateFile,
		})
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never announced its address")
	}

	// A reference network of the same shape supplies the routes; the load
	// is far below every queue, so every setup must be admitted regardless
	// of interleaving.
	ref, err := rtnet.New(rtnet.Config{
		RingNodes:        ringNodes,
		TerminalsPerNode: terminals,
		QueueCells:       map[core.Priority]float64{1: 1e6},
		Policy:           core.HardCDV{},
	})
	if err != nil {
		t.Fatal(err)
	}
	session := func(g int) (core.ConnRequest, bool) {
		route, err := ref.SegmentRoute(g%ringNodes, g%terminals, 2+g%2)
		if err != nil {
			t.Errorf("session %d: route: %v", g, err)
			return core.ConnRequest{}, false
		}
		return core.ConnRequest{
			ID:       core.ConnID(fmt.Sprintf("sess-%03d", g)),
			Spec:     traffic.VBR(0.004, 0.0005, 4),
			Priority: 1,
			Route:    route,
		}, g%2 == 0 // even sessions keep their connection
	}

	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req, keep := session(g)
			if req.ID == "" {
				return
			}
			client, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("session %d: dial: %v", g, err)
				return
			}
			defer client.Close()
			adm, err := client.Setup(context.Background(), req)
			if err != nil {
				t.Errorf("session %d: setup: %v", g, err)
				return
			}
			if adm.ID != req.ID {
				t.Errorf("session %d: admitted as %q", g, adm.ID)
			}
			if _, err := client.RouteBound(context.Background(), req.Route, req.Priority); err != nil {
				t.Errorf("session %d: bound: %v", g, err)
			}
			if !keep {
				if err := client.Teardown(context.Background(), req.ID); err != nil {
					t.Errorf("session %d: teardown: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()

	want := make(map[core.ConnID]core.ConnRequest)
	for g := 0; g < sessions; g++ {
		if req, keep := session(g); keep {
			want[req.ID] = req
		}
	}

	// The server's live view must be exactly the kept sessions.
	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	established, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedIDs(established); got != sortedKeys(want) {
		t.Fatalf("established set mismatch:\n got %s\nwant %s", got, sortedKeys(want))
	}
	if violations, err := client.Audit(context.Background()); err != nil || len(violations) != 0 {
		t.Fatalf("audit after load: violations=%v err=%v", violations, err)
	}

	// The persisted state must round-trip: same set, and every stored
	// request re-admissible on a fresh network of the same shape. Read it
	// the way cacctl state show does — snapshot, then the journal records
	// past its watermark — since Recover would compact the live daemon's
	// files.
	st, _, err := wire.NewStateStore(stateFile).ReadState()
	if err != nil {
		t.Fatal(err)
	}
	scan, err := journal.ScanFile(journal.OSFS{}, stateFile+".journal")
	if err != nil {
		t.Fatal(err)
	}
	replayed, _ := journal.Replay(journal.State{Requests: st.Connections, FailedLinks: st.FailedLinks},
		st.LastSeq, scan.Records)
	stored := replayed.Requests
	var storedIDs []core.ConnID
	for _, req := range stored {
		storedIDs = append(storedIDs, req.ID)
		if want[req.ID].Spec != req.Spec {
			t.Errorf("stored %s spec drifted: got %+v want %+v", req.ID, req.Spec, want[req.ID].Spec)
		}
	}
	if got := sortedIDs(storedIDs); got != sortedKeys(want) {
		t.Fatalf("state file set mismatch:\n got %s\nwant %s", got, sortedKeys(want))
	}
	fresh, err := rtnet.New(rtnet.Config{
		RingNodes:        ringNodes,
		TerminalsPerNode: terminals,
		QueueCells:       map[core.Priority]float64{1: 1e6},
		Policy:           core.HardCDV{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range stored {
		if _, err := fresh.Core().Setup(context.Background(), req); err != nil {
			t.Errorf("stored %s not re-admissible: %v", req.ID, err)
		}
	}
	if got := sortedIDs(fresh.Core().Connections()); got != sortedKeys(want) {
		t.Fatalf("restored set mismatch:\n got %s\nwant %s", got, sortedKeys(want))
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

func sortedIDs(ids []core.ConnID) string {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = string(id)
	}
	sort.Strings(ss)
	return fmt.Sprint(ss)
}

func sortedKeys(m map[core.ConnID]core.ConnRequest) string {
	ids := make([]core.ConnID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return sortedIDs(ids)
}

// TestStateStrictRefusesUnrestorableState: with -state-strict, a snapshot
// holding a connection the network shape cannot re-admit makes startup fail
// instead of silently serving with a partial restore.
func TestStateStrictRefusesUnrestorableState(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "state.json")
	err := wire.NewStateStore(stateFile).SaveState(wire.PersistentState{Connections: []core.ConnRequest{
		{ID: "ghost", Spec: traffic.CBR(0.1), Priority: 1,
			Route: core.Route{{Switch: "ring99", In: 1, Out: 0}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-listen", "127.0.0.1:0", "-ring", "4", "-terminals", "1",
		"-state", stateFile, "-state-strict"}
	if err := run(args); err == nil || !strings.Contains(err.Error(), "state-strict") {
		t.Fatalf("run(%v) = %v, want state-strict error", args, err)
	}
}

// TestEndToEndFailover drives the full live failure story over the wire:
// cacd admits broadcasts on a 6-ring, a client declares primary link
// ring02 -> ring03 failed, the daemon re-admits every evicted connection
// over the wrapped ring except the one whose hard bound cannot survive the
// longer route — which is reported down, never silently degraded.
func TestEndToEndFailover(t *testing.T) {
	const ringNodes = 6
	addrCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	defer func() { testHookListen = nil }()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0",
			"-ring", fmt.Sprint(ringNodes), "-terminals", "1"})
	}()
	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never announced its address")
	}
	defer func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()

	ref, err := rtnet.New(rtnet.Config{RingNodes: ringNodes, TerminalsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One broadcast per origin, plus a tight-bound one from origin 4 whose
	// healthy route (5 hops, 160 guaranteed) meets its 200-cell bound but
	// whose wrapped route after failing node 2 (9 hops, 288) cannot.
	for origin := 0; origin < ringNodes; origin++ {
		route, err := ref.BroadcastRoute(origin, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Setup(context.Background(), core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("bc-%d", origin)), Spec: traffic.CBR(0.03),
			Priority: 1, Route: route,
		}); err != nil {
			t.Fatalf("setup bc-%d: %v", origin, err)
		}
	}
	tightRoute, err := ref.BroadcastRoute(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "tight", Spec: traffic.CBR(0.03), Priority: 1,
		Route: tightRoute, DelayBound: 200,
	}); err != nil {
		t.Fatalf("setup tight: %v", err)
	}

	report, err := client.FailLink(context.Background(), rtnet.SwitchName(2), rtnet.SwitchName(3))
	if err != nil {
		t.Fatal(err)
	}
	// Only the broadcast from origin 3 avoids link 2->3; everything else —
	// including "tight" — is evicted.
	if len(report.Outcomes) != ringNodes {
		t.Fatalf("evicted %d connections, want %d: %+v", len(report.Outcomes), ringNodes, report)
	}
	for _, o := range report.Outcomes {
		if o.ID == "tight" {
			if o.Readmitted || o.Error == "" {
				t.Errorf("tight outcome = %+v, want reported rejection", o)
			}
		} else if !o.Readmitted {
			t.Errorf("%s not re-admitted: %s", o.ID, o.Error)
		}
	}

	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantLink := core.Link{From: rtnet.SwitchName(2), To: rtnet.SwitchName(3)}
	if h.Connections != ringNodes || h.Violations != 0 ||
		len(h.FailedLinks) != 1 || h.FailedLinks[0] != wantLink {
		t.Fatalf("degraded health = %+v", h)
	}

	if err := client.RestoreLink(context.Background(), rtnet.SwitchName(2), rtnet.SwitchName(3)); err != nil {
		t.Fatal(err)
	}
	h, err = client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.FailedLinks) != 0 || h.Violations != 0 {
		t.Fatalf("restored health = %+v", h)
	}
	// The tight connection stayed down — degradation was reported, not
	// hidden; it is re-admissible over the healed ring.
	ids, err := client.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == "tight" {
			t.Fatal("rejected connection reappeared without a new setup")
		}
	}
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "tight", Spec: traffic.CBR(0.03), Priority: 1,
		Route: tightRoute, DelayBound: 200,
	}); err != nil {
		t.Fatalf("re-setup after restore: %v", err)
	}
}

// TestEndToEndMetricsOracle boots cacd with journal-sync durability, a
// metrics endpoint and a small token bucket, drives mixed churn — accepted
// and delay-bound-rejected setups in parallel, teardowns, a link failure
// with wrapped re-admission, a restore, and a read burst that overloads the
// bucket — while tallying an oracle from the client-observed outcomes. The
// scraped /debug/vars counters must equal the oracle exactly: the metrics
// pipeline may not drop, double-count or invent a single decision.
func TestEndToEndMetricsOracle(t *testing.T) {
	const (
		ringNodes = 6
		good      = 10 // admissible setups
		bad       = 6  // delay-bound-rejected setups
		torn      = 5  // teardowns of accepted connections
		listBurst = 30 // reads thrown against the token bucket
		burst     = 40 // bucket capacity; reads shed below 1 + burst/2 tokens
	)
	dir := t.TempDir()
	stateFile := filepath.Join(dir, "state.json")
	journalFile := filepath.Join(dir, "wal")

	addrCh := make(chan net.Addr, 1)
	metricsCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	testHookMetricsListen = func(a net.Addr) { metricsCh <- a }
	defer func() {
		testHookListen = nil
		testHookMetricsListen = nil
	}()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-ring", fmt.Sprint(ringNodes), "-terminals", "1",
			"-state", stateFile, "-durability", "journal-sync", "-journal", journalFile,
			"-metrics-addr", "127.0.0.1:0",
			// Refill is negligible over the test's lifetime, so the token
			// arithmetic below is deterministic: 40 tokens, one per setup,
			// reads shed below 21.
			"-shed-rate", "0.001", "-shed-burst", fmt.Sprint(burst),
		})
	}()
	var addr, metricsAddr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never announced its address")
	}
	select {
	case a := <-metricsCh:
		metricsAddr = a.String()
	case <-time.After(5 * time.Second):
		t.Fatal("metrics listener never announced its address")
	}
	defer func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}()

	ref, err := rtnet.New(rtnet.Config{RingNodes: ringNodes, TerminalsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	routes := make([]core.Route, ringNodes)
	for origin := 0; origin < ringNodes; origin++ {
		r, err := ref.BroadcastRoute(origin, 0)
		if err != nil {
			t.Fatal(err)
		}
		routes[origin] = r
	}

	// Phase 1: concurrent setups. The good ones are far below every queue
	// and must all be admitted; the bad ones request a delay bound below
	// the sum of per-hop guarantees and must all be rejected with the
	// stable delay-bound code.
	var (
		tallyMu       sync.Mutex
		accepted      int
		rejected      int
		goodHopChecks int
	)
	var wg sync.WaitGroup
	for i := 0; i < good+bad; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := core.ConnRequest{
				ID:       core.ConnID(fmt.Sprintf("good-%d", i)),
				Spec:     traffic.CBR(0.03),
				Priority: 1,
				Route:    routes[i%ringNodes],
			}
			if i >= good {
				req.ID = core.ConnID(fmt.Sprintf("bad-%d", i-good))
				req.DelayBound = 10
			}
			c, err := wire.Dial(addr)
			if err != nil {
				t.Errorf("setup %s: dial: %v", req.ID, err)
				return
			}
			defer c.Close()
			_, err = c.Setup(context.Background(), req)
			tallyMu.Lock()
			defer tallyMu.Unlock()
			switch {
			case err == nil:
				accepted++
				goodHopChecks += len(req.Route)
				if i >= good {
					t.Errorf("bad setup %s was admitted", req.ID)
				}
			case errors.Is(err, core.ErrRejected):
				rejected++
				var re *wire.RemoteError
				if !errors.As(err, &re) || re.Code != core.CodeDelayBound {
					t.Errorf("setup %s: code = %v, want %s via RemoteError", req.ID, err, core.CodeDelayBound)
				}
				if i < good {
					t.Errorf("good setup %s rejected: %v", req.ID, err)
				}
			default:
				t.Errorf("setup %s: %v", req.ID, err)
			}
		}(i)
	}
	wg.Wait()
	if accepted != good || rejected != bad {
		t.Fatalf("churn tally: %d accepted, %d rejected, want %d/%d", accepted, rejected, good, bad)
	}

	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Phase 2: tear down the first torn connections (recovery class: free).
	for i := 0; i < torn; i++ {
		if err := client.Teardown(context.Background(), core.ConnID(fmt.Sprintf("good-%d", i))); err != nil {
			t.Fatalf("teardown good-%d: %v", i, err)
		}
	}

	// Phase 3: fail ring00 -> ring01. Of the survivors (origins 5,0,1,2,3),
	// only the broadcast from origin 1 avoids the link; the other four are
	// evicted and re-admitted over the wrapped ring.
	report, err := client.FailLink(context.Background(), rtnet.SwitchName(0), rtnet.SwitchName(1))
	if err != nil {
		t.Fatal(err)
	}
	const wantEvicted = 4
	if len(report.Outcomes) != wantEvicted {
		t.Fatalf("evicted %d connections, want %d: %+v", len(report.Outcomes), wantEvicted, report)
	}
	crankbackHops := 0
	for _, o := range report.Outcomes {
		// Every evicted broadcast must survive on the wrapped ring in one
		// attempt here — anything else breaks the oracle arithmetic below,
		// so fail loudly with the outcome.
		if !o.Readmitted || o.Attempts != 1 || o.Hops <= 0 {
			t.Fatalf("unexpected re-admission outcome %+v", o)
		}
		crankbackHops += o.Hops
	}
	if err := client.RestoreLink(context.Background(), rtnet.SwitchName(0), rtnet.SwitchName(1)); err != nil {
		t.Fatal(err)
	}

	// Phase 4: hammer the read class. 16 setups drained the 40-token bucket
	// to 24, reads shed below 21 tokens, so most of the burst is shed; the
	// oracle only relies on the client-observed split.
	okLists, shedLists := 0, 0
	for i := 0; i < listBurst; i++ {
		switch _, err := client.List(context.Background()); {
		case err == nil:
			okLists++
		case errors.Is(err, wire.ErrOverloaded):
			shedLists++
		default:
			t.Fatalf("list %d: %v", i, err)
		}
	}
	if shedLists == 0 {
		t.Fatal("read burst was never shed; overload path untested")
	}

	// Scrape the JSON snapshot and assert it equals the oracle.
	vars := scrapeVars(t, metricsAddr)
	assertVar := func(name string, want float64) {
		t.Helper()
		got, ok := vars[name]
		if !ok {
			t.Errorf("metric %s missing from /debug/vars", name)
			return
		}
		if got != want {
			t.Errorf("metric %s = %g, want %g", name, got, want)
		}
	}
	// Admission: client-observed setups plus one accepted setup per
	// re-admission (each re-admission attempt is a full CAC setup).
	assertVar(`atmcac_admission_setups_total{outcome="accepted"}`, float64(accepted+wantEvicted))
	assertVar(`atmcac_admission_setups_total{outcome="rejected"}`, float64(rejected))
	assertVar(`atmcac_admission_setups_total{outcome="error"}`, 0)
	assertVar(`atmcac_admission_rejections_total{code="delay-bound"}`, float64(rejected))
	assertVar(`atmcac_admission_teardowns_total{outcome="ok"}`, float64(torn))
	assertVar("atmcac_admission_setup_seconds_count", float64(accepted+rejected+wantEvicted))
	// Delay-bound rejections fail the end-to-end pre-check before any hop,
	// so hop checks come only from admitted routes and wrapped re-admissions.
	assertVar("atmcac_admission_hop_check_seconds_count", float64(goodHopChecks+crankbackHops))
	// Failover.
	assertVar("atmcac_failover_faillink_total", 1)
	assertVar("atmcac_failover_evicted_total", wantEvicted)
	assertVar("atmcac_failover_restorelink_total", 1)
	assertVar("atmcac_failover_readmitted_total", wantEvicted)
	assertVar("atmcac_failover_down_total", 0)
	assertVar("atmcac_failover_readmit_attempts_total", wantEvicted)
	assertVar("atmcac_failover_crankback_hops_total", float64(crankbackHops))
	// Journal: one synced append per acked mutation — accepted setups,
	// teardowns, the fail-link record and the restore-link record.
	// Re-admissions ride inside the fail-link record. Every record goes
	// through the one group commit, and phase 1 issues its setups from
	// parallel goroutines, so one fsync may cover several records: every
	// record sits in exactly one group, and each group is one fsync.
	appends := float64(accepted + torn + 2)
	assertVar("atmcac_journal_append_seconds_count", appends)
	assertVar("atmcac_journal_group_commit_ops_sum", appends)
	assertVar("atmcac_journal_fsync_seconds_count", vars[`atmcac_journal_group_commits_total{outcome="ok"}`])
	assertVar(`atmcac_journal_group_commits_total{outcome="error"}`, 0)
	assertVar("atmcac_journal_append_errors_total", 0)
	assertVar("atmcac_journal_records", appends)
	assertVar(`atmcac_journal_compactions_total{outcome="ok"}`, 0)
	if vars["atmcac_journal_append_bytes_total"] <= 0 {
		t.Errorf("atmcac_journal_append_bytes_total = %g, want > 0", vars["atmcac_journal_append_bytes_total"])
	}
	// Overload and the request plane.
	assertVar(`atmcac_overload_shed_total{class="read"}`, float64(shedLists))
	assertVar(`atmcac_requests_total{op="setup",outcome="ok"}`, float64(accepted))
	assertVar(`atmcac_requests_total{op="setup",outcome="error"}`, float64(rejected))
	assertVar(`atmcac_requests_total{op="teardown",outcome="ok"}`, float64(torn))
	assertVar(`atmcac_requests_total{op="list",outcome="ok"}`, float64(okLists))
	assertVar(`atmcac_requests_total{op="list",outcome="shed"}`, float64(shedLists))
	// Live-state gauges: 10 admitted - 5 torn down, all evictions
	// re-admitted; the failed link was restored.
	assertVar("atmcac_admission_connections", float64(good-torn))
	assertVar("atmcac_failover_links_down", 0)

	// The Prometheus endpoint must serve the same counters as typed text.
	text := scrapeText(t, metricsAddr)
	for _, want := range []string{
		"# TYPE atmcac_admission_setups_total counter",
		fmt.Sprintf(`atmcac_admission_setups_total{outcome="accepted"} %d`, accepted+wantEvicted),
		"# TYPE atmcac_admission_setup_seconds histogram",
		`atmcac_admission_setup_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}

	// The health operation carries the same snapshot over the CAC protocol
	// itself (the cacctl metrics path) — spot-check parity with the scrape.
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`atmcac_admission_setups_total{outcome="accepted"}`,
		"atmcac_failover_crankback_hops_total",
		"atmcac_journal_fsync_seconds_count",
	} {
		if h.Metrics[name] != vars[name] {
			t.Errorf("health metrics %s = %g, scrape says %g", name, h.Metrics[name], vars[name])
		}
	}
}

// scrapeVars GETs /debug/vars and decodes the flattened snapshot.
func scrapeVars(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatalf("scrape /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /debug/vars: %v", err)
	}
	vars := make(map[string]float64)
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("decode /debug/vars: %v\n%s", err, body)
	}
	return vars
}

// scrapeText GETs /metrics and returns the Prometheus exposition.
func scrapeText(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	return string(body)
}

// TestEndToEndJournalDurability boots cacd in journal-sync mode, admits
// connections and tears one down, drains, and restarts from the same
// state+journal pair: the surviving set must come back exactly, through
// the full flag plumbing (-durability, -journal, -compact-records).
func TestEndToEndJournalDurability(t *testing.T) {
	dir := t.TempDir()
	stateFile := filepath.Join(dir, "state.json")
	journalFile := filepath.Join(dir, "wal")

	boot := func() (string, chan error) {
		addrCh := make(chan net.Addr, 1)
		testHookListen = func(a net.Addr) { addrCh <- a }
		done := make(chan error, 1)
		go func() {
			done <- run([]string{
				"-listen", "127.0.0.1:0", "-ring", "4", "-terminals", "1",
				"-state", stateFile, "-durability", "journal-sync",
				"-journal", journalFile, "-compact-records", "3",
			})
		}()
		select {
		case a := <-addrCh:
			testHookListen = nil
			return a.String(), done
		case err := <-done:
			t.Fatalf("server exited before listening: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("server never announced its address")
		}
		return "", nil
	}
	stop := func(done chan error) {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("run returned %v", err)
		}
	}

	ref, err := rtnet.New(rtnet.Config{RingNodes: 4, TerminalsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, done := boot()
	client, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		route, err := ref.BroadcastRoute(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Setup(context.Background(), core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("jc-%d", i)), Spec: traffic.CBR(0.02),
			Priority: 1, Route: route,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Teardown(context.Background(), "jc-1"); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	stop(done)

	addr2, done2 := boot()
	client2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := client2.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 2 || ids[0] != "jc-0" || ids[1] != "jc-2" {
		t.Fatalf("after journal-mode restart List = %v, want [jc-0 jc-2]", ids)
	}
	_ = client2.Close()
	stop(done2)
}
