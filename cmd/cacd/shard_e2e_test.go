package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/replica"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// TestEndToEndShardedSetup runs the partitioned deployment as three full
// cacd processes-in-miniature: two journaled shard daemons (each serving
// the whole 4-node ring, each owning half the switches in the map) and a
// coordinator daemon fronting them. A cross-shard setup through the
// coordinator must land one leg on each shard with no prepared hold left
// behind, health must name each shard, and teardown through the
// coordinator must release both legs. A few hundred pipelined set-ups
// then show the coordinator's mechanisms in its own metrics: one dialled
// connection per shard, and every intent record accounted for by a group
// commit.
func TestEndToEndShardedSetup(t *testing.T) {
	dir := t.TempDir()
	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	cDone := make(chan error, 1)
	aAddr, _ := bootDaemon(t, aDone, false, "-shard-id", "s0",
		"-state", filepath.Join(dir, "s0.json"), "-durability", "journal-sync",
		"-reap-interval", "50ms")
	bAddr, _ := bootDaemon(t, bDone, false, "-shard-id", "s1",
		"-state", filepath.Join(dir, "s1.json"), "-durability", "journal-sync",
		"-reap-interval", "50ms")
	mapSpec := fmt.Sprintf("s0@%s=ring00,ring01;s1@%s=ring02,ring03", aAddr, bAddr)
	metricsCh := make(chan net.Addr, 1)
	testHookMetricsListen = func(a net.Addr) { metricsCh <- a }
	intentLog := filepath.Join(dir, "intent.log")
	cAddr, _ := bootDaemon(t, cDone, false,
		"-shard-map", mapSpec, "-intent-log", intentLog, "-metrics-addr", "127.0.0.1:0")
	testHookMetricsListen = nil
	metricsAddr := (<-metricsCh).String()

	cc, err := wire.Dial(cAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	route := core.Route{
		{Switch: "ring00", In: 5, Out: 0},
		{Switch: "ring01", In: 5, Out: 0},
		{Switch: "ring02", In: 5, Out: 0},
		{Switch: "ring03", In: 5, Out: 0},
	}
	adm, err := cc.Setup(context.Background(), core.ConnRequest{
		ID: "xconn", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	})
	if err != nil {
		t.Fatalf("cross-shard setup through coordinator: %v", err)
	}
	if adm.EndToEndGuaranteed <= 0 {
		t.Fatalf("no end-to-end guarantee returned: %+v", adm)
	}

	for _, shardAddr := range []struct{ id, addr string }{{"s0", aAddr}, {"s1", bAddr}} {
		sc, err := wire.Dial(shardAddr.addr)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := sc.List(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != "xconn" {
			t.Fatalf("shard %s lists %v, want [xconn]", shardAddr.id, ids)
		}
		h, err := sc.Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h.ShardID != shardAddr.id || h.Prepared != 0 {
			t.Fatalf("shard %s health: shardId=%q prepared=%d", shardAddr.id, h.ShardID, h.Prepared)
		}
		st, err := sc.ShardStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.ShardID != shardAddr.id || len(st.Prepared) != 0 {
			t.Fatalf("shard %s status: %+v", shardAddr.id, st)
		}
		sc.Close()
	}

	// The coordinator's own health speaks for the fleet.
	h, err := cc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.Connections != 1 {
		t.Fatalf("coordinator health: role=%q connections=%d", h.Role, h.Connections)
	}

	if err := cc.Teardown(context.Background(), "xconn"); err != nil {
		t.Fatalf("teardown through coordinator: %v", err)
	}
	for _, addr := range []string{aAddr, bAddr} {
		sc, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := sc.List(context.Background())
		sc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("residual connections %v on %s after coordinator teardown", ids, addr)
		}
	}

	// A ring-wrapping route revisits s0 (its hops straddle s1): the
	// coordinator merges s0's runs into one prepare and demands an
	// end-to-end bound for the jitter entering the downstream run.
	wrapRoute := core.Route{
		{Switch: "ring01", In: 5, Out: 0},
		{Switch: "ring02", In: 5, Out: 0},
		{Switch: "ring03", In: 5, Out: 0},
		{Switch: "ring00", In: 5, Out: 0},
	}
	wrap := core.ConnRequest{ID: "wconn", Spec: traffic.CBR(0.05), Priority: 1, Route: wrapRoute}
	if _, err := cc.Setup(context.Background(), wrap); err == nil {
		t.Fatal("unbounded wrapping setup admitted through coordinator")
	}
	wrap.DelayBound = 4 * 40
	if _, err := cc.Setup(context.Background(), wrap); err != nil {
		t.Fatalf("bounded wrapping setup through coordinator: %v", err)
	}
	for _, addr := range []string{aAddr, bAddr} {
		sc, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := sc.List(context.Background())
		sc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 || ids[0] != "wconn" {
			t.Fatalf("shard %s lists %v, want [wconn]", addr, ids)
		}
	}
	if err := cc.Teardown(context.Background(), "wconn"); err != nil {
		t.Fatalf("teardown of wrapped connection: %v", err)
	}

	// 16 callers pipelined on the one client connection, half of their
	// set-ups cross-shard.
	const callers, perCaller = 16, 16
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := core.ConnRequest{ID: core.ConnID(fmt.Sprintf("p%d-%d", w, i)),
					Spec: traffic.CBR(0.0005), Priority: 1, Route: route}
				if i%2 == 1 {
					req.Route = route[2:]
				}
				if _, err := cc.Setup(context.Background(), req); err != nil {
					t.Errorf("pipelined setup %s: %v", req.ID, err)
					return
				}
				if err := cc.Teardown(context.Background(), req.ID); err != nil {
					t.Errorf("pipelined teardown %s: %v", req.ID, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	vars := scrapeVars(t, metricsAddr)
	for _, id := range []string{"s0", "s1"} {
		if got := vars[fmt.Sprintf(`atmcac_coord_shard_dials_total{shard=%q}`, id)]; got != 1 {
			t.Errorf("coordinator dialled %s %v times over the whole run, want 1", id, got)
		}
	}
	data, err := os.ReadFile(intentLog)
	if err != nil {
		t.Fatal(err)
	}
	written := 0
	if _, torn := journal.ScanFrames(data, func(_, payload []byte) error {
		var rec shard.IntentRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		written++
		return nil
	}); torn {
		t.Fatal("intent log torn while the coordinator runs")
	}
	if got := vars["atmcac_intent_group_commit_ops_sum"]; got != float64(written) {
		t.Errorf("group commits account for %v intent records, the log holds %d", got, written)
	}
	if groups := vars["atmcac_intent_fsync_seconds_count"]; groups == 0 || groups >= float64(written) {
		t.Errorf("%v fsyncs for %d intent records: nothing coalesced", groups, written)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"s0": aDone, "s1": bDone, "coordinator": cDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s daemon exited with %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s daemon did not drain on SIGTERM", name)
		}
	}
}

// TestShardFlagValidation pins the role-exclusivity and intent-log
// requirements.
func TestShardFlagValidation(t *testing.T) {
	if err := run([]string{"-shard-map", "s0@h:1=sw0", "-shard-id", "s0"}); err == nil {
		t.Fatal("coordinator+shard roles accepted")
	}
	if err := run([]string{"-shard-map", "s0@h:1=sw0"}); err == nil {
		t.Fatal("coordinator without -intent-log accepted")
	}
	if err := run([]string{"-shard-map", "garbage", "-intent-log", "x.log"}); err == nil {
		t.Fatal("malformed shard map accepted")
	}
	if err := run([]string{"-coord-replicate-from", "h:1"}); err == nil {
		t.Fatal("standby coordinator without -shard-map accepted")
	}
	if err := run([]string{"-coord-replication-listen", "127.0.0.1:0"}); err == nil {
		t.Fatal("-coord-replication-listen without -shard-map accepted")
	}
}

// TestEndToEndCoordinatorTakeover runs the coordinator-HA deployment the
// new flags wire up: an in-process active coordinator (killable without
// signalling the whole test binary) ships its intent log to a standby
// cacd started with -coord-replicate-from. When the active dies, the
// standby daemon promotes, falls through to the active role on its log
// copy at the bumped term, announces its listener, and keeps serving the
// fleet — the pre-takeover connection is still listed and new setups are
// admitted at term 2.
func TestEndToEndCoordinatorTakeover(t *testing.T) {
	dir := t.TempDir()
	aDone := make(chan error, 1)
	bDone := make(chan error, 1)
	aAddr, _ := bootDaemon(t, aDone, false, "-shard-id", "s0",
		"-state", filepath.Join(dir, "s0.json"), "-durability", "journal-sync")
	bAddr, _ := bootDaemon(t, bDone, false, "-shard-id", "s1",
		"-state", filepath.Join(dir, "s1.json"), "-durability", "journal-sync")
	mapSpec := fmt.Sprintf("s0@%s=ring00,ring01;s1@%s=ring02,ring03", aAddr, bAddr)

	// The active coordinator runs in-process from the same library pieces
	// runCoordinator composes, so the test can kill it alone.
	m, err := shard.ParseMap(mapSpec)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := shard.NewCoordinator(m, journal.OSFS{}, filepath.Join(dir, "intent-active.log"))
	if err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	prim, err := shard.NewIntentPrimary(coord, replica.PrimaryConfig{HeartbeatEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = prim.Serve(rln) }()

	addrCh := make(chan net.Addr, 1)
	replCh := make(chan net.Addr, 1)
	testHookListen = func(a net.Addr) { addrCh <- a }
	testHookReplListen = func(a net.Addr) { replCh <- a }
	defer func() { testHookListen = nil; testHookReplListen = nil }()
	sbDone := make(chan error, 1)
	go func() {
		sbDone <- run([]string{
			"-listen", "127.0.0.1:0",
			"-shard-map", mapSpec,
			"-intent-log", filepath.Join(dir, "intent-standby.log"),
			"-coord-replicate-from", rln.Addr().String(),
			"-coord-replication-listen", "127.0.0.1:0",
			"-coord-failover-timeout", "400ms",
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !prim.Attached() {
		if time.Now().After(deadline) {
			t.Fatal("standby coordinator never attached to the intent stream")
		}
		time.Sleep(10 * time.Millisecond)
	}

	route := core.Route{
		{Switch: "ring00", In: 5, Out: 0},
		{Switch: "ring01", In: 5, Out: 0},
		{Switch: "ring02", In: 5, Out: 0},
		{Switch: "ring03", In: 5, Out: 0},
	}
	if _, err := coord.Setup(context.Background(), core.ConnRequest{
		ID: "pre-takeover", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}); err != nil {
		t.Fatalf("setup through the active coordinator: %v", err)
	}

	// Kill the active coordinator outright: stream, listener, shard connections.
	prim.Close()
	_ = rln.Close()
	_ = coord.Close()

	var addr string
	select {
	case a := <-addrCh:
		addr = a.String()
	case err := <-sbDone:
		t.Fatalf("standby daemon exited instead of promoting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("promoted coordinator never announced its listener")
	}
	// The promoted coordinator serves its own intent stream for the next
	// standby in line.
	select {
	case <-replCh:
	case <-time.After(5 * time.Second):
		t.Fatal("promoted coordinator never announced its replication listener")
	}

	cc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	h, err := cc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "coordinator" || h.Epoch != 2 {
		t.Fatalf("promoted coordinator health: role=%q epoch=%d, want coordinator at term 2", h.Role, h.Epoch)
	}
	ids, err := cc.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "pre-takeover" {
		t.Fatalf("promoted coordinator lists %v, want [pre-takeover]", ids)
	}
	if _, err := cc.Setup(context.Background(), core.ConnRequest{
		ID: "post-takeover", Spec: traffic.CBR(0.05), Priority: 1, Route: route,
	}); err != nil {
		t.Fatalf("setup through the promoted coordinator: %v", err)
	}
	for _, id := range []core.ConnID{"pre-takeover", "post-takeover"} {
		if err := cc.Teardown(context.Background(), id); err != nil {
			t.Fatalf("teardown %s through the promoted coordinator: %v", id, err)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{"s0": aDone, "s1": bDone, "promoted coordinator": sbDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s daemon exited with %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s daemon did not drain on SIGTERM", name)
		}
	}
}
