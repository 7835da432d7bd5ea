package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/replica"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

func TestParseMapReplicatedPair(t *testing.T) {
	m, err := ParseMap("s0@h0:1|h0:9=sw0,sw1;s1@h1:2=sw2")
	if err != nil {
		t.Fatal(err)
	}
	shards := m.Shards()
	if shards[0].Addr != "h0:1" || shards[0].Standby != "h0:9" {
		t.Fatalf("pair entry = %+v", shards[0])
	}
	if shards[1].Standby != "" {
		t.Fatalf("unpaired entry grew a standby: %+v", shards[1])
	}
	if eps := shards[0].Endpoints(); len(eps) != 2 || eps[0] != "h0:1" || eps[1] != "h0:9" {
		t.Fatalf("endpoints = %v", eps)
	}
	if eps := shards[1].Endpoints(); len(eps) != 1 {
		t.Fatalf("singleton endpoints = %v", eps)
	}
	for _, bad := range []string{
		"s0@h0:1|=sw0",     // empty standby
		"s0@|h0:9=sw0",     // empty primary
		"s0@h0:1|h0:1=sw0", // primary == standby
	} {
		if _, err := ParseMap(bad); err == nil {
			t.Errorf("ParseMap(%q) accepted", bad)
		}
	}
}

// startStandbyShard boots a warm-standby wire server owning the given
// switches: writes refused until promoted, exactly the state a shard
// pair's survivor is in when the coordinator fails over to it.
func startStandbyShard(t *testing.T, id string, switches ...string) (addr string, srv *wire.Server) {
	t.Helper()
	return serveShard(t, id, 32, func(srv *wire.Server) { srv.SetStandby(true) }, switches...)
}

// pairFixture builds s0 as a singleton and s1 as a replicated pair
// (live primary, warm standby), plus a coordinator over them.
func pairFixture(t *testing.T) (c *Coordinator, s1Primary *wire.Server, s1StandbyAddr string) {
	t.Helper()
	addr0, _ := startShard(t, "s0", "sw0", "sw1")
	addr1, srv1 := startShard(t, "s1", "sw2", "sw3")
	addr1s, _ := startStandbyShard(t, "s1", "sw2", "sw3")
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s|%s=sw2,sw3", addr0, addr1, addr1s))
	if err != nil {
		t.Fatal(err)
	}
	c, err = NewCoordinator(m, nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	c.OpTimeout = 500 * time.Millisecond
	t.Cleanup(func() { _ = c.Close() })
	return c, srv1, addr1s
}

// TestSetupFailsOverToShardStandbyMidCommit is the tentpole's in-flight
// guarantee: the shard primary dies after the commit decision, with the
// first shard already committed, and the setup still completes — the
// coordinator promotes the standby and drives the commit there. The
// commit legs go out together, so the interleaving is pinned on the
// victim: its primary holds the commit it received until it is dead, and
// never answers it.
func TestSetupFailsOverToShardStandbyMidCommit(t *testing.T) {
	c, srv1, addr1s := pairFixture(t)
	ctx := context.Background()
	release := make(chan struct{})
	defer close(release) // lets the dying primary's handler (and its Close) finish
	srv1.SetTestHookPreAppend(func(op string, _ core.ConnID) {
		if op == wire.OpShardCommit {
			<-release
		}
	})
	c.SetTestHook(func(point, txn string) error {
		if point == "mid-commit" { // fired by s0's leg: s1's is parked above
			c.SetTestHook(nil)
			go srv1.Close() // the s1 primary dies; its standby survives
		}
		return nil
	})
	adm, err := c.Setup(ctx, crossReq("c1"))
	if err != nil {
		t.Fatalf("setup across a mid-commit primary death: %v", err)
	}
	if adm == nil || adm.ID != "c1" {
		t.Fatalf("admission = %+v", adm)
	}
	if got := c.ActiveAddr("s1"); got != addr1s {
		t.Fatalf("active s1 endpoint = %q, want the standby %q", got, addr1s)
	}
	// The survivor was promoted and carries the connection.
	cl, err := wire.Dial(addr1s)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Replication(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "primary" || rep.Epoch == 0 {
		t.Fatalf("survivor replication = %+v, want promoted primary", rep)
	}
	ids, err := cl.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "c1" {
		t.Fatalf("survivor list = %v", ids)
	}
	if len(c.InDoubt()) != 0 {
		t.Fatalf("in doubt after failover: %v", c.InDoubt())
	}
}

// TestRecoverAgainstPromotedStandbyShard pins the satellite scenario: a
// commit goes in doubt because the shard's primary died, the pair's
// standby is promoted (higher epoch) while the coordinator is down, and
// a rebooted coordinator's boot-time Recover must resolve the in-doubt
// transaction against the promoted member — adopting it into the pool
// and re-admitting the leg the dead primary only ever held as a prepare.
func TestRecoverAgainstPromotedStandbyShard(t *testing.T) {
	addr0, _ := startShard(t, "s0", "sw0", "sw1")
	addr1, srv1 := startShard(t, "s1", "sw2", "sw3")
	addr1s, _ := startStandbyShard(t, "s1", "sw2", "sw3")
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s|%s=sw2,sw3", addr0, addr1, addr1s))
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "intent")
	c, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	c.OpTimeout = 500 * time.Millisecond
	ctx := context.Background()

	// The coordinator dies at mid-commit: commit intent durable, s0
	// committed, s1 never heard — a textbook in-doubt transaction.
	crashAt(c, "mid-commit")
	if _, err := c.Setup(ctx, crossReq("c1")); err == nil {
		t.Fatal("abandoned setup reported success")
	}
	_ = c.Close()

	// While the coordinator is down, the s1 primary dies too and an
	// operator (or the replication watchdog) promotes the standby.
	_ = srv1.Close()
	pcl, err := wire.Dial(addr1s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pcl.Promote(context.Background())
	_ = pcl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "primary" || rep.Epoch == 0 {
		t.Fatalf("promoted standby = %+v", rep)
	}

	// Boot-time recovery: the fresh coordinator reads the in-doubt
	// commit, fails over s1 to the promoted member and re-drives it.
	c2, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.OpTimeout = 500 * time.Millisecond
	if got := c2.InDoubt(); len(got) != 1 {
		t.Fatalf("in doubt at boot = %v, want one txn", got)
	}
	report, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Committed) != 1 || len(report.InDoubt) != 0 || len(report.Aborted) != 0 {
		t.Fatalf("recover report = %+v", report)
	}
	if got := c2.ActiveAddr("s1"); got != addr1s {
		t.Fatalf("active s1 endpoint = %q, want the promoted member %q", got, addr1s)
	}
	for _, check := range []struct{ addr string }{{addr0}, {addr1s}} {
		cl, err := wire.Dial(check.addr)
		if err != nil {
			t.Fatal(err)
		}
		ids, lerr := cl.List(context.Background())
		_ = cl.Close()
		if lerr != nil {
			t.Fatal(lerr)
		}
		if len(ids) != 1 || ids[0] != "c1" {
			t.Fatalf("%s list = %v, want [c1]", check.addr, ids)
		}
	}
}

// TestStaleCoordinatorFencedByShardRatchet pins the split-brain guard:
// once any shard has served a coordinator at term 2, a term-1
// coordinator's next operation is refused with the typed code and the
// old coordinator fences itself permanently.
func TestStaleCoordinatorFencedByShardRatchet(t *testing.T) {
	addr0, _ := startShard(t, "s0", "sw0", "sw1")
	addr1, _ := startShard(t, "s1", "sw2", "sw3")
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s=sw2,sw3", addr0, addr1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()
	old, err := NewCoordinator(m, nil, filepath.Join(dir, "intent-old"))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	// The successor's log carries an epoch record — what a promoted
	// standby coordinator appends before taking over.
	succPath := filepath.Join(dir, "intent-new")
	log, _, _, err := OpenIntentLog(nil, succPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Append(&IntentRecord{State: IntentEpoch, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	_ = log.Close()
	succ, err := NewCoordinator(m, nil, succPath)
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()
	if succ.Epoch() != 2 {
		t.Fatalf("successor term = %d, want 2", succ.Epoch())
	}
	if _, err := succ.Setup(ctx, crossReq("c-new")); err != nil {
		t.Fatal(err)
	}

	// The old coordinator's term-1 prepare hits the ratchet.
	_, err = old.Setup(ctx, crossReq("c-old"))
	if !errors.Is(err, ErrCoordFenced) {
		t.Fatalf("stale coordinator setup error = %v, want ErrCoordFenced", err)
	}
	if !old.Fenced() {
		t.Fatal("stale coordinator did not fence itself")
	}
	// Fencing is one-way: refused before any shard is even contacted.
	if _, err := old.Setup(ctx, crossReq("c-old2")); !errors.Is(err, ErrCoordFenced) {
		t.Fatalf("fenced coordinator setup error = %v", err)
	}
	if err := old.Teardown(ctx, "c-new"); !errors.Is(err, ErrCoordFenced) {
		t.Fatalf("fenced coordinator teardown error = %v", err)
	}
	// The rightful coordinator is untouched by the collision.
	if _, err := succ.Setup(ctx, crossReq2("c-new2")); err != nil {
		t.Fatal(err)
	}
}

// crossReq2 is crossReq on a different ingress port so two admissions
// coexist within the queue budget.
func crossReq2(id string) core.ConnRequest {
	req := crossReq(id)
	for i := range req.Route {
		req.Route[i].In = 2
	}
	return req
}

// TestStandbyCoordinatorTailsPromotesAndResumes drives the coordinator
// pair end to end: a standby tails the intent log over the replication
// stream, the active dies, the standby promotes at a bumped term, and
// the log it promoted from boots a coordinator that recovers and serves.
func TestStandbyCoordinatorTailsPromotesAndResumes(t *testing.T) {
	c, m, activePath := twoShardFixture(t)
	prim, sbLog, sbPath, runDone := coordinatorPair(t, c)

	// Traffic while the standby tails: every intent ships synchronously.
	ctx := context.Background()
	if _, err := c.Setup(ctx, crossReq("c1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Setup(ctx, crossReq2("c2")); err != nil {
		t.Fatal(err)
	}
	// The second setup's done record is still queued behind its ack;
	// the handover this test means happens after the log has drained.
	c.IntentLog().Flush()
	if lag := prim.Lag(); lag != 0 {
		t.Fatalf("standby lag after synchronous ships = %d", lag)
	}
	// Quiescent: the standby's copy is the active's log, byte for byte.
	active, err := os.ReadFile(activePath)
	if err != nil {
		t.Fatal(err)
	}
	if copied, err := os.ReadFile(sbPath); err != nil || !bytes.Equal(active, copied) {
		t.Fatalf("standby copy (%d bytes, err %v) differs from the active log (%d bytes)", len(copied), err, len(active))
	}

	// The active coordinator dies; the standby must promote.
	prim.Close()
	_ = c.Close()
	awaitPromotion(t, runDone, sbLog)

	// The promoted log boots a working coordinator at the bumped term.
	c2, err := NewCoordinator(m, nil, sbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.OpTimeout = 500 * time.Millisecond
	if c2.Epoch() != 2 {
		t.Fatalf("successor term = %d, want 2", c2.Epoch())
	}
	report, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Both setups completed before the handover: their done records
	// shipped too, so nothing is open.
	if len(report.Committed)+len(report.Aborted)+len(report.InDoubt) != 0 {
		t.Fatalf("recover report = %+v, want nothing open", report)
	}
	ids, err := c2.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("connections after takeover = %v", ids)
	}
	if err := c2.Teardown(ctx, "c1"); err != nil {
		t.Fatal(err)
	}
}

// TestStandbyCoordinatorMidCommitTakeover kills the active coordinator
// at the worst instant — commit durable and shipped, first shard
// committed — and asserts the promoted standby's recovery completes the
// transaction rather than losing or halving it.
func TestStandbyCoordinatorMidCommitTakeover(t *testing.T) {
	c, m, _ := twoShardFixture(t)
	c.OpTimeout = 500 * time.Millisecond
	prim, sbLog, sbPath, runDone := coordinatorPair(t, c)

	ctx := context.Background()
	crashAt(c, "mid-commit")
	if _, err := c.Setup(ctx, crossReq("c1")); err == nil {
		t.Fatal("abandoned setup reported success")
	}
	prim.Close()
	_ = c.Close()
	awaitPromotion(t, runDone, sbLog)

	c2, err := NewCoordinator(m, nil, sbPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.OpTimeout = 500 * time.Millisecond
	if got := c2.InDoubt(); len(got) != 1 {
		t.Fatalf("in doubt on the successor = %v, want the interrupted txn", got)
	}
	report, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Committed) != 1 || len(report.InDoubt) != 0 {
		t.Fatalf("recover report = %+v, want the commit re-driven", report)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c2, id); len(ids) != 1 || ids[0] != "c1" {
			t.Fatalf("%s list = %v, want [c1]", id, ids)
		}
	}
}

// TestIntentSinkIdempotentAndHoleTolerant pins the standby apply
// contract: redelivered frames are skipped, forward sequence jumps (a
// reserved-but-unwritten hole on the primary) are accepted.
func TestIntentSinkIdempotentAndHoleTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "intent")
	log, _, _, err := OpenIntentLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	sink := &intentSink{log: log, epoch: log.term}
	frame := func(seq uint64) []byte {
		return []byte(fmt.Sprintf(`{"seq":%d,"state":"begin","txn":"x%d-c"}`, seq, seq))
	}
	for _, seq := range []uint64{1, 1, 3, 2, 7} { // dup and stale skipped, hole 4-6 accepted
		if err := sink.Apply(seq, 1, frame(seq)); err != nil {
			t.Fatalf("Apply(%d): %v", seq, err)
		}
	}
	if got := log.LastSeq(); got != 7 {
		t.Fatalf("LastSeq = %d, want 7", got)
	}
	if err := sink.Apply(5, 1, []byte(`{"seq":9}`)); err == nil {
		t.Fatal("seq/envelope disagreement accepted")
	}
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = log.Close()
	log2, recs, torn, err := OpenIntentLog(nil, path)
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	defer log2.Close()
	if len(recs) != 3 || recs[0].Seq != 1 || recs[1].Seq != 3 || recs[2].Seq != 7 {
		t.Fatalf("records = %+v", recs)
	}
}

// intentPrimary is NewIntentPrimary for a config it must accept.
func intentPrimary(t *testing.T, c *Coordinator, cfg replica.PrimaryConfig) *replica.Primary {
	t.Helper()
	prim, err := NewIntentPrimary(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return prim
}

// TestIntentPrimaryRefusesModeFields: the intent shipper's mode is fixed
// (sync while a standby is attached), so a config setting Mode or MaxLag
// is refused rather than silently overridden.
func TestIntentPrimaryRefusesModeFields(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	for _, cfg := range []replica.PrimaryConfig{{Mode: replica.ModeAsync}, {MaxLag: 8}} {
		if _, err := NewIntentPrimary(c, cfg); err == nil {
			t.Errorf("NewIntentPrimary(%+v) accepted a field it cannot honour", cfg)
		}
	}
}

// coordinatorPair ships c's intent log to a standby coordinator tailing
// into a fresh log, and returns once the standby is attached, so every
// intent from here on ships synchronously. runDone receives Run's result.
func coordinatorPair(t *testing.T, c *Coordinator) (prim *replica.Primary, sbLog *IntentLog, sbPath string, runDone chan error) {
	t.Helper()
	prim = intentPrimary(t, c, replica.PrimaryConfig{HeartbeatEvery: 20 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = prim.Serve(ln) }()
	sbPath = filepath.Join(t.TempDir(), "intent-standby")
	sbLog, _, _, err = OpenIntentLog(nil, sbPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sbLog.Close() })
	sb := NewStandbyCoordinator(sbLog, replica.StandbyConfig{
		PrimaryAddr: ln.Addr().String(), FailoverTimeout: 400 * time.Millisecond,
	})
	runDone = make(chan error, 1)
	go func() { runDone <- sb.Run() }()
	for start := time.Now(); !prim.Attached(); {
		if time.Since(start) > 5*time.Second {
			t.Fatal("standby coordinator never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return prim, sbLog, sbPath, runDone
}

// awaitPromotion waits for the standby coordinator to promote after the
// active's death, then closes its log so a coordinator can reopen it.
func awaitPromotion(t *testing.T, runDone chan error, sbLog *IntentLog) {
	t.Helper()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("standby run = %v, want promotion", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("standby never promoted")
	}
	if err := sbLog.Close(); err != nil {
		t.Fatal(err)
	}
}

// muteStandby attaches to the intent replication stream as a standby
// coordinator and acks every record until told to stall — the shape of
// a standby whose process wedged or whose acks are being lost while the
// stream itself stays up.
func muteStandby(t *testing.T, addr string, fromSeq uint64) (stall *atomic.Bool, conn net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := replica.WriteMsg(conn, replica.Msg{Type: replica.MsgHello, Seq: fromSeq, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	stall = new(atomic.Bool)
	go func() {
		for {
			msg, err := replica.ReadMsg(conn)
			if err != nil {
				return
			}
			if msg.Type == replica.MsgRecord && !stall.Load() {
				_ = replica.WriteMsg(conn, replica.Msg{Type: replica.MsgAck, Seq: msg.Seq})
			}
		}
	}()
	return stall, conn
}

// TestUnreplicatedCommitIntentGoesInDoubt pins the divergence guard: a
// commit intent that is durable locally but never acknowledged by the
// standby coordinator must leave the transaction IN DOUBT, not flip it
// to abort — the standby may hold the commit record, and a takeover
// would re-drive it while the shards saw aborts.
func TestUnreplicatedCommitIntentGoesInDoubt(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	prim := intentPrimary(t, c, replica.PrimaryConfig{AckTimeout: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = prim.Serve(ln) }()
	defer prim.Close()
	stall, _ := muteStandby(t, ln.Addr().String(), c.IntentLog().LastSeq())
	for start := time.Now(); !prim.Attached(); {
		if time.Since(start) > 5*time.Second {
			t.Fatal("standby never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx := context.Background()
	c.SetTestHook(func(point, txn string) error {
		if point == "pre-commit" {
			c.SetTestHook(nil)
			stall.Store(true) // the commit intent ships but is never acked
		}
		return nil
	})
	_, err = c.Setup(ctx, crossReq("c1"))
	if !errors.Is(err, ErrInDoubt) {
		t.Fatalf("setup with an unreplicated commit intent = %v, want ErrInDoubt", err)
	}
	if got := c.InDoubt(); len(got) != 1 {
		t.Fatalf("in doubt = %v, want the interrupted txn", got)
	}
	// The durable decision is commit: recovery re-drives it everywhere,
	// never an abort.
	report, err := c.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Committed) != 1 || len(report.Aborted) != 0 || len(report.InDoubt) != 0 {
		t.Fatalf("recover report = %+v, want the commit re-driven", report)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c, id); len(ids) != 1 || ids[0] != "c1" {
			t.Fatalf("%s list = %v, want [c1]", id, ids)
		}
	}
}

// TestLagDuringBlockedShipDoesNotDeadlock pins the lock order between
// the intent log and the shipper: Lag and Unacked (metrics gauges) must
// not wait on the log while an append is parked waiting for its ack, or
// the scrape and the append deadlock each other permanently.
func TestLagDuringBlockedShipDoesNotDeadlock(t *testing.T) {
	c, _, _ := twoShardFixture(t)
	prim := intentPrimary(t, c, replica.PrimaryConfig{AckTimeout: 300 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = prim.Serve(ln) }()
	defer prim.Close()
	stall, _ := muteStandby(t, ln.Addr().String(), c.IntentLog().LastSeq())
	stall.Store(true) // never ack anything
	for start := time.Now(); !prim.Attached(); {
		if time.Since(start) > 5*time.Second {
			t.Fatal("standby never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	stop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = prim.Lag(), prim.Unacked()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	// The begin intent ships, is never acked, and must fail within the
	// ack timeout — while the Lag poller hammers the shipper's lock.
	_, err = c.Setup(context.Background(), crossReq("c1"))
	close(stop)
	<-pollDone
	if !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("setup against a mute standby = %v, want ErrNotReplicated", err)
	}
	// The mute session is detached; the coordinator proceeds unreplicated.
	if _, err := c.Setup(context.Background(), crossReq2("c2")); err != nil {
		t.Fatalf("setup after detaching the mute standby: %v", err)
	}
}

// TestFailoverLeavesLivePrimaryAlone pins the promotion guard: a
// transport blip must not fence a still-alive primary. failover probes
// the active member first and refuses to promote while it answers as a
// live primary.
func TestFailoverLeavesLivePrimaryAlone(t *testing.T) {
	c, _, addr1s := pairFixture(t)
	info, ok := c.m.Lookup("s1")
	if !ok {
		t.Fatal("no shard s1")
	}
	if c.failover(info) {
		t.Fatal("failover promoted the standby of a live primary")
	}
	cl, err := wire.Dial(addr1s)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Replication(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "standby" {
		t.Fatalf("standby role = %q after refused failover, want standby", rep.Role)
	}
	if got := c.ActiveAddr("s1"); got != info.Addr {
		t.Fatalf("active s1 endpoint = %q, want the primary %q", got, info.Addr)
	}
}

// TestCanceledContextDoesNotFailOver pins the other half of the guard:
// a canceled caller says nothing about the member's health, so the
// retry loop must stop without promoting the pair's standby.
func TestCanceledContextDoesNotFailOver(t *testing.T) {
	c, _, addr1s := pairFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1,
		Route: hops("sw2", "sw3")}
	if _, err := c.Setup(ctx, req); err == nil {
		t.Fatal("setup with a canceled context succeeded")
	}
	cl, err := wire.Dial(addr1s)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rep, err := cl.Replication(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Role != "standby" {
		t.Fatalf("standby role = %q after a canceled call, want standby", rep.Role)
	}
	info, _ := c.m.Lookup("s1")
	if got := c.ActiveAddr("s1"); got != info.Addr {
		t.Fatalf("active s1 endpoint = %q, want the primary %q", got, info.Addr)
	}
}

// TestStatusPeerProbeBounded pins the status fan-out against a
// blackholed peer: a standby address that accepts connections but never
// answers must come back as "unreachable" within the op timeout, not
// stall the whole shard-status response.
func TestStatusPeerProbeBounded(t *testing.T) {
	addr0, _ := startShard(t, "s0", "sw0", "sw1")
	addr1, _ := startShard(t, "s1", "sw2", "sw3")
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mute.Close() })
	go func() {
		var held []net.Conn
		defer func() {
			for _, c := range held {
				_ = c.Close()
			}
		}()
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			held = append(held, conn) // accept and never answer
		}
	}()
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s|%s=sw2,sw3", addr0, addr1, mute.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(m, nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.OpTimeout = 300 * time.Millisecond
	start := time.Now()
	sts, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("status fan-out took %v against a mute peer", elapsed)
	}
	var s1 *wire.ShardStatusReport
	for i := range sts {
		if sts[i].ShardID == "s1" {
			s1 = &sts[i]
		}
	}
	if s1 == nil {
		t.Fatalf("no s1 in status reports %+v", sts)
	}
	if s1.PeerRole != "unreachable" {
		t.Fatalf("mute peer role = %q, want unreachable", s1.PeerRole)
	}
}
