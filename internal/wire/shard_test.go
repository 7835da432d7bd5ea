package wire

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

func shardReq(id string, route core.Route) core.ConnRequest {
	return core.ConnRequest{ID: core.ConnID(id), Spec: traffic.CBR(0.1), Priority: 1, Route: route}
}

// remoteCode extracts the typed code from a client error.
func remoteCode(t *testing.T, err error) string {
	t.Helper()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RemoteError", err)
	}
	return re.Code
}

func TestShardPrepareCommitRoundTrip(t *testing.T) {
	client, srv, route := startServerWith(t, func(s *Server) { s.SetShardID("s0") })
	ctx := context.Background()

	rep, err := client.ShardPrepare(ctx, "t1", shardReq("c1", route), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Txn != "t1" || rep.Admission == nil || rep.Admission.ID != "c1" {
		t.Fatalf("prepare report = %+v", rep)
	}
	// The hold consumes capacity but is not an admitted connection.
	if ids, err := client.List(context.Background()); err != nil || len(ids) != 0 {
		t.Fatalf("List during hold = %v, %v; want empty", ids, err)
	}
	st, err := client.ShardStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardID != "s0" || st.Role != "primary" || len(st.Prepared) != 1 || st.Prepared[0].Txn != "t1" {
		t.Fatalf("status = %+v", st)
	}
	// Health reports the shard identity alongside role and epoch.
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != "primary" || h.ShardID != "s0" || h.Prepared != 1 {
		t.Fatalf("health = %+v", h)
	}

	adm, warning, err := client.ShardCommit(ctx, "t1", shardReq("c1", route), rep.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if warning != "" {
		t.Fatalf("unexpected commit warning %q", warning)
	}
	if adm == nil || adm.ID != "c1" || adm.EndToEndGuaranteed <= 0 {
		t.Fatalf("commit admission = %+v", adm)
	}
	if ids, err := client.List(context.Background()); err != nil || len(ids) != 1 || ids[0] != "c1" {
		t.Fatalf("List after commit = %v, %v", ids, err)
	}
	if srv.preparedCount() != 0 {
		t.Fatalf("hold survived its commit")
	}
	// The committed connection tears down through the ordinary path.
	if err := client.Teardown(context.Background(), "c1"); err != nil {
		t.Fatal(err)
	}
}

func TestShardPrepareIdempotentResend(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	ctx := context.Background()
	first, err := client.ShardPrepare(ctx, "t1", shardReq("c1", route), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// A coordinator retrying a lost response re-sends the same prepare; it
	// must get the original report back, not a duplicate-ID rejection.
	again, err := client.ShardPrepare(ctx, "t1", shardReq("c1", route), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != first.Epoch || again.Admission.ID != first.Admission.ID {
		t.Fatalf("resend report %+v != original %+v", again, first)
	}
	if srv.preparedCount() != 1 {
		t.Fatalf("prepared holds = %d, want 1", srv.preparedCount())
	}
	// A different transaction reusing the same connection ID is refused
	// while the hold is live.
	if _, err := client.ShardPrepare(ctx, "t2", shardReq("c1", route), time.Minute); err == nil {
		t.Fatal("conflicting prepare for a held ID succeeded")
	}
	// The same transaction with a *different* sub-request is a coordinator
	// bug (a shard sees one merged leg per transaction): it must be
	// refused, not silently answered with the original hold's report.
	divergent := shardReq("c1", route[:1])
	_, err = client.ShardPrepare(ctx, "t1", divergent, time.Minute)
	if err == nil {
		t.Fatal("divergent prepare under a held txn succeeded")
	}
	if code := remoteCode(t, err); code != CodeProtocol {
		t.Fatalf("divergent prepare code = %q, want %q", code, CodeProtocol)
	}
	if srv.preparedCount() != 1 {
		t.Fatalf("prepared holds after divergent prepare = %d, want 1", srv.preparedCount())
	}
}

// TestShardPrepareDivergentConnIDRefused pins the other divergence: a
// re-prepare under a held transaction with a *different* connection ID.
// Falling through to a fresh prepare would overwrite the registered hold
// and permanently strand its hop reservations — neither abort nor the
// reaper could ever find them again.
func TestShardPrepareDivergentConnIDRefused(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	ctx := context.Background()
	if _, err := client.ShardPrepare(ctx, "t1", shardReq("c1", route), time.Minute); err != nil {
		t.Fatal(err)
	}
	_, err := client.ShardPrepare(ctx, "t1", shardReq("c2", route), time.Minute)
	if err == nil {
		t.Fatal("re-prepare with a different connection ID succeeded")
	}
	if code := remoteCode(t, err); code != CodeProtocol {
		t.Fatalf("divergent-ID prepare code = %q, want %q", code, CodeProtocol)
	}
	if srv.preparedCount() != 1 {
		t.Fatalf("prepared holds = %d, want 1", srv.preparedCount())
	}
	// The original hold is still the registered one: aborting the
	// transaction releases it, and the ID admits fresh afterwards.
	if err := client.ShardAbort(ctx, "t1", nil); err != nil {
		t.Fatal(err)
	}
	if srv.preparedCount() != 0 {
		t.Fatalf("hold survived its abort")
	}
	if _, err := client.Setup(context.Background(), shardReq("c1", route)); err != nil {
		t.Fatalf("setup after release: %v", err)
	}
}

// TestShardContextVariantsHonorCancellation pins that the list, status
// and reap clients propagate their context, so a hung shard cannot block
// a coordinator that wrapped them in a timeout.
func TestShardContextVariantsHonorCancellation(t *testing.T) {
	client, _, _ := startServerWith(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.List(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("List error = %v, want context.Canceled", err)
	}
	if _, err := client.ShardStatus(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ShardStatus error = %v, want context.Canceled", err)
	}
	if _, err := client.ShardReap(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ShardReap error = %v, want context.Canceled", err)
	}
}

func TestShardAbortIdempotent(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	ctx := context.Background()
	req := shardReq("c1", route)
	if _, err := client.ShardPrepare(ctx, "t1", req, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := client.ShardAbort(ctx, "t1", &req); err != nil {
		t.Fatal(err)
	}
	if srv.preparedCount() != 0 {
		t.Fatal("hold survived its abort")
	}
	// Aborting again — or aborting a transaction this shard never saw —
	// is OK: presumed abort makes the release idempotent.
	if err := client.ShardAbort(ctx, "t1", &req); err != nil {
		t.Fatalf("second abort: %v", err)
	}
	if err := client.ShardAbort(ctx, "t-unknown", nil); err != nil {
		t.Fatalf("abort of unknown txn: %v", err)
	}
	// The capacity came back: a fresh ordinary setup of the same ID admits.
	if _, err := client.Setup(context.Background(), req); err != nil {
		t.Fatalf("setup after abort: %v", err)
	}
}

func TestShardAbortUnwindsCommit(t *testing.T) {
	client, _, route := startServerWith(t, nil)
	ctx := context.Background()
	req := shardReq("c1", route)
	rep, err := client.ShardPrepare(ctx, "t1", req, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.ShardCommit(ctx, "t1", req, rep.Epoch); err != nil {
		t.Fatal(err)
	}
	// Another shard refused, so the coordinator aborts everywhere — the
	// unwind must tear the committed connection back down.
	if err := client.ShardAbort(ctx, "t1", &req); err != nil {
		t.Fatal(err)
	}
	if ids, err := client.List(context.Background()); err != nil || len(ids) != 0 {
		t.Fatalf("List after unwind = %v, %v; want empty", ids, err)
	}
	// But an unwind must never touch an unrelated reuse of the ID: admit a
	// different connection under the same ID and re-send the abort.
	other := shardReq("c1", route)
	other.Priority = 1
	other.Route = core.Route{route[0]}
	if _, err := client.Setup(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if err := client.ShardAbort(ctx, "t1", &req); err != nil {
		t.Fatal(err)
	}
	if ids, err := client.List(context.Background()); err != nil || len(ids) != 1 {
		t.Fatalf("unrelated connection torn down by abort replay: %v, %v", ids, err)
	}
}

func TestShardCommitDuplicateIdempotent(t *testing.T) {
	client, _, route := startServerWith(t, nil)
	ctx := context.Background()
	req := shardReq("c1", route)
	rep, err := client.ShardPrepare(ctx, "t1", req, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.ShardCommit(ctx, "t1", req, rep.Epoch); err != nil {
		t.Fatal(err)
	}
	_, warning, err := client.ShardCommit(ctx, "t1", req, rep.Epoch)
	if err != nil {
		t.Fatalf("duplicate commit: %v", err)
	}
	if warning != "commit already applied" {
		t.Fatalf("duplicate commit warning = %q", warning)
	}
	if ids, err := client.List(context.Background()); err != nil || len(ids) != 1 {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

func TestShardReapExpiresOverdueHolds(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	ctx := context.Background()
	req := shardReq("c1", route)
	if _, err := client.ShardPrepare(ctx, "t1", req, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	reaped, err := client.ShardReap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reaped) != 1 || reaped[0] != "t1" {
		t.Fatalf("reaped = %v, want [t1]", reaped)
	}
	if srv.preparedCount() != 0 {
		t.Fatal("reaped hold still registered")
	}
	// The released capacity is usable again.
	if _, err := client.Setup(context.Background(), req); err != nil {
		t.Fatalf("setup after reap: %v", err)
	}
	if err := client.Teardown(context.Background(), req.ID); err != nil {
		t.Fatal(err)
	}

	// A commit arriving after the reap re-earns the reservation through
	// the full CAC check when capacity allows...
	if _, err := client.ShardPrepare(ctx, "t2", req, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := client.ShardReap(context.Background()); err != nil {
		t.Fatal(err)
	}
	adm, warning, err := client.ShardCommit(ctx, "t2", req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adm == nil || adm.ID != "c1" {
		t.Fatalf("recovery admission = %+v", adm)
	}
	if warning != "prepared hold expired; re-admitted through full CAC" {
		t.Fatalf("recovery warning = %q", warning)
	}
	if err := client.Teardown(context.Background(), req.ID); err != nil {
		t.Fatal(err)
	}

	// ...and refuses with the typed code when it no longer does.
	if _, err := client.ShardPrepare(ctx, "t3", req, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := client.ShardReap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.network.FailLink("sw0", "sw1"); err != nil {
		t.Fatal(err)
	}
	_, _, err = client.ShardCommit(ctx, "t3", req, 0)
	if err == nil {
		t.Fatal("commit with route down succeeded")
	}
	if code := remoteCode(t, err); code != CodePrepareExpired {
		t.Fatalf("code = %q, want %q", code, CodePrepareExpired)
	}
	if ids, _ := client.List(context.Background()); len(ids) != 0 {
		t.Fatalf("refused recovery commit left residue: %v", ids)
	}
}

func TestShardCommitEpochFence(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	ctx := context.Background()
	req := shardReq("c1", route)
	rep, err := client.ShardPrepare(ctx, "t1", req, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// The shard's term moves (promotion after a failover) between the
	// prepare and the commit.
	if _, err := srv.Promote(); err != nil {
		t.Fatal(err)
	}
	_, _, err = client.ShardCommit(ctx, "t1", req, rep.Epoch)
	if err == nil {
		t.Fatal("commit of a stale-epoch prepare succeeded")
	}
	if code := remoteCode(t, err); code != CodeStalePrepare {
		t.Fatalf("code = %q, want %q", code, CodeStalePrepare)
	}
	// The fenced hold is released outright: no residue, capacity free.
	if srv.preparedCount() != 0 {
		t.Fatal("fenced hold still registered")
	}
	if ids, _ := client.List(context.Background()); len(ids) != 0 {
		t.Fatalf("fenced commit admitted: %v", ids)
	}
	if _, err := client.Setup(context.Background(), req); err != nil {
		t.Fatalf("setup after fence: %v", err)
	}
}

func TestShardWriteGateOnStandby(t *testing.T) {
	client, srv, route := startServerWith(t, nil)
	srv.SetStandby(true)
	ctx := context.Background()
	req := shardReq("c1", route)
	if _, err := client.ShardPrepare(ctx, "t1", req, time.Minute); err == nil {
		t.Fatal("standby accepted a shard-prepare")
	} else if code := remoteCode(t, err); code != CodeStandby {
		t.Fatalf("code = %q, want %q", code, CodeStandby)
	}
	// shard-status stays readable on a standby.
	st, err := client.ShardStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != "standby" {
		t.Fatalf("status role = %q", st.Role)
	}
	// A standby's reaper pass is a no-op rather than a split-brain write.
	if got := srv.ReapOrphans(time.Now().Add(time.Hour)); got != nil {
		t.Fatalf("standby reaped %v", got)
	}
}

// TestShardPrepareCrashReplaysToReaped boots a journaled shard, prepares a
// hold, crashes before any decision, and checks recovery reports the
// transaction reaped — with the capacity released, never admitted.
func TestShardPrepareCrashReplaysToReaped(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	client, _, stop := bootDurable(t, statePath, DurabilityJournal, 1000)
	route := core.Route{{Switch: "sw0", In: 1, Out: 0}, {Switch: "sw1", In: 1, Out: 0}}
	req := shardReq("c1", route)
	ctx := context.Background()
	if _, err := client.ShardPrepare(ctx, "t1", req, time.Minute); err != nil {
		stop()
		t.Fatal(err)
	}
	stop() // crash: no decision ever journaled

	client2, rep, stop2 := bootDurable(t, statePath, DurabilityJournal, 1000)
	defer stop2()
	if fmt.Sprint(rep.ReapedPrepares) != "[t1]" {
		t.Fatalf("recovery reaped prepares = %v, want [t1]", rep.ReapedPrepares)
	}
	if ids, err := client2.List(context.Background()); err != nil || len(ids) != 0 {
		t.Fatalf("crashed prepare replayed to admitted connections: %v, %v", ids, err)
	}
	// The hold's capacity did not survive the crash.
	if _, err := client2.Setup(context.Background(), req); err != nil {
		t.Fatalf("setup after crash recovery: %v", err)
	}
}

// TestShardCommitCrashReplaysToAdmitted is the other side of the boundary:
// once the commit record is durable, recovery must admit the connection.
func TestShardCommitCrashReplaysToAdmitted(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.json")
	client, _, stop := bootDurable(t, statePath, DurabilityJournal, 1000)
	route := core.Route{{Switch: "sw0", In: 1, Out: 0}, {Switch: "sw1", In: 1, Out: 0}}
	req := shardReq("c1", route)
	ctx := context.Background()
	rep1, err := client.ShardPrepare(ctx, "t1", req, time.Minute)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	if _, _, err := client.ShardCommit(ctx, "t1", req, rep1.Epoch); err != nil {
		stop()
		t.Fatal(err)
	}
	stop() // crash immediately after the commit ack

	client2, rep, stop2 := bootDurable(t, statePath, DurabilityJournal, 1000)
	defer stop2()
	if len(rep.ReapedPrepares) != 0 {
		t.Fatalf("committed transaction reported reaped: %v", rep.ReapedPrepares)
	}
	ids, err := client2.List(context.Background())
	if err != nil || len(ids) != 1 || ids[0] != "c1" {
		t.Fatalf("List after commit recovery = %v, %v; want [c1]", ids, err)
	}
}
