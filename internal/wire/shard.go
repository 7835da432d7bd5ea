package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
)

// Shard-side half of the cross-shard two-phase admission protocol. A
// coordinator (internal/shard) splits a multi-hop route by switch
// ownership and drives each owning shard through:
//
//	shard-prepare  phase 1: reserve the shard-local hops through the
//	               full CAC check and journal a prepare record with a
//	               TTL; the hold consumes capacity but is not admitted.
//	shard-commit   phase 2: promote the hold into an admitted
//	               connection, journaling a self-contained commit
//	               record (it embeds the request, so compaction may
//	               fold the prepare away).
//	shard-abort    release the hold — or unwind a commit the
//	               coordinator decided against — idempotently.
//	shard-reap     expire prepared holds whose TTL lapsed with no
//	               decision: the orphan reaper that keeps a dead
//	               coordinator from permanently stranding bandwidth.
//	shard-status   report the shard ID, epoch, role and live holds.
//
// Crash safety is presumed abort: journal replay never turns a prepare
// into an admission (see journal.Fold), so a shard that dies between
// prepare and commit recovers with the hold expired, and the
// coordinator's intent log decides whether to re-drive the commit
// (through a fresh CAC check) or abort everywhere.

// Shard protocol operations.
const (
	OpShardPrepare = "shard-prepare"
	OpShardCommit  = "shard-commit"
	OpShardAbort   = "shard-abort"
	OpShardReap    = "shard-reap"
	OpShardStatus  = "shard-status"
)

// Shard protocol error codes.
const (
	// CodePrepareExpired marks a commit that found no prepared hold and
	// could not re-admit the connection: the hold was reaped (or never
	// landed) and its capacity has been given away.
	CodePrepareExpired = "shard-prepare-expired"
	// CodeStalePrepare marks a commit or prepare fenced by an epoch
	// change: the hold was created under an older term than the shard
	// (or the coordinator) is now at, so a restarted/promoted shard
	// refuses to honor it.
	CodeStalePrepare = "stale-prepare-fenced"
	// CodeInDoubt marks a cross-shard setup whose commit decision is
	// durable but could not be driven to every shard before retries were
	// exhausted; a recovering coordinator resolves it from the intent
	// log.
	CodeInDoubt = "in-doubt"
	// CodeStaleCoordinator marks a shard 2PC operation stamped with a
	// coordinator term lower than one this shard has already served: a
	// standby coordinator was promoted, and the superseded coordinator
	// must fence itself instead of driving transactions divergently.
	CodeStaleCoordinator = "stale-coordinator-fenced"
)

// DefaultPrepareTTL bounds a prepared hold's lifetime when the
// coordinator does not specify one.
const DefaultPrepareTTL = 5 * time.Second

// preparedHold is one live phase-1 reservation.
type preparedHold struct {
	txn      string
	req      core.ConnRequest
	epoch    uint64
	deadline time.Time
	adm      *Admission
}

// shardState groups the server's 2PC fields; embedded in Server.
type shardState struct {
	shardID string
	// prepMu guards prepared. It is a leaf lock: never held across a
	// network mutation or a journal append.
	prepMu   sync.Mutex
	prepared map[string]*preparedHold
	// coordEpoch is the highest coordinator term seen on any 2PC
	// operation; lower stamped terms are refused (CodeStaleCoordinator).
	// In-memory only: after a shard restart the ratchet re-arms on the
	// live coordinator's next operation, and the one coordinator that
	// could slip a stale term into the gap is also fenced by every other
	// shard that kept its ratchet.
	coordEpoch uint64
}

// coordGate ratchets the coordinator term carried by a shard 2PC request
// and refuses a stale one. Zero (unversioned, e.g. direct cacctl use)
// always passes and never ratchets.
func (s *Server) coordGate(req Request) *Response {
	if req.CoordEpoch == 0 {
		return nil
	}
	s.shard.prepMu.Lock()
	defer s.shard.prepMu.Unlock()
	if req.CoordEpoch < s.shard.coordEpoch {
		return &Response{
			Error: fmt.Sprintf("%s refused: coordinator term %d superseded by %d",
				req.Op, req.CoordEpoch, s.shard.coordEpoch),
			Code: CodeStaleCoordinator,
		}
	}
	s.shard.coordEpoch = req.CoordEpoch
	return nil
}

// coordEpochSeen returns the highest coordinator term this shard served.
func (s *Server) coordEpochSeen() uint64 {
	s.shard.prepMu.Lock()
	defer s.shard.prepMu.Unlock()
	return s.shard.coordEpoch
}

// SetShardID names this instance in a shard map. Must be called before
// Serve; it is reported by shard-status and health.
func (s *Server) SetShardID(id string) { s.shard.shardID = id }

// ShardID returns the configured shard name (empty when unsharded).
func (s *Server) ShardID() string { return s.shard.shardID }

// preparedCount returns the number of live holds.
func (s *Server) preparedCount() int {
	s.shard.prepMu.Lock()
	defer s.shard.prepMu.Unlock()
	return len(s.shard.prepared)
}

// lookupHold returns the hold for txn, if any.
func (s *Server) lookupHold(txn string) (*preparedHold, bool) {
	s.shard.prepMu.Lock()
	defer s.shard.prepMu.Unlock()
	h, ok := s.shard.prepared[txn]
	return h, ok
}

// registerHold indexes a new hold by transaction.
func (s *Server) registerHold(h *preparedHold) {
	s.shard.prepMu.Lock()
	if s.shard.prepared == nil {
		s.shard.prepared = make(map[string]*preparedHold)
	}
	s.shard.prepared[h.txn] = h
	s.shard.prepMu.Unlock()
}

// dropHold removes a hold; it reports whether it was present.
func (s *Server) dropHold(txn string) bool {
	s.shard.prepMu.Lock()
	defer s.shard.prepMu.Unlock()
	if _, ok := s.shard.prepared[txn]; !ok {
		return false
	}
	delete(s.shard.prepared, txn)
	return true
}

// PrepareReport answers a shard-prepare: the transaction, the epoch the
// hold was created under (the coordinator echoes it on commit so a
// promoted shard can fence stale prepares), and the shard-local
// admission bounds.
type PrepareReport struct {
	Txn       string     `json:"txn"`
	Epoch     uint64     `json:"epoch"`
	Admission *Admission `json:"admission"`
}

// PreparedHoldReport describes one live hold for shard-status.
type PreparedHoldReport struct {
	Txn string      `json:"txn"`
	ID  core.ConnID `json:"id"`
	// ExpiresInMillis is the remaining TTL; negative means the hold is
	// overdue and the next reaper pass will expire it.
	ExpiresInMillis int64 `json:"expiresInMs"`
}

// ShardStatusReport answers shard-status and shard-reap. A coordinator
// answering for a replicated pair fills the pair fields: Addr is the
// member it currently drives, Peer* describe the other member (probed
// best-effort), and StandbyLag is the active primary's replication lag
// in records.
type ShardStatusReport struct {
	ShardID  string               `json:"shardId,omitempty"`
	Role     string               `json:"role"`
	Epoch    uint64               `json:"epoch"`
	Prepared []PreparedHoldReport `json:"prepared,omitempty"`
	// Reaped lists the transactions expired by a shard-reap request.
	Reaped []string `json:"reaped,omitempty"`
	// CoordEpoch is the highest coordinator term this node has served
	// (on a shard), or the coordinator's own term (on a coordinator).
	CoordEpoch uint64 `json:"coordEpoch,omitempty"`
	// InDoubt counts unresolved transactions on a coordinator report.
	InDoubt int `json:"inDoubt,omitempty"`
	// Pair fields, filled by a coordinator's fleet status.
	Addr       string `json:"addr,omitempty"`
	PeerAddr   string `json:"peerAddr,omitempty"`
	PeerRole   string `json:"peerRole,omitempty"`
	PeerEpoch  uint64 `json:"peerEpoch,omitempty"`
	StandbyLag uint64 `json:"standbyLag,omitempty"`
}

// toWireAdmission converts a core admission for transport.
func toWireAdmission(adm *core.Admission) *Admission {
	return &Admission{
		ID:                 adm.ID,
		PerHopGuaranteed:   adm.PerHopGuaranteed,
		PerHopComputed:     adm.PerHopComputed,
		EndToEndGuaranteed: adm.EndToEndGuaranteed,
		EndToEndComputed:   adm.EndToEndComputed,
	}
}

// traceShard emits one shard 2PC event.
func (s *Server) traceShard(kind obs.Kind, conn core.ConnID, outcome, code string, start time.Time) {
	if tr := s.tracer; tr != nil {
		tr.Trace(obs.Event{
			Kind: kind, Conn: string(conn), Outcome: outcome, Code: code,
			Duration: time.Since(start),
		})
	}
}

// handleShardPrepare runs phase 1: reserve the shard-local hops, journal
// the prepare, register the TTL-bounded hold. Re-sending a prepare for a
// registered transaction returns the original report (the coordinator
// retries on lost responses).
func (s *Server) handleShardPrepare(ctx context.Context, req Request) Response {
	start := time.Now()
	if req.Request == nil || req.Txn == "" {
		return Response{Error: "shard-prepare requires a request body and txn", Code: CodeProtocol}
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	lock := s.idLock(req.Request.ID)
	lock.Lock()
	defer lock.Unlock()
	if h, ok := s.lookupHold(req.Txn); ok {
		if !requestsEquivalent(h.req, *req.Request) {
			// Same transaction, different sub-request — whether a changed
			// leg or a different connection ID altogether: a coordinator
			// bug (a shard must see one merged leg per transaction, never
			// two). Answering with the original hold's report would
			// silently leave the divergent leg unreserved, and falling
			// through to a fresh prepare would overwrite the registered
			// hold, permanently stranding its hop reservations.
			s.traceShard(obs.KindShardPrepare, req.Request.ID, obs.OutcomeError, CodeProtocol, start)
			return Response{
				Error: fmt.Sprintf("prepare %q: transaction already holds a different request for %q", req.Txn, h.req.ID),
				Code:  CodeProtocol,
			}
		}
		return Response{OK: true, Prepared: &PrepareReport{Txn: h.txn, Epoch: h.epoch, Admission: h.adm}}
	}
	adm, err := s.network.PrepareSetup(ctx, *req.Request)
	if err != nil {
		code := core.ErrorCode(err)
		s.traceShard(obs.KindShardPrepare, req.Request.ID, obs.OutcomeRejected, code, start)
		return Response{
			Error:    err.Error(),
			Rejected: errors.Is(err, core.ErrRejected),
			Code:     code,
		}
	}
	ttl := time.Duration(req.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultPrepareTTL
	}
	if s.testHookPreAppend != nil {
		s.testHookPreAppend(OpShardPrepare, req.Request.ID)
	}
	warning, perr := s.persistShardLeg(&journal.Record{
		Op: journal.OpShardPrepare, Txn: req.Txn, Request: req.Request, TTLMillis: int64(ttl / time.Millisecond),
	})
	if perr != nil {
		// The prepare is not durable: a crash would reap a hold the
		// coordinator believes exists, so refuse and release now.
		_ = s.network.AbortPrepared(*req.Request)
		code, verb := refusal(perr)
		s.traceShard(obs.KindShardPrepare, req.Request.ID, obs.OutcomeError, code, start)
		return Response{Error: fmt.Sprintf("prepare %q not %s: %v", req.Txn, verb, perr), Code: code}
	}
	hold := &preparedHold{
		txn: req.Txn, req: *req.Request, epoch: s.Epoch(),
		deadline: time.Now().Add(ttl), adm: toWireAdmission(adm),
	}
	s.registerHold(hold)
	s.traceShard(obs.KindShardPrepare, req.Request.ID, obs.OutcomeAccepted, "", start)
	return Response{OK: true, Warning: warning, Prepared: &PrepareReport{Txn: hold.txn, Epoch: hold.epoch, Admission: hold.adm}}
}

// handleShardCommit runs phase 2. With the hold present (and not fenced
// by an epoch change) it promotes it; with the hold gone it either
// recognizes an already-applied commit (idempotent retry) or attempts a
// fresh full-CAC admission — the recovery path for a shard that crashed
// after its prepare was reaped — refusing with CodePrepareExpired when
// the capacity is no longer there.
func (s *Server) handleShardCommit(ctx context.Context, req Request) Response {
	start := time.Now()
	if req.Txn == "" || req.Request == nil {
		return Response{Error: "shard-commit requires a txn and the request body", Code: CodeProtocol}
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	lock := s.idLock(req.Request.ID)
	lock.Lock()
	defer lock.Unlock()

	if hold, ok := s.lookupHold(req.Txn); ok && hold.req.ID == req.Request.ID {
		if hold.epoch < s.Epoch() || (req.PrepareEpoch != 0 && req.PrepareEpoch != hold.epoch) {
			// The shard's term moved since the prepare (promotion or
			// restart): the hold belongs to a fenced incarnation. Refuse
			// with the typed code and release the hold — it can never
			// legitimately commit, and the coordinator will abort.
			_ = s.network.AbortPrepared(hold.req)
			s.dropHold(req.Txn)
			s.persistShardAbortWarn(req.Txn, hold.req.ID)
			s.traceShard(obs.KindShardCommit, hold.req.ID, obs.OutcomeError, CodeStalePrepare, start)
			return Response{
				Error: fmt.Sprintf("commit %q refused: prepare made at epoch %d, shard now at %d",
					req.Txn, hold.epoch, s.Epoch()),
				Code: CodeStalePrepare,
			}
		}
		if err := s.network.CommitPrepared(hold.req); err != nil {
			// A route link failed while the hold was pending; the commit
			// released everything.
			s.dropHold(req.Txn)
			s.persistShardAbortWarn(req.Txn, hold.req.ID)
			s.traceShard(obs.KindShardCommit, hold.req.ID, obs.OutcomeError, core.ErrorCode(err), start)
			return Response{Error: err.Error(), Code: core.ErrorCode(err)}
		}
		if s.testHookPreAppend != nil {
			s.testHookPreAppend(OpShardCommit, hold.req.ID)
		}
		warning, perr := s.persistShardLeg(&journal.Record{Op: journal.OpShardCommit, Txn: req.Txn, Request: &hold.req})
		if perr != nil {
			// Not durable: un-admit and keep the hold? No — the safe
			// rollback is a full release; the coordinator's retry (or the
			// recovery path below) re-admits through CAC.
			_ = s.network.Teardown(hold.req.ID)
			s.dropHold(req.Txn)
			code, verb := refusal(perr)
			s.traceShard(obs.KindShardCommit, hold.req.ID, obs.OutcomeError, code, start)
			return Response{Error: fmt.Sprintf("commit %q not %s: %v", req.Txn, verb, perr), Code: code}
		}
		s.dropHold(req.Txn)
		s.traceShard(obs.KindShardCommit, hold.req.ID, obs.OutcomeOK, "", start)
		return Response{OK: true, Warning: warning, Admission: hold.adm}
	}

	// No hold. An identical admitted connection means this commit already
	// applied (retry after a lost response, or replayed recovery).
	if have, ok := s.network.AdmittedRequest(req.Request.ID); ok && requestsEquivalent(have, *req.Request) {
		s.traceShard(obs.KindShardCommit, req.Request.ID, obs.OutcomeOK, "", start)
		return Response{OK: true, Warning: "commit already applied"}
	}

	// Recovery: the hold was reaped (shard crash or TTL). The decision to
	// commit is durable at the coordinator, so try to re-earn the
	// reservation through the full CAC check.
	adm, err := s.network.Setup(ctx, *req.Request)
	if err != nil {
		s.traceShard(obs.KindShardCommit, req.Request.ID, obs.OutcomeError, CodePrepareExpired, start)
		return Response{
			Error: fmt.Sprintf("commit %q: prepared hold expired and re-admission failed: %v", req.Txn, err),
			Code:  CodePrepareExpired,
		}
	}
	if s.testHookPreAppend != nil {
		s.testHookPreAppend(OpShardCommit, req.Request.ID)
	}
	warning, perr := s.persistShardLeg(&journal.Record{Op: journal.OpShardCommit, Txn: req.Txn, Request: req.Request})
	if perr != nil {
		_ = s.network.Teardown(req.Request.ID)
		code, verb := refusal(perr)
		s.traceShard(obs.KindShardCommit, req.Request.ID, obs.OutcomeError, code, start)
		return Response{Error: fmt.Sprintf("commit %q not %s: %v", req.Txn, verb, perr), Code: code}
	}
	if warning == "" {
		warning = "prepared hold expired; re-admitted through full CAC"
	}
	s.traceShard(obs.KindShardCommit, req.Request.ID, obs.OutcomeOK, "", start)
	return Response{OK: true, Warning: warning, Admission: toWireAdmission(adm)}
}

// requestsEquivalent reports whether two connection requests describe the
// same admission (the idempotency guard for duplicate commits and for
// aborts that must not tear down an unrelated reuse of the ID).
func requestsEquivalent(a, b core.ConnRequest) bool {
	if a.ID != b.ID || a.Priority != b.Priority || len(a.Route) != len(b.Route) {
		return false
	}
	for i := range a.Route {
		if a.Route[i] != b.Route[i] {
			return false
		}
	}
	return true
}

// handleShardAbort releases a prepared hold, or unwinds a commit the
// coordinator decided against, idempotently: aborting a transaction this
// shard has no trace of is OK.
func (s *Server) handleShardAbort(req Request) Response {
	start := time.Now()
	if req.Txn == "" {
		return Response{Error: "shard-abort requires a txn", Code: CodeProtocol}
	}
	id := req.ID
	if h, ok := s.lookupHold(req.Txn); ok {
		id = h.req.ID
	} else if id == "" && req.Request != nil {
		id = req.Request.ID
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	lock := s.idLock(id)
	lock.Lock()
	defer lock.Unlock()

	if hold, ok := s.lookupHold(req.Txn); ok {
		aerr := s.network.AbortPrepared(hold.req)
		s.dropHold(req.Txn)
		if aerr != nil {
			return Response{Error: aerr.Error(), Code: core.ErrorCode(aerr)}
		}
		warning := s.persistShardAbortWarn(req.Txn, hold.req.ID)
		s.traceShard(obs.KindShardAbort, hold.req.ID, obs.OutcomeOK, "", start)
		return Response{OK: true, Warning: warning}
	}

	// Unwind: the commit applied here but the coordinator aborted the
	// transaction (another shard refused). Only tear down a connection
	// that matches the transaction's request — never an unrelated reuse
	// of the ID.
	if req.Request != nil {
		if have, ok := s.network.AdmittedRequest(req.Request.ID); ok && requestsEquivalent(have, *req.Request) {
			if err := s.network.Teardown(req.Request.ID); err != nil && !errors.Is(err, core.ErrUnknownConn) {
				return Response{Error: err.Error(), Code: core.ErrorCode(err)}
			}
			warning := s.persistShardAbortWarn(req.Txn, req.Request.ID)
			s.traceShard(obs.KindShardAbort, req.Request.ID, obs.OutcomeOK, "", start)
			return Response{OK: true, Warning: warning}
		}
	}
	s.traceShard(obs.KindShardAbort, id, obs.OutcomeOK, "", start)
	return Response{OK: true}
}

// handleShardReap forces one orphan-reaper pass and reports the expired
// transactions.
func (s *Server) handleShardReap() Response {
	reaped := s.ReapOrphans(time.Now())
	return Response{OK: true, Shard: &ShardStatusReport{
		ShardID:    s.shard.shardID,
		Role:       s.role(),
		Epoch:      s.Epoch(),
		CoordEpoch: s.coordEpochSeen(),
		Reaped:     reaped,
	}}
}

// handleShardStatus reports the shard identity and live holds.
func (s *Server) handleShardStatus() Response {
	now := time.Now()
	s.shard.prepMu.Lock()
	holds := make([]PreparedHoldReport, 0, len(s.shard.prepared))
	for _, h := range s.shard.prepared {
		holds = append(holds, PreparedHoldReport{
			Txn: h.txn, ID: h.req.ID,
			ExpiresInMillis: int64(h.deadline.Sub(now) / time.Millisecond),
		})
	}
	s.shard.prepMu.Unlock()
	return Response{OK: true, Shard: &ShardStatusReport{
		ShardID:    s.shard.shardID,
		Role:       s.role(),
		Epoch:      s.Epoch(),
		CoordEpoch: s.coordEpochSeen(),
		Prepared:   holds,
	}}
}

// role returns the replication role string without the full report.
func (s *Server) role() string {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	switch {
	case s.fenced:
		return "fenced"
	case s.standby:
		return "standby"
	}
	return "primary"
}

// ReapOrphans expires every prepared hold whose deadline is at or before
// now, releasing its hop reservations and journaling the abort. It
// returns the expired transactions. A standby or fenced node skips the
// pass (it holds nothing it may mutate).
func (s *Server) ReapOrphans(now time.Time) []string {
	if s.writeGate(OpShardReap) != nil {
		return nil
	}
	s.shard.prepMu.Lock()
	var due []*preparedHold
	for _, h := range s.shard.prepared {
		if !h.deadline.After(now) {
			due = append(due, h)
		}
	}
	s.shard.prepMu.Unlock()
	if len(due) == 0 {
		return nil
	}
	var reaped []string
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	for _, h := range due {
		lock := s.idLock(h.req.ID)
		lock.Lock()
		// Re-check under the ID lock: a commit or abort may have resolved
		// the hold while the pass was collecting.
		if cur, ok := s.lookupHold(h.txn); !ok || cur != h {
			lock.Unlock()
			continue
		}
		_ = s.network.AbortPrepared(h.req)
		s.dropHold(h.txn)
		s.persistShardAbortWarn(h.txn, h.req.ID)
		lock.Unlock()
		reaped = append(reaped, h.txn)
	}
	if len(reaped) > 0 {
		if tr := s.tracer; tr != nil {
			tr.Trace(obs.Event{Kind: obs.KindShardReap, Evicted: len(reaped)})
		}
	}
	return reaped
}

// StartOrphanReaper runs ReapOrphans every interval until the returned
// stop function is called. cacd wires it when -shard-id is set.
func (s *Server) StartOrphanReaper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-s.stop:
				return
			case now := <-t.C:
				s.ReapOrphans(now)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// persistShardLeg makes one 2PC leg's record — the phase-1 prepare with
// its TTL, or the self-contained phase-2 commit — durable before its ack,
// with the shard-abort that undoes it as the invert. Legs pipelined on
// the coordinator's one connection share group commits with each other
// and with local traffic.
func (s *Server) persistShardLeg(rec *journal.Record) (string, error) {
	return s.persistOne(rec, &journal.Record{Op: journal.OpShardAbort, Txn: rec.Txn, ID: rec.Request.ID})
}

// persistShardAbortWarn journals an abort, warning-only: the release
// already happened in memory, and replay treats an unresolved prepare as
// reaped anyway, so a missing abort record cannot resurrect the hold.
func (s *Server) persistShardAbortWarn(txn string, id core.ConnID) string {
	return s.persistWarn(&journal.Record{Op: journal.OpShardAbort, Txn: txn, ID: id})
}
