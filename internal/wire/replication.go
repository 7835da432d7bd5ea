package wire

import (
	"errors"
	"fmt"

	"atmcac/internal/journal"
	"atmcac/internal/obs"
)

// Replication protocol operations.
const (
	// OpPromote asks this node to take over as primary at a new epoch.
	// Sent to a standby (cacctl promote) it completes a failover; a
	// fenced ex-primary refuses it.
	OpPromote = "promote"
	// OpReplication reports the node's replication role, epoch and
	// stream status.
	OpReplication = "replication"
)

// Replication error codes, part of the stable response vocabulary.
const (
	// CodeStandby marks a write refused because this node is a warm
	// standby: it serves reads but mutations must go to the primary (or
	// wait for promotion).
	CodeStandby = "standby-readonly"
	// CodeFenced marks a write refused because this node observed a
	// higher replication epoch — it is a partitioned ex-primary, and
	// accepting the write would be a split-brain mutation.
	CodeFenced = "split-brain-fenced"
	// CodeNotReplicated marks a setup or teardown refused (and rolled
	// back) because the configured replication mode could not confirm it
	// on the standby before the ack.
	CodeNotReplicated = "not-replicated"
)

var (
	// ErrNotReplicated reports a record the replication mode could not
	// confirm on the standby; the operation that appended it is rolled
	// back and refused.
	ErrNotReplicated = errors.New("wire: not replicated")
	// ErrStaleEpoch reports a replication message carrying an epoch below
	// the local term — the sender is a fenced ex-primary (or the local
	// node was promoted past it).
	ErrStaleEpoch = errors.New("wire: stale replication epoch")
)

// Shipper forwards freshly appended journal records to the standby. The
// wire layer calls it from the journal's group commit, once a record's
// group is durable and before the next group is written, one record at a
// time and before the record's operation acks — so record order on the
// stream equals journal order. internal/replica implements it; the wire
// package stays free of any transport knowledge beyond this seam.
type Shipper interface {
	// Ship forwards one record and blocks until the configured
	// replication mode is satisfied (async: queued; semi-sync: standby
	// lag within bound; sync: this record acknowledged). A non-nil error
	// means the mode could not be satisfied — for ack-gated operations
	// the caller compensates and refuses.
	Ship(seq, epoch uint64, payload []byte) error
	// ShipBestEffort forwards one record without waiting for any
	// acknowledgement and never fails: records that do not make it are
	// healed by standby catch-up. Used for warning-only operations and
	// compensation records.
	ShipBestEffort(seq, epoch uint64, payload []byte)
}

// CrashPoints lets the fault-injection harness kill the primary at the
// replication-critical instants that no filesystem boundary exposes:
// just before the local append, between append and ship, and between
// ship and ack. Production servers leave it nil.
type CrashPoints struct {
	PreAppend  func(op string)
	PostAppend func(op string, seq uint64)
	PostShip   func(op string, seq uint64)
}

// SetCrashPoints installs the crash hooks. Must be called before Serve.
func (s *Server) SetCrashPoints(cp *CrashPoints) { s.crashPoints = cp }

// SetShipper attaches the replication shipper; every journaled mutation
// is shipped before its ack. Must be called before Serve.
func (s *Server) SetShipper(sh Shipper) { s.shipper = sh }

// SetStandby marks the node a warm standby: mutations are refused with
// CodeStandby until Promote. Reads, health and replication status stay
// served, so a standby is observable and can answer queries.
func (s *Server) SetStandby(standby bool) {
	s.replMu.Lock()
	s.standby = standby
	s.replMu.Unlock()
}

// SetReplicationStatus installs a decorator that enriches replication
// reports with stream-level fields (mode, connection state, acked seq,
// lag) the wire layer cannot see. internal/replica installs it.
func (s *Server) SetReplicationStatus(fn func(*ReplicationReport)) {
	s.replStatus = fn
}

// Epoch returns the node's current replication term. It never blocks:
// the replication ack reader calls it while a write waits for that ack.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// JournalWatermark returns the highest journal sequence written so far,
// or zero when the node has no journal. A standby reports it in its
// replication handshake so the primary ships only the missing delta.
func (s *Server) JournalWatermark() uint64 {
	if s.dur == nil {
		return 0
	}
	return s.dur.log.LastSeq()
}

// Fence marks this node a fenced ex-primary: it observed newEpoch, a
// term higher than its own, so a newer primary exists and every further
// mutation here would be a split-brain write. Fencing is one-way; only a
// restart (with a fresh resync) clears it.
func (s *Server) Fence(newEpoch uint64) {
	s.replMu.Lock()
	first := !s.fenced
	s.fenced = true
	if newEpoch > s.fencedBy {
		s.fencedBy = newEpoch
	}
	s.replMu.Unlock()
	if first {
		if tr := s.tracer; tr != nil {
			tr.Trace(obs.Event{Kind: obs.KindFence, Epoch: newEpoch})
		}
	}
}

// Fenced reports whether the node refused itself out of the write path,
// and the epoch that fenced it.
func (s *Server) Fenced() (bool, uint64) {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.fenced, s.fencedBy
}

// Promote makes this node the primary at a new, higher epoch. The new
// term is persisted (snapshot trailer) before it is published or the
// standby gate opens, so a crash straight after promotion still recovers
// into the new term, the fenced ex-primary stays fenced, and a failed
// persist never takes back a term a reader has already seen. A node whose
// journal cannot sync what it holds — out of service after a failed
// fsync — refuses: a standby's view may hold records its disk dropped.
// Returns the new epoch.
func (s *Server) Promote() (uint64, error) {
	s.replMu.RLock()
	fenced, by := s.fenced, s.fencedBy
	s.replMu.RUnlock()
	if fenced {
		return 0, fmt.Errorf("%w: fenced at epoch %d, refusing promotion", ErrStaleEpoch, by)
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	epoch := s.epoch.Load() + 1
	if s.dur != nil {
		if err := s.dur.log.Sync(); err != nil {
			return 0, fmt.Errorf("wire: promote: %w", err)
		}
		err := s.dur.log.Between(func() error { return s.compactLocked(epoch) })
		if err != nil && !errors.Is(err, errJournalReset) {
			return 0, fmt.Errorf("wire: promote: persist epoch %d: %w", epoch, err)
		}
	}
	s.epoch.Store(epoch)
	s.replMu.Lock()
	s.standby = false
	s.replMu.Unlock()
	if tr := s.tracer; tr != nil {
		tr.Trace(obs.Event{Kind: obs.KindPromote, Outcome: obs.OutcomeOK, Epoch: epoch})
	}
	return epoch, nil
}

// ApplyShipped is the standby's ingestion path for one shipped record:
// write the payload byte-identically under the primary's sequence, then
// fold it (journal.Fold) into the durable view and into the warm network —
// idempotently, so at-least-once delivery after a reconnect is safe. The
// write is not fsynced: the standby applies what it has read, then calls
// SyncShipped once before it acknowledges any of it. If that sync fails,
// the view is ahead of the disk; the journal is then out of service and
// Promote refuses. A stale-epoch record
// is refused with ErrStaleEpoch (the sender must fence); an apply failure
// is returned wrapped in journal.ErrApply and means the standby diverged
// and needs a full resync.
func (s *Server) ApplyShipped(rec journal.Record, payload []byte) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.dur == nil {
		return fmt.Errorf("wire: apply shipped record: node has no journal")
	}
	if epoch := s.epoch.Load(); rec.Epoch < epoch {
		return fmt.Errorf("%w: record epoch %d below local term %d", ErrStaleEpoch, rec.Epoch, epoch)
	}
	if rec.Epoch > s.epoch.Load() {
		s.epoch.Store(rec.Epoch)
	}
	appended, err := s.dur.log.AppendAt(rec.Seq, payload, false,
		func(uint64, []byte) error {
			_ = journal.Fold(s.dur.view, &rec) // the network fold below reports a refusal
			return nil
		})
	if err != nil || !appended {
		// Not appended without an error: a duplicate from a reconnect
		// replay, already written and therefore already applied.
		return err
	}
	if err := journal.Fold(journal.NetworkTarget(s.network), &rec); err != nil {
		return err
	}
	s.compactIfDue()
	return nil
}

// SyncShipped makes every record ApplyShipped wrote durable, as the
// journal's mode asks: one fsync in journal-sync mode, nothing in
// journal mode.
func (s *Server) SyncShipped() error {
	if s.dur == nil {
		return fmt.Errorf("wire: sync shipped records: node has no journal")
	}
	if !s.dur.sync {
		return nil
	}
	return s.dur.log.Sync()
}

// CatchUp feeds a (re)connecting standby everything it is missing and
// atomically activates its live stream. It runs entirely between group
// commits: no group can be written — or shipped — between the read of
// the backlog and the activation, so the standby sees every record
// exactly once, either in the catch-up batch or on the live stream. When
// the standby's watermark predates the last compaction the journal no
// longer holds its delta — or force is set because the standby diverged
// (failed apply, epoch change) — the full durable state is sent instead.
func (s *Server) CatchUp(afterSeq uint64, force bool, full func(PersistentState) error, incremental func([]journal.Entry) error, activate func()) error {
	if s.dur == nil {
		return fmt.Errorf("wire: replication catch-up: node has no journal")
	}
	return s.dur.log.Between(func() error {
		if force || afterSeq < s.dur.snapSeq {
			conns, links := s.dur.view.Snapshot()
			st := PersistentState{
				LastSeq:     s.dur.log.LastSeq(),
				Connections: conns,
				FailedLinks: links,
				Epoch:       s.epoch.Load(),
			}
			if err := full(st); err != nil {
				return err
			}
		} else {
			entries, err := journal.EntriesSince(s.dur.fsys, s.dur.journalPath, afterSeq)
			if err != nil {
				return err
			}
			if err := incremental(entries); err != nil {
				return err
			}
		}
		if activate != nil {
			activate()
		}
		return nil
	})
}

// InstallState replaces the standby's entire admission state with the
// primary's — the full-resync path when the journal delta is gone (the
// standby predates a compaction) or the standby diverged (an apply
// failed, or it rejoins from a lower epoch after a fenced stint as
// primary). Memory is rebuilt first — the primary's connections loaded
// as one set (core.Network.InstallSet) — then snapshot and journal are
// reset to the new watermark, so a crash mid-install recovers into the
// old state and simply resyncs again.
func (s *Server) InstallState(st PersistentState) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if epoch := s.epoch.Load(); st.Epoch < epoch {
		return fmt.Errorf("%w: state epoch %d below local term %d", ErrStaleEpoch, st.Epoch, epoch)
	}
	for _, id := range s.network.Connections() {
		if err := s.network.Teardown(id); err != nil {
			return fmt.Errorf("wire: install state: clear %q: %w", id, err)
		}
	}
	for _, l := range s.network.FailedLinks() {
		if err := s.network.RestoreLink(l.From, l.To); err != nil {
			return fmt.Errorf("wire: install state: clear failed link %s: %w", l, err)
		}
	}
	for _, l := range st.FailedLinks {
		if _, err := s.network.FailLink(l.From, l.To); err != nil {
			return fmt.Errorf("wire: install state: fail link %s: %w", l, err)
		}
	}
	for i, err := range s.network.InstallSet(st.Connections) {
		if err != nil {
			return fmt.Errorf("wire: install state: install %q: %w", st.Connections[i].ID, err)
		}
	}
	s.epoch.Store(st.Epoch)
	if s.dur == nil {
		return nil
	}
	return s.dur.log.Between(func() error {
		s.dur.view = journal.NewView(journal.State{Requests: st.Connections, FailedLinks: st.FailedLinks})
		// Adopt the primary's numbering outright: this node's own journal
		// (possibly ahead of the primary by never-acked orphans) is
		// discarded by the Reset below, so a lower next-seq cannot collide.
		s.dur.log.ForceNextSeq(st.LastSeq + 1)
		if err := s.dur.fold(st); err != nil {
			return fmt.Errorf("wire: install state: %w", err)
		}
		return nil
	})
}

// ReplicationReport is the transport form of a node's replication
// status. Role is "primary", "standby" or "fenced"; the stream fields
// are filled by the replica layer's status decorator when replication is
// attached.
type ReplicationReport struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	FencedBy uint64 `json:"fencedBy,omitempty"`
	// LastSeq is the node's journal watermark.
	LastSeq uint64 `json:"lastSeq,omitempty"`
	// Mode is the configured replication mode (async, semi-sync, sync).
	Mode string `json:"mode,omitempty"`
	// Connected reports a live replication stream.
	Connected bool `json:"connected,omitempty"`
	// AckedSeq is the highest sequence the peer has acknowledged (on a
	// primary) or this node has applied (on a standby).
	AckedSeq uint64 `json:"ackedSeq,omitempty"`
	// Lag is LastSeq-AckedSeq on the primary: records shipped or pending
	// that the standby has not confirmed.
	Lag uint64 `json:"lag,omitempty"`
}

// replicationReport assembles the node-local fields and lets the replica
// layer decorate the stream-level ones.
func (s *Server) replicationReport() *ReplicationReport {
	rep := &ReplicationReport{Role: "primary", Epoch: s.Epoch()}
	s.replMu.RLock()
	if s.fenced {
		rep.Role = "fenced"
		rep.FencedBy = s.fencedBy
	} else if s.standby {
		rep.Role = "standby"
	}
	s.replMu.RUnlock()
	rep.LastSeq = s.JournalWatermark()
	if s.replStatus != nil {
		s.replStatus(rep)
	}
	return rep
}

// writeGate refuses mutations on nodes that must not mutate: fenced
// ex-primaries (split-brain guard) and unpromoted standbys.
func (s *Server) writeGate(op string) *Response {
	s.replMu.RLock()
	standby, fenced, by := s.standby, s.fenced, s.fencedBy
	s.replMu.RUnlock()
	if fenced {
		return &Response{
			Error: fmt.Sprintf("%s refused: node fenced at epoch %d (a newer primary exists; split-brain guard)", op, by),
			Code:  CodeFenced,
		}
	}
	if standby {
		return &Response{
			Error: fmt.Sprintf("%s refused: node is a warm standby (read-only until promoted)", op),
			Code:  CodeStandby,
		}
	}
	return nil
}
