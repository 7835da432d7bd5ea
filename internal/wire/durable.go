package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"atmcac/internal/core"
	"atmcac/internal/journal"
)

// DurabilityMode selects how the server makes admission state survive a
// crash. In both modes every mutation appends one O(1) journal record
// before the ack, and a failed append fails (and rolls back) the
// operation; the snapshot is only the compaction artifact.
//
//   - journal-sync (the default): the group carrying the record is
//     fsynced before the ack — an acked mutation survives power loss.
//     Tested by the crash-point harness in internal/faultinject.
//   - journal: no fsync. Survives a process crash exactly; a power loss
//     can still lose the OS-buffered tail.
type DurabilityMode string

const (
	DurabilityJournal     DurabilityMode = "journal"
	DurabilityJournalSync DurabilityMode = "journal-sync"
)

// ParseDurabilityMode validates a mode flag value.
func ParseDurabilityMode(s string) (DurabilityMode, error) {
	switch DurabilityMode(s) {
	case DurabilityJournal, DurabilityJournalSync:
		return DurabilityMode(s), nil
	}
	return "", fmt.Errorf("wire: unknown durability mode %q (want journal or journal-sync)", s)
}

// Default compaction triggers: the journal folds into a fresh snapshot
// once it holds this many records or bytes, keeping replay time and disk
// growth bounded while the per-op cost stays O(1) amortized.
const (
	DefaultCompactRecords = 1024
	DefaultCompactBytes   = 1 << 20
)

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// StatePath is the snapshot file (cacd -state).
	StatePath string
	// JournalPath is the write-ahead log; empty means StatePath+".journal".
	JournalPath string
	// Mode defaults to DurabilityJournalSync.
	Mode DurabilityMode
	// FS defaults to the real filesystem; the crash harness injects here.
	FS journal.FS
	// CompactRecords and CompactBytes override the compaction triggers;
	// zero means the default.
	CompactRecords int
	CompactBytes   int64
}

// Durable binds a snapshot store and a write-ahead log into one
// persistence component. Build it with OpenDurable, recover the network
// through Recover (which opens the log), then attach it to the server
// with SetDurable — every mutation's record goes through the journal's
// group commit (persist) before the operation acks.
type Durable struct {
	sync           bool // fsync each group (journal-sync)
	store          *StateStore
	fsys           journal.FS
	journalPath    string
	log            *journal.Log
	compactRecords int
	compactBytes   int64

	// view is the durable admission state — the last snapshot plus every
	// record made durable since (and acked warning-only records whose
	// append failed) — which compaction writes instead of the live
	// network (see compactLocked). A record enters it only from its group
	// leader's Durable hook, once the group is durable, so a failed group
	// leaves nothing to undo. Guarded by the journal's group exclusion
	// (hooks and Between); set by Recover.
	view *journal.View

	// recoveredEpoch is the replication term Recover found on disk (the
	// snapshot trailer, raised by any higher record epoch in the
	// journal); SetDurable adopts it as the server's term.
	recoveredEpoch uint64
	// snapSeq is the watermark of the last written snapshot: journal
	// records at or below it are folded in and no longer available for
	// incremental catch-up. Guarded like the view.
	snapSeq uint64
}

// OpenDurable validates cfg and builds the component. The journal itself
// is opened (and a torn tail repaired) inside Recover, which must run
// before the server serves.
func OpenDurable(cfg DurableConfig) (*Durable, error) {
	if cfg.StatePath == "" {
		return nil, fmt.Errorf("wire: durable state requires a snapshot path")
	}
	mode := cfg.Mode
	if mode == "" {
		mode = DurabilityJournalSync
	}
	if _, err := ParseDurabilityMode(string(mode)); err != nil {
		return nil, err
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = journal.OSFS{}
	}
	jpath := cfg.JournalPath
	if jpath == "" {
		jpath = cfg.StatePath + ".journal"
	}
	records := cfg.CompactRecords
	if records <= 0 {
		records = DefaultCompactRecords
	}
	bytes := cfg.CompactBytes
	if bytes <= 0 {
		bytes = DefaultCompactBytes
	}
	return &Durable{
		sync:           mode == DurabilityJournalSync,
		store:          NewStateStoreFS(cfg.StatePath, fsys),
		fsys:           fsys,
		journalPath:    jpath,
		compactRecords: records,
		compactBytes:   bytes,
	}, nil
}

// Store returns the snapshot store.
func (d *Durable) Store() *StateStore { return d.store }

// Close releases the journal handle; call it after the server is done.
func (d *Durable) Close() error {
	if d.log == nil {
		return nil
	}
	return d.log.Close()
}

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Restored counts connections re-admitted through the full CAC check.
	Restored int
	// Failed lists connections that no longer fit (reported once; the
	// post-recovery compaction prunes them from the next snapshot).
	Failed []RestoreFailure
	// FailedLinks are the links restored as failed.
	FailedLinks []core.Link
	// JournalRecords counts valid journal records replayed past the
	// snapshot watermark.
	JournalRecords int
	// TornPath, when non-empty, is where a torn journal tail was
	// preserved before the journal was truncated at the last valid frame.
	TornPath string
	// ReapedPrepares lists shard transactions whose prepared hold was
	// found unresolved in the journal — the crash landed between the
	// prepare and the coordinator's decision. The holds are expired
	// (presumed abort): they are never re-admitted, and the coordinator
	// re-drives or aborts the transaction from its own intent log.
	ReapedPrepares []string
	// Warnings carries non-fatal findings (legacy snapshot without a
	// checksum, a link that could not be re-failed, ...).
	Warnings []string
}

// Recover rebuilds the network's admission state: load the snapshot,
// replay journal records past its watermark, re-fail the recorded links,
// then re-admit every surviving connection through the full CAC check —
// recovery must re-earn the paper's guarantees, not assume them. The
// survivors are admitted as one set (core.Network.SetupSet), which fails
// exactly the connections one-by-one re-admission in order would. The
// journal is then open for appending (a missing journal reads as empty,
// so a snapshot-only state file opens as-is) and the replayed state is
// immediately compacted into a fresh snapshot, so failed re-admissions
// are pruned rather than re-persisted forever. A current-format snapshot
// with no journal record past it, whose every connection and failed link
// was restored, already is that snapshot and is not rewritten. network
// must start empty: the view the replay folded into, less what could not
// be restored, becomes the durable view.
func (d *Durable) Recover(network *core.Network) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	st, warning, current, err := d.store.load()
	if err != nil {
		return nil, err
	}
	if warning != "" {
		rep.Warnings = append(rep.Warnings, warning)
	}
	d.recoveredEpoch = st.Epoch
	d.snapSeq = st.LastSeq
	log, scan, tornPath, err := journal.Open(d.fsys, d.journalPath)
	if err != nil {
		return nil, err
	}
	d.log = log
	rep.TornPath = tornPath
	if tornPath != "" {
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("wire: journal %s had a torn tail; preserved at %s, truncated at byte %d",
				d.journalPath, tornPath, scan.Valid))
	}
	for _, rec := range scan.Records {
		if rec.Seq > st.LastSeq {
			rep.JournalRecords++
		}
		// The journal can outrun the snapshot's term: records appended
		// after a promotion whose compaction never landed. Recovery must
		// resume at the highest term ever persisted, or a restarted node
		// could ship records at a fenced epoch.
		if rec.Epoch > d.recoveredEpoch {
			d.recoveredEpoch = rec.Epoch
		}
	}
	final, view := journal.Replay(journal.State{Requests: st.Connections, FailedLinks: st.FailedLinks}, st.LastSeq, scan.Records)
	log.SetNextSeq(st.LastSeq + 1)
	rep.ReapedPrepares = final.ReapedPrepares
	for _, u := range final.Unfolded {
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("wire: journal %s holds %d record(s) of unknown op %q (first seq %d); recovery skipped them",
				d.journalPath, u.Count, u.Op, u.FirstSeq))
	}
	for _, l := range final.FailedLinks {
		if _, err := network.FailLink(l.From, l.To); err != nil {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("wire: recorded failed link %s could not be restored as failed: %v", l, err))
			_ = view.RestoreLink(l)
			continue
		}
		rep.FailedLinks = append(rep.FailedLinks, l)
	}
	_, errs := network.SetupSet(context.Background(), final.Requests)
	for i, err := range errs {
		if err != nil {
			rep.Failed = append(rep.Failed, RestoreFailure{ID: final.Requests[i].ID, Err: err})
			_ = view.Remove(final.Requests[i].ID)
			continue
		}
		rep.Restored++
	}
	// Seed the durable view here, the one moment where memory and disk
	// provably agree (nothing serves yet).
	d.view = view
	// Fold the replayed state into a fresh snapshot: the journal empties,
	// failed re-admissions are pruned, and legacy snapshots are rewritten
	// in the current format. A current-format snapshot that nothing was
	// replayed onto and nothing was pruned from already is that snapshot.
	if current && warning == "" && tornPath == "" && len(scan.Records) == 0 &&
		len(rep.Failed) == 0 && len(rep.FailedLinks) == len(final.FailedLinks) {
		return rep, nil
	}
	st = PersistentState{Epoch: d.recoveredEpoch, LastSeq: log.LastSeq()}
	st.Connections, st.FailedLinks = view.Snapshot()
	if err := d.fold(st); err != nil {
		return nil, fmt.Errorf("wire: post-recovery compaction: %w", err)
	}
	return rep, nil
}

// fold writes st as the new snapshot, then empties the journal. The order
// is what makes a crash in between harmless: the freshly renamed snapshot
// carries the watermark of every journal record it folded in, so a replay
// of the not-yet-truncated journal skips them all. A Reset failure after
// a successful save is reported as errJournalReset (see there).
func (d *Durable) fold(st PersistentState) error {
	if err := d.store.SaveState(st); err != nil {
		return err
	}
	d.snapSeq = st.LastSeq
	if err := d.log.Reset(); err != nil {
		return fmt.Errorf("%w: %v", errJournalReset, err)
	}
	return nil
}

// SetDurable attaches the persistence component: every successful setup,
// teardown, fail-link and restore-link is journaled before the response
// acks. It must be called before Serve, after Recover. The server adopts
// the replication term recovery found on disk.
func (s *Server) SetDurable(d *Durable) {
	s.dur = d
	if d != nil && d.recoveredEpoch > s.epoch.Load() {
		s.epoch.Store(d.recoveredEpoch)
	}
}

// shipUnit carries what the Durable hooks of one persist call report back
// to it. The group leader writes it before the group is done; the caller
// reads it after.
type shipUnit struct {
	// bestEffort ships without waiting (compensation records).
	bestEffort bool
	// refused is the unit's first replication refusal; later ack-gated
	// records of the unit fall with it, so a batch's acks stay a prefix.
	refused  error
	warnings []string
}

// persist makes recs durable before the caller acks them. It is the one
// write path of every journaled mutation — single ops, batches, shard
// legs, fail/restore-link and compensations, with or without a
// replication shipper — and runs through the journal's group commit, so
// concurrent callers' records share one write and, in journal-sync mode,
// one fsync. A unit of records (a batch) always lands in one group.
//
// Once a group is durable its leader folds each record into the durable
// view and ships it, in journal order, before the next group may start —
// so stream order is journal order, a record ships only once it is
// durable, and a compaction (which runs only between groups) never sees
// half a group. A failed group was never applied, so its callers only
// roll their memory back.
//
// inverts[i] is recs[i]'s logical inverse (teardown for a setup, setup
// for a teardown, shard-abort for a shard leg) or nil. A record the
// replication mode refuses fails with ErrNotReplicated after its inverse
// has been appended, so the journal replays to the rolled-back memory;
// with no inverse a refused ship is only a warning (standby catch-up
// heals the gap). errs is nil when every record is durable; errs[i]
// otherwise fails record i, and the caller must roll it back.
func (s *Server) persist(recs, inverts []*journal.Record) (errs []error, warning string) {
	if s.dur == nil {
		return nil, ""
	}
	if cp := s.crashPoints; cp != nil && cp.PreAppend != nil {
		cp.PreAppend(string(recs[0].Op))
	}
	u := &shipUnit{}
	frames := s.journalFrames(recs, inverts, u)
	wait, err := s.dur.log.Queue(s.dur.sync, frames...)
	if err == nil {
		if s.testHookQueued != nil {
			s.testHookQueued()
		}
		_ = wait() // outcomes are per record, in each frame's Err
	}
	var undo []*journal.Record
	for i, f := range frames {
		if err != nil {
			f.Err = err
		}
		if f.Err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(recs))
		}
		errs[i] = f.Err
		if errors.Is(f.Err, ErrNotReplicated) {
			undo = append(undo, inverts[i])
		}
	}
	if len(undo) > 0 {
		s.compensate(undo)
	}
	if w := s.compactIfDue(); w != "" {
		u.warnings = append(u.warnings, w)
	}
	return errs, strings.Join(u.warnings, "; ")
}

// journalFrames wraps recs for the journal, stamped with the current
// epoch. Each frame's Durable hook folds the record into the durable view
// and ships it; the post-append crash point fires in between, where the
// record is durable here and nowhere else.
func (s *Server) journalFrames(recs, inverts []*journal.Record, u *shipUnit) []*journal.Frame {
	epoch := s.epoch.Load()
	frames := make([]*journal.Frame, len(recs))
	for i, rec := range recs {
		rec.Epoch = epoch
		invert := inverts[i]
		frames[i] = journal.JSONFrame(&rec.Seq, rec)
		frames[i].Durable = func(_ uint64, payload []byte) error {
			_ = journal.Fold(s.dur.view, rec) // the view refuses only an unknown op
			if cp := s.crashPoints; cp != nil && cp.PostAppend != nil && !u.bestEffort {
				cp.PostAppend(string(rec.Op), rec.Seq)
			}
			return s.ship(rec, invert, payload, u)
		}
	}
	return frames
}

// ship forwards one durable record to the standby per the rules persist
// describes.
func (s *Server) ship(rec, invert *journal.Record, payload []byte, u *shipUnit) error {
	sh := s.shipper
	switch {
	case sh == nil:
		return nil
	case u.bestEffort:
		sh.ShipBestEffort(rec.Seq, rec.Epoch, payload)
		return nil
	case u.refused != nil && invert != nil:
		return u.refused
	}
	if err := sh.Ship(rec.Seq, rec.Epoch, payload); err != nil {
		if invert == nil {
			u.warnings = append(u.warnings,
				fmt.Sprintf("replication of %s seq %d deferred (standby catch-up will heal): %v", rec.Op, rec.Seq, err))
			return nil
		}
		u.refused = fmt.Errorf("%w: %v", ErrNotReplicated, err)
		return u.refused
	}
	if cp := s.crashPoints; cp != nil && cp.PostShip != nil {
		cp.PostShip(string(rec.Op), rec.Seq)
	}
	return nil
}

// compensate appends the inverses of records that are durable locally but
// whose replication was refused, so journal replay matches the rolled-back
// memory. They ship best-effort: in semi-sync mode an original may have
// reached (and been applied by) the standby even though its confirmation
// did not arrive in time, and the inverse undoes it there too — with
// standby catch-up as the backstop, since the inverse is in the journal.
// If even this append fails the log is taken out of service: recovery
// must rescan rather than trust a journal whose replay no longer matches
// what clients were told.
func (s *Server) compensate(inverts []*journal.Record) {
	frames := s.journalFrames(inverts, make([]*journal.Record, len(inverts)), &shipUnit{bestEffort: true})
	if err := s.dur.log.Commit(s.dur.sync, frames...); err != nil {
		s.dur.log.MarkBroken()
	}
}

// compactIfDue folds the journal into a fresh snapshot once it outgrows
// its triggers, between groups. The returned warning flags a deferred
// compaction or a journal left out of service by one.
func (s *Server) compactIfDue() string {
	due := func() bool {
		return s.dur.log.Count() >= s.dur.compactRecords || s.dur.log.Size() >= s.dur.compactBytes
	}
	if !due() {
		return ""
	}
	err := s.dur.log.Between(func() error {
		if !due() {
			return nil // a concurrent caller compacted first
		}
		return s.compactLocked(s.epoch.Load())
	})
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errJournalReset):
		// The snapshot saved, so every record is durable under the
		// watermark. Only the journal itself is out of service; no retry
		// would help.
		return fmt.Sprintf("journal out of service after compaction: %v", err)
	}
	// The records themselves are durable; only the fold-in is deferred.
	s.scheduleRetry()
	return fmt.Sprintf("journal compaction deferred (will retry): %v", err)
}

// refusal names why persist failed a record: the code and verb of a
// refusal that the replication mode, or the journal, could not confirm.
func refusal(err error) (code, verb string) {
	if errors.Is(err, ErrNotReplicated) {
		return CodeNotReplicated, "replicated"
	}
	return CodeNotDurable, "durable"
}

// persistOne is persist for a single record.
func (s *Server) persistOne(rec, invert *journal.Record) (string, error) {
	errs, warning := s.persist([]*journal.Record{rec}, []*journal.Record{invert})
	if errs != nil {
		return warning, errs[0]
	}
	return warning, nil
}

// persistWarn journals a warning-only record — fail-link, restore-link,
// shard-abort. These are recovery-class: the mutation already happened
// and stays acked, so a persistence failure degrades to a warning plus the
// background retry, never a refusal to heal. A record that did not land
// is folded into the durable view by hand, and the retry — which
// snapshots the view — converges on it.
func (s *Server) persistWarn(rec *journal.Record) string {
	warning, err := s.persistOne(rec, nil)
	if err == nil {
		return warning
	}
	_ = s.dur.log.Between(func() error {
		return journal.Fold(s.dur.view, rec)
	})
	s.scheduleRetry()
	return fmt.Sprintf("%s journal append deferred (will retry as snapshot): %v", rec.Op, err)
}

// setupRecords are an admitted setup's journal record and its inverse.
func setupRecords(req *core.ConnRequest) (rec, invert *journal.Record) {
	return &journal.Record{Op: journal.OpSetup, Request: req}, &journal.Record{Op: journal.OpTeardown, ID: req.ID}
}

// teardownRecords are a teardown's journal record and, when the torn-down
// request undo is known, its inverse.
func teardownRecords(id core.ConnID, undo *core.ConnRequest) (rec, invert *journal.Record) {
	if undo != nil {
		invert = &journal.Record{Op: journal.OpSetup, Request: undo}
	}
	return &journal.Record{Op: journal.OpTeardown, ID: id}, invert
}

// rollbackSetup rolls back an admitted setup whose record persist
// refused — an ack a crash or a failover could erase would break the
// durability contract — and returns the refusal.
func (s *Server) rollbackSetup(id core.ConnID, perr error) (msg, code string) {
	_ = s.network.Teardown(id)
	code, verb := refusal(perr)
	return fmt.Sprintf("setup %q not %s: %v", id, verb, perr), code
}

// rollbackTeardown un-acks a teardown whose record persist refused by
// re-admitting undo, the torn-down request, when known (its capacity was
// just freed, so the CAC re-check succeeds unless a concurrent setup
// raced it away), and returns the refusal.
func (s *Server) rollbackTeardown(id core.ConnID, undo *core.ConnRequest, perr error) (msg, code string) {
	code, verb := refusal(perr)
	msg = fmt.Sprintf("teardown %q not %s: %v", id, verb, perr)
	if undo != nil {
		if _, rerr := s.network.Setup(context.Background(), *undo); rerr != nil {
			msg = fmt.Sprintf("%s (rollback failed: %v)", msg, rerr)
		}
	}
	return msg, code
}
