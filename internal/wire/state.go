package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
)

// checksumPrefix introduces the legacy (v1) integrity trailer of a
// snapshot file: one final line "#crc32:<8 hex digits>" over every byte
// before it. The '#' keeps the trailer out of the JSON payload, so files
// from before the trailer existed (plain JSON arrays) still load.
const checksumPrefix = "#crc32:"

// trailerV2Prefix introduces the current, versioned trailer:
// "#trailer:v2 crc32=<8 hex> epoch=<decimal>". Versioning the trailer is
// what lets replication stamp the primary epoch into snapshots without
// breaking older files: a v1 trailer still verifies (epoch 0, with a
// legacy warning), and future fields extend the v2 line instead of
// inventing a third format.
const trailerV2Prefix = "#trailer:v2 "

// ErrCorruptState reports a snapshot whose checksum did not match; the
// file has been quarantined rather than restored.
var ErrCorruptState = errors.New("wire: corrupt state snapshot")

// PersistentState is the on-disk snapshot payload. LastSeq is the journal
// sequence watermark folded into the snapshot: recovery replays only
// journal records past it. Legacy snapshots — a bare JSON array of
// connection requests — load as a state with watermark 0 and no failed
// links.
type PersistentState struct {
	LastSeq     uint64             `json:"lastSeq,omitempty"`
	Connections []core.ConnRequest `json:"connections"`
	FailedLinks []core.Link        `json:"failedLinks,omitempty"`
	// Epoch is the replication term the snapshot was written under. It
	// travels in the trailer line, not the JSON payload, so the payload
	// stays readable by pre-replication tooling; files with a v1 or
	// missing trailer load as epoch 0.
	Epoch uint64 `json:"-"`
}

// StateStore persists the admission state as a JSON file so a central CAC
// server can be restarted without losing its admissions — required for
// the permanent real-time connections RTnet manages. Writes are atomic
// and durable (temp file, fsync, rename, directory fsync) and carry a
// CRC32 trailer; a snapshot that fails verification is quarantined to a
// fresh <path>.corrupt evidence path instead of restoring garbage into
// the admission state.
type StateStore struct {
	path string
	fsys journal.FS
}

// NewStateStore returns a store backed by path on the real filesystem.
func NewStateStore(path string) *StateStore {
	return NewStateStoreFS(path, journal.OSFS{})
}

// NewStateStoreFS returns a store writing through fsys — the seam the
// crash-point harness uses to kill the persistence path at every
// write/sync/rename boundary.
func NewStateStoreFS(path string, fsys journal.FS) *StateStore {
	return &StateStore{path: path, fsys: fsys}
}

// Path returns the backing file path.
func (s *StateStore) Path() string { return s.path }

// QuarantinePath is the base path corrupt snapshots are moved to for
// inspection. When it is already occupied by earlier evidence, the next
// quarantine lands on <path>.corrupt.1, .2, ... — a second corruption
// must never overwrite the proof of the first.
func (s *StateStore) QuarantinePath() string { return s.path + ".corrupt" }

// LoadState reads and verifies the stored state. A missing file is an
// empty store, not an error. A file without a checksum trailer (written
// before trailers existed) is accepted and flagged through the warning. A
// file whose trailer does not match its content — or whose JSON does not
// parse — is moved to QuarantinePath and reported as ErrCorruptState: a
// torn or tampered snapshot must never silently restore a wrong admission
// set.
func (s *StateStore) LoadState() (PersistentState, string, error) {
	st, warning, reason, err := s.readState()
	if reason != "" {
		return PersistentState{}, "", s.quarantine(reason)
	}
	return st, warning, err
}

// ReadState is LoadState without the quarantine side effect: a corrupt
// file stays in place and is reported as ErrCorruptState with the reason.
// Offline inspection (cacctl state verify) uses it so looking at a file
// never moves it.
func (s *StateStore) ReadState() (PersistentState, string, error) {
	st, warning, reason, err := s.readState()
	if reason != "" {
		return PersistentState{}, "", fmt.Errorf("%w: %s: %s", ErrCorruptState, s.path, reason)
	}
	return st, warning, err
}

// readState parses the file; a non-empty reason marks corruption the
// caller turns into either a quarantine or a plain error.
func (s *StateStore) readState() (st PersistentState, warning, reason string, err error) {
	data, err := s.fsys.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return PersistentState{}, "", "", nil
	}
	if err != nil {
		return PersistentState{}, "", "", fmt.Errorf("wire: load state: %w", err)
	}
	payload, sum, epoch, version := splitTrailer(data)
	switch version {
	case 2:
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return PersistentState{}, "", fmt.Sprintf("checksum mismatch: file says %08x, content is %08x", sum, got), nil
		}
	case 1:
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return PersistentState{}, "", fmt.Sprintf("checksum mismatch: file says %08x, content is %08x", sum, got), nil
		}
		warning = fmt.Sprintf("wire: state %s has a legacy v1 crc-only trailer (no epoch field); epoch assumed 0", s.path)
	default:
		warning = fmt.Sprintf("wire: state %s has no checksum trailer (pre-checksum snapshot); accepted unverified", s.path)
	}
	trimmed := bytes.TrimLeft(payload, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		if jerr := json.Unmarshal(payload, &st); jerr != nil {
			return PersistentState{}, "", fmt.Sprintf("invalid JSON: %v", jerr), nil
		}
		st.Epoch = epoch
		return st, warning, "", nil
	}
	// Legacy layout: a bare array of connection requests.
	if jerr := json.Unmarshal(payload, &st.Connections); jerr != nil {
		return PersistentState{}, "", fmt.Sprintf("invalid JSON: %v", jerr), nil
	}
	st.Epoch = epoch
	return st, warning, "", nil
}

// quarantine moves the corrupt snapshot aside and returns the load error.
func (s *StateStore) quarantine(reason string) error {
	qpath := journal.EvidencePath(s.fsys, s.QuarantinePath())
	if err := s.fsys.Rename(s.path, qpath); err != nil {
		return fmt.Errorf("%w: %s: %s (quarantine to %s failed: %v)",
			ErrCorruptState, s.path, reason, qpath, err)
	}
	return fmt.Errorf("%w: %s: %s (quarantined to %s)", ErrCorruptState, s.path, reason, qpath)
}

// splitTrailer separates the payload from the trailer line and reports
// which trailer generation it found: 2 for the versioned
// "#trailer:v2 crc32=... epoch=..." line, 1 for the legacy "#crc32:"
// line, 0 for no (or unparseable) trailer. With version 0 the returned
// payload is the whole input: if the final line was a mangled trailer,
// the JSON parse behind it fails and the file is quarantined as corrupt,
// which is the right verdict for a damaged integrity line.
func splitTrailer(data []byte) (payload []byte, sum uint32, epoch uint64, version int) {
	trimmed := bytes.TrimRight(data, "\n")
	i := bytes.LastIndexByte(trimmed, '\n')
	line := trimmed[i+1:]
	if bytes.HasPrefix(line, []byte(trailerV2Prefix)) {
		if _, err := fmt.Sscanf(string(line[len(trailerV2Prefix):]), "crc32=%08x epoch=%d", &sum, &epoch); err != nil {
			return data, 0, 0, 0
		}
		return data[:i+1], sum, epoch, 2
	}
	if bytes.HasPrefix(line, []byte(checksumPrefix)) {
		if _, err := fmt.Sscanf(string(line[len(checksumPrefix):]), "%08x", &sum); err != nil {
			return data, 0, 0, 0
		}
		return data[:i+1], sum, 0, 1
	}
	return data, 0, 0, 0
}

// SaveState writes the state so that a crash or power loss at any point
// leaves either the old file or the new one, never a torn or empty
// snapshot: the temp file is fsynced before the rename (otherwise the
// rename can land while the data has not), and the parent directory is
// fsynced after it (otherwise the rename itself can be rolled back).
func (s *StateStore) SaveState(st PersistentState) error {
	if st.Connections == nil {
		st.Connections = []core.ConnRequest{}
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("wire: save state: %w", err)
	}
	data = append(data, '\n')
	data = append(data, fmt.Sprintf("%scrc32=%08x epoch=%d\n", trailerV2Prefix, crc32.ChecksumIEEE(data), st.Epoch)...)
	tmpName := s.path + ".tmp"
	tmp, err := s.fsys.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("wire: save state: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = s.fsys.Remove(tmpName)
		return fmt.Errorf("wire: save state: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = s.fsys.Remove(tmpName)
		return fmt.Errorf("wire: save state: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = s.fsys.Remove(tmpName)
		return fmt.Errorf("wire: save state: %w", err)
	}
	if err := s.fsys.Rename(tmpName, s.path); err != nil {
		_ = s.fsys.Remove(tmpName)
		return fmt.Errorf("wire: save state: %w", err)
	}
	if err := s.fsys.SyncDir(s.path); err != nil {
		return fmt.Errorf("wire: save state: sync dir: %w", err)
	}
	return nil
}

// RestoreFailure reports one stored connection that could not be
// re-admitted during Recover (e.g. because the network shape changed),
// with the admission error preserved.
type RestoreFailure struct {
	ID  core.ConnID
	Err error
}

// persistRetryBase is the first retry delay after a failed snapshot; it
// doubles per attempt up to persistRetryMax.
const (
	persistRetryBase = 50 * time.Millisecond
	persistRetryMax  = 5 * time.Second
)

// errJournalReset marks a compaction whose snapshot saved but whose
// journal truncation then failed. State is fully durable at that point —
// the fresh snapshot's watermark makes every stale journal record inert —
// so retry loops treat it as convergence instead of rewriting the same
// snapshot forever, while append paths still see the broken journal and
// refuse (and roll back) further journaled mutations.
var errJournalReset = errors.New("wire: journal reset failed after snapshot save")

// snapshot folds the journal into a fresh snapshot, between the
// journal's group commits, so a compaction sees every durable record in
// the view and no record of a group in flight.
func (s *Server) snapshot() error {
	return s.dur.log.Between(func() error { return s.compactLocked(s.epoch.Load()) })
}

// compactLocked writes the durable view as the new snapshot at the
// term epoch, then truncates the journal (see Durable.fold). The caller
// runs between groups.
//
// The state written is the durable view (snapshot plus durable records),
// not the live network: a concurrent operation may have committed its
// network mutation while its journal record is still queued — if that
// record then fails and the operation rolls back, a live capture would
// have leaked the refused mutation into a durable snapshot, resurrecting
// it after a crash.
//
// Each run is traced as KindCompaction: the fold-in is what bounds
// replay time.
func (s *Server) compactLocked(epoch uint64) error {
	tr := s.tracer
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	st := PersistentState{Epoch: epoch, LastSeq: s.dur.log.LastSeq()}
	st.Connections, st.FailedLinks = s.dur.view.Snapshot()
	err := s.dur.fold(st)
	if tr != nil {
		ev := obs.Event{Kind: obs.KindCompaction, Outcome: obs.OutcomeOK, Duration: time.Since(start)}
		if err != nil {
			ev.Outcome = obs.OutcomeError
		}
		tr.Trace(ev)
	}
	return err
}

// persistNow snapshots without scheduling retries — used for the final
// write during shutdown. The caller must have drained the retry loop
// first (see drainRetry), so this write is the last one. A failed
// journal reset after a saved snapshot is not an error here: the state
// is durable, and the next boot's recovery rescans the journal anyway.
func (s *Server) persistNow() error {
	if s.dur == nil {
		return nil
	}
	if err := s.snapshot(); err != nil && !errors.Is(err, errJournalReset) {
		return err
	}
	return nil
}

// scheduleRetry starts the single-flight background persist loop. Each
// attempt snapshots the durable view current at that moment, so the loop
// converges on the latest state no matter how many operations failed to
// persist in between.
func (s *Server) scheduleRetry() {
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return
	default:
	}
	if s.retrying {
		s.mu.Unlock()
		return
	}
	s.retrying = true
	s.retryWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			s.retrying = false
			s.mu.Unlock()
			s.retryWG.Done()
		}()
		delay := persistRetryBase
		for {
			select {
			case <-s.stop:
				// Shutdown/Close take over; Shutdown writes the final
				// snapshot itself after draining this loop.
				return
			case <-time.After(delay):
			}
			// A saved snapshot is convergence even when the journal reset
			// behind it failed: the watermark already covers every stale
			// record, so there is nothing left for this loop to make
			// durable — looping on the broken journal would rewrite the
			// same snapshot every few seconds for the life of the process.
			if err := s.snapshot(); err == nil || errors.Is(err, errJournalReset) {
				return
			}
			if delay *= 2; delay > persistRetryMax {
				delay = persistRetryMax
			}
		}
	}()
}

// drainRetry waits for the background persist loop to observe the closed
// stop channel and exit. Shutdown calls this before the final snapshot so
// a last failed retry cannot race the process exit and leave stale state
// on disk.
func (s *Server) drainRetry() {
	s.retryWG.Wait()
}
