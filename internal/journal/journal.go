// Package journal is the write-ahead admission log of the central CAC
// server: one length-prefixed, CRC32-framed record per admission-state
// mutation (setup, teardown, fail-link, restore-link, shard 2PC legs),
// appended — and in the strictest mode fsynced — before the operation is
// acknowledged.
//
// The paper's delay guarantees (Algorithm 4.1) hold only while the
// switch's recorded admission state Sia/Sif/Soa/Sof matches the set of
// connections actually admitted; for RTnet's permanent real-time
// connections a CAC server crash must neither lose an acknowledged
// admission nor resurrect a torn-down one. The journal turns the per-op
// persistence cost from an O(n) full snapshot into an O(1) append, and
// recovery is: load snapshot, fold the journal records past the
// snapshot's sequence watermark into it (Replay), then re-admit the
// resulting set through the full CAC check.
//
// Fold is the one statement of what a record means. It folds into any
// Target: a View — the set recovery builds, and a primary's durable view
// that compaction snapshots — or a warm standby's live network
// (NetworkTarget).
//
// Frame format, designed so a torn tail is detectable and cheap to repair:
//
//	[4 bytes big-endian payload length][4 bytes big-endian IEEE CRC32 of
//	payload][payload: one JSON Record]
//
// The same frames carry every record schema in the tree — the journal's
// Records here, the coordinator's intent records in internal/shard — and
// one FrameLog writes, group-commits, scans and repairs them all. Frames
// reach the file in whole groups, one Write each. Scanning stops at the
// first frame that is short, oversized, fails its checksum, or does not
// decode: everything before it is valid, everything from it on is a torn
// tail (the typical residue of a crash mid-append or a power loss that
// persisted half a sector). Opening a log repairs a torn tail by copying
// the damaged file to a fresh ".torn" evidence path and truncating it at
// the last valid frame.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"atmcac/internal/core"
)

// Op enumerates the journaled admission-state mutations.
type Op string

const (
	// OpSetup records an admitted connection.
	OpSetup Op = "setup"
	// OpTeardown records a released connection.
	OpTeardown Op = "teardown"
	// OpFailLink records a link failure with the evicted connections and
	// the re-admissions (with their new wrapped routes) it triggered.
	OpFailLink Op = "fail-link"
	// OpRestoreLink records a healed link.
	OpRestoreLink Op = "restore-link"
	// OpShardPrepare records phase 1 of a cross-shard admission: the
	// shard holds the route hops for a coordinator transaction, with a
	// TTL after which an unresolved hold may be reaped. A prepare alone
	// NEVER replays to an admitted connection — only a later
	// OpShardCommit admits.
	OpShardPrepare Op = "shard-prepare"
	// OpShardCommit records phase 2: the prepared hold became an
	// admitted connection. The record carries the full request so it is
	// self-contained — compaction may have folded the prepare away.
	OpShardCommit Op = "shard-commit"
	// OpShardAbort records the release of a prepared hold (coordinator
	// abort or TTL reap) or the removal of a connection admitted by a
	// commit the coordinator later unwound.
	OpShardAbort Op = "shard-abort"
)

// MaxRecordBytes caps one record payload; a frame announcing more is torn
// or hostile, never allocated.
const MaxRecordBytes = 1 << 20

// frameHeaderLen is the length prefix plus the CRC32.
const frameHeaderLen = 8

// ErrBroken reports an append log handle that can no longer be trusted —
// a failed append whose tail could not be healed, or a failed fsync
// (which on Linux may drop the dirty pages while clearing the kernel
// error state, so nothing written since the last successful sync is
// guaranteed durable through this handle). A broken log refuses further
// appends and resets until it is reopened, which rescans the on-disk
// state.
var ErrBroken = errors.New("journal: log broken (reopen to rescan the on-disk state)")

// Record is one journaled mutation. Seq is assigned by Append and is
// strictly monotonic across compactions: a snapshot stores the last
// sequence folded into it, and replay skips records at or below that
// watermark, which makes a crash between snapshot rename and journal
// truncation harmless.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  Op     `json:"op"`
	// Epoch is the primary term that produced the record. A promoted
	// standby bumps its epoch, and replication peers reject streams from a
	// lower epoch — the fencing that keeps a partitioned ex-primary from
	// mutating shared state. Zero (records from before replication, or a
	// never-replicated deployment) is a valid first epoch.
	Epoch uint64 `json:"epoch,omitempty"`
	// Request carries the admitted connection for OpSetup.
	Request *core.ConnRequest `json:"request,omitempty"`
	// ID names the released connection for OpTeardown.
	ID core.ConnID `json:"id,omitempty"`
	// From and To name the link for OpFailLink / OpRestoreLink.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Evicted lists the connections the link failure tore down.
	Evicted []core.ConnID `json:"evicted,omitempty"`
	// Readmitted lists the evicted connections re-admitted in degraded
	// mode, carrying their new (wrapped) routes.
	Readmitted []core.ConnRequest `json:"readmitted,omitempty"`
	// Txn names the coordinator transaction for the shard 2PC ops.
	Txn string `json:"txn,omitempty"`
	// TTLMillis is the prepare hold's time-to-live for OpShardPrepare;
	// a hold unresolved past its TTL is fair game for the orphan reaper.
	TTLMillis int64 `json:"ttlMs,omitempty"`
}

// EncodeRawFrame wraps an already-encoded payload in a frame. The caller
// is responsible for the payload fitting MaxRecordBytes; the standby uses
// this to persist shipped payloads byte-identically to the primary's file.
func EncodeRawFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame
}

// ScanResult is the outcome of decoding a journal image.
type ScanResult struct {
	// Records holds every valid record, in file order.
	Records []Record
	// Valid is the byte offset just past the last valid frame.
	Valid int64
	// Torn reports trailing bytes after Valid that do not form a valid
	// frame — the residue of a crash mid-append.
	Torn bool
}

// Entry is one valid journal frame surfaced at every level of detail at
// once: the assigned sequence, the exact frame bytes as they sit in the
// file, the JSON payload inside the frame, and the decoded record — the
// unit of replication catch-up, so a standby receives byte-for-byte the
// frame a recovering primary would replay.
type Entry struct {
	// Seq is Rec.Seq, hoisted for watermark filtering without touching
	// the decoded record.
	Seq uint64
	// Frame is the complete on-disk frame: length prefix, CRC32, payload.
	Frame []byte
	// Payload is the JSON record inside Frame (aliases Frame's storage).
	Payload []byte
	// Rec is the decoded record.
	Rec Record
}

// ScanFrames is the one scanner of frame files, whatever their record
// schema. It walks data frame by frame and hands visit every frame whose
// length and checksum hold, with its payload; a visit error rejects the
// frame. The scan stops at the first frame that is short, oversized,
// fails its checksum or is rejected, and returns the offset just past the
// last valid frame and whether bytes remain after it — a torn tail. It
// never fails: a log's tail is exactly where a crash lands. Frames alias
// data.
func ScanFrames(data []byte, visit func(frame, payload []byte) error) (valid int64, torn bool) {
	for {
		rest := data[valid:]
		if len(rest) == 0 {
			return valid, false
		}
		if len(rest) < frameHeaderLen {
			return valid, true
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n > MaxRecordBytes || int64(n) > int64(len(rest)-frameHeaderLen) {
			return valid, true
		}
		frame := rest[:frameHeaderLen+int(n)]
		payload := frame[frameHeaderLen:]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:8]) || visit(frame, payload) != nil {
			return valid, true
		}
		valid += int64(len(frame))
	}
}

// decode is the journal's record schema for ScanFrames and OpenFrames: it
// keeps the record a valid payload holds and returns its sequence.
func (res *ScanResult) decode(payload []byte) (uint64, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, err
	}
	res.Records = append(res.Records, rec)
	return rec.Seq, nil
}

// ScanBytes decodes a journal image into records: ScanFrames with the
// journal's record schema.
func ScanBytes(data []byte) ScanResult {
	var res ScanResult
	res.Valid, res.Torn = ScanFrames(data, func(_, payload []byte) error {
		_, err := res.decode(payload)
		return err
	})
	return res
}

// EntriesSince reads the journal at path and returns the valid entries
// with sequence numbers past the afterSeq watermark — the catch-up feed
// for a standby whose journal ends at afterSeq. Frames are copies safe to
// retain. A torn tail is not an error: the torn frames were never
// acknowledged and must not ship.
func EntriesSince(fsys FS, path string, afterSeq uint64) ([]Entry, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	var out []Entry
	ScanFrames(data, func(frame, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		if rec.Seq > afterSeq {
			frame = append([]byte(nil), frame...)
			out = append(out, Entry{Seq: rec.Seq, Frame: frame, Payload: frame[frameHeaderLen:], Rec: rec})
		}
		return nil
	})
	return out, nil
}

// ScanFile reads and decodes the journal at path without modifying it —
// the read-only half of recovery, also used by offline inspection
// (cacctl state verify). A missing file is an empty journal.
func ScanFile(fsys FS, path string) (ScanResult, error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ScanResult{}, nil
	}
	if err != nil {
		return ScanResult{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	return ScanBytes(data), nil
}

// Log is the journal: Records over a FrameLog, which it embeds for the
// sequence, size and lifecycle methods. The server appends through the
// FrameLog's group commit directly; Append, AppendAll and AppendEntry
// are the typed one-call forms.
type Log struct {
	*FrameLog
}

// Open scans the journal at path, repairs a torn tail (see OpenFrames)
// and opens it for appending. It returns the valid records for replay
// and the evidence path when a tear was repaired.
func Open(fsys FS, path string) (*Log, ScanResult, string, error) {
	var res ScanResult
	frames, valid, tornPath, err := OpenFrames(fsys, path, res.decode)
	res.Valid, res.Torn = valid, tornPath != ""
	if err != nil {
		return nil, res, tornPath, err
	}
	return &Log{frames}, res, tornPath, nil
}

// JSONFrame returns a Frame that encodes v as JSON under the sequence the
// log assigns it, first storing that sequence through seq — the record's
// own sequence field, in every schema.
func JSONFrame(seq *uint64, v any) *Frame {
	return &Frame{Encode: func(assigned uint64) ([]byte, error) {
		*seq = assigned
		return json.Marshal(v)
	}}
}

// Append writes rec in a group commit, fsynced before it returns when
// sync is set: a nil return then means the record survives a power loss.
func (l *Log) Append(rec *Record, sync bool) error {
	return l.Commit(sync, JSONFrame(&rec.Seq, rec))
}

// AppendAll writes every record in one Write without an fsync, all or
// nothing — the batch counterpart of Append(rec, false), for callers that
// follow up with Sync. It returns the payloads written.
func (l *Log) AppendAll(recs []*Record) ([][]byte, error) {
	frames := make([]*Frame, len(recs))
	for i, rec := range recs {
		frames[i] = JSONFrame(&rec.Seq, rec)
	}
	if err := l.Commit(false, frames...); err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(frames))
	for i, f := range frames {
		payloads[i] = f.frame[frameHeaderLen:]
	}
	return payloads, nil
}

// AppendEntry persists an already-encoded payload under the sequence its
// primary assigned (see AppendAt): the standby's append, byte-identical
// to the primary's file.
func (l *Log) AppendEntry(seq uint64, payload []byte, sync bool) error {
	_, err := l.AppendAt(seq, payload, sync, nil)
	return err
}
