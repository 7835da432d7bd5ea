package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"atmcac/internal/core"
	"atmcac/internal/journal"
)

// The coordinator's intent log is the durable half of the two-phase
// protocol: one journal frame per state change of a transaction,
// group-committed and fsynced before the coordinator acts on it. The decision records are
// what make the protocol crash-safe — a commit intent with no done
// record is re-driven on recovery, and a begin with no decision is
// presumed aborted, matching the shards' own presumed-abort replay.

// Intent states, in lifecycle order.
const (
	// IntentBegin opens a transaction: the full request and the owning
	// shards are recorded before any prepare is sent.
	IntentBegin = "begin"
	// IntentCommit is the durable decision to admit: every shard
	// prepared, and the per-shard prepare epochs are recorded so a
	// recovering coordinator can fence-check its re-driven commits.
	IntentCommit = "commit"
	// IntentAbort is the durable decision to release: some shard refused,
	// the delay budget ran out, or a commit flipped after a hold expired.
	IntentAbort = "abort"
	// IntentDone closes the transaction: the decision reached every
	// shard, so recovery can skip it.
	IntentDone = "done"
	// IntentEpoch is not a transaction state: it records a coordinator
	// term change. A standby coordinator appends one on promotion, so
	// the epoch is durable before the new coordinator drives anything,
	// and a restarted coordinator resumes at its highest recorded term.
	IntentEpoch = "epoch"
)

// ShardMark names one participating shard and, once prepared, the epoch
// its hold was created under.
type ShardMark struct {
	Shard string `json:"shard"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// IntentRecord is one entry in the coordinator's intent log.
type IntentRecord struct {
	Seq   uint64 `json:"seq"`
	State string `json:"state"`
	Txn   string `json:"txn"`
	// Request is the full multi-shard connection request; set on begin so
	// recovery can re-split the route without any other state.
	Request *core.ConnRequest `json:"request,omitempty"`
	// Shards lists the participating shards (begin) or the prepared
	// epochs (commit).
	Shards []ShardMark `json:"shards,omitempty"`
	// Epoch is the coordinator term declared by an IntentEpoch record.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ErrNotReplicated distinguishes an append the standby coordinator did
// not acknowledge from one that is not durable at all: the record IS in
// the local log (written and fsynced) and may well be in the standby's
// copy too — only the acknowledgement was lost. A caller seeing this
// must treat the recorded decision as potentially visible to a promoted
// standby; in particular a commit intent that failed replication must
// not be flipped to abort, or the two coordinators would resolve the
// transaction divergently. Match with errors.Is.
var ErrNotReplicated = errors.New("not acknowledged by the standby coordinator")

// MaxIntentEpoch returns the highest coordinator term recorded in recs;
// zero when no epoch record exists (a coordinator that never failed
// over runs at the implicit first term).
func MaxIntentEpoch(recs []IntentRecord) uint64 {
	var max uint64
	for i := range recs {
		if recs[i].State == IntentEpoch && recs[i].Epoch > max {
			max = recs[i].Epoch
		}
	}
	return max
}

// IntentLog is the coordinator's append-only decision log: the
// IntentRecord schema over a journal.FrameLog, whose group commit lets N
// transactions appending at once share one fsync, and whose frame format
// is the journal's own — so the bytes written here ship verbatim on the
// coordinator replication stream and land byte-identically in the
// standby's copy. It embeds the FrameLog for the sequence and lifecycle
// methods (LastSeq, ReserveSeq, Flush, Close, Drop).
type IntentLog struct {
	*journal.FrameLog
	fsys journal.FS
	path string

	mu sync.Mutex
	// shipper, when set, is called by a group's leader once the group is
	// durable, once per record in sequence order, with the exact frame
	// payload bytes. A non-nil error refuses that record's append: its
	// caller must not act on a decision the standby coordinator has not
	// acknowledged.
	shipper func(seq uint64, payload []byte) error
}

// SetShipper installs the replication hook called for every durable
// record (see IntentPrimary). Must be set before the log is appended to
// concurrently.
func (l *IntentLog) SetShipper(ship func(seq uint64, payload []byte) error) {
	l.mu.Lock()
	l.shipper = ship
	l.mu.Unlock()
}

// decodeIntent is the schema's frame decoder.
func decodeIntent(payload []byte) (rec IntentRecord, err error) {
	err = json.Unmarshal(payload, &rec)
	return rec, err
}

// CatchUp streams every record past afterSeq through send, then runs
// attach — all between group commits, so no group can reach the file
// between the last caught-up record and the live shipping the attach
// enables: records queued meanwhile are written, and shipped to the new
// session, only after CatchUp returns. This is how a standby coordinator
// joins without a gap or a duplicate.
func (l *IntentLog) CatchUp(afterSeq uint64, send func(seq uint64, payload []byte) error, attach func()) error {
	return l.Between(func() error {
		data, err := l.fsys.ReadFile(l.path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("shard: read intent log: %w", err)
		}
		var sendErr error
		journal.ScanFrames(data, func(_, payload []byte) error {
			rec, err := decodeIntent(payload)
			if err == nil && rec.Seq > afterSeq {
				sendErr = send(rec.Seq, payload)
				err = sendErr
			}
			return err
		})
		if sendErr != nil {
			return sendErr
		}
		attach()
		return nil
	})
}

// OpenIntentLog opens (or creates) the log at path, returning every
// record already in it. A torn tail — the residue of a crash mid-append
// — is preserved as evidence and truncated away; torn reports that it
// happened.
func OpenIntentLog(fsys journal.FS, path string) (log *IntentLog, recs []IntentRecord, torn bool, err error) {
	if fsys == nil {
		fsys = journal.OSFS{}
	}
	frames, _, tornPath, err := journal.OpenFrames(fsys, path, func(payload []byte) (uint64, error) {
		rec, err := decodeIntent(payload)
		if err != nil {
			return 0, err
		}
		recs = append(recs, rec)
		return rec.Seq, nil
	})
	if err != nil {
		return nil, nil, tornPath != "", fmt.Errorf("shard: open intent log: %w", err)
	}
	return &IntentLog{FrameLog: frames, fsys: fsys, path: path}, recs, tornPath != "", nil
}

// Append assigns the next sequence to rec and returns once the group
// commit covering it is on disk (and, with a standby coordinator
// attached, acknowledged). The record is only acted on after Append
// returns nil — an intent that is not durable is an intent that never
// happened. A failed group write or fsync fails every member with the
// same error and leaves none of their frames in the file.
func (l *IntentLog) Append(rec *IntentRecord) error {
	return l.Commit(true, l.frame(rec))
}

// appendLazy queues rec onto the next group without waiting for it, and
// without forcing a flush of its own: the record rides the fsync of the
// next Append, Flush or Close. after receives the outcome. Only a record
// whose loss recovery tolerates may be written this way.
func (l *IntentLog) appendLazy(rec *IntentRecord, after func(error)) error {
	return l.QueueLazy(l.frame(rec), after)
}

// frame encodes rec under the sequence the log assigns and ships it once
// its group is durable.
func (l *IntentLog) frame(rec *IntentRecord) *journal.Frame {
	f := journal.JSONFrame(&rec.Seq, rec)
	f.Durable = func(seq uint64, payload []byte) error {
		l.mu.Lock()
		ship := l.shipper
		l.mu.Unlock()
		if ship == nil {
			return nil
		}
		if err := ship(seq, payload); err != nil {
			return fmt.Errorf("shard: intent %q durable locally but %w: %v", rec.Txn, ErrNotReplicated, err)
		}
		return nil
	}
	return f
}

// AppendShipped appends one replicated frame payload on a standby
// coordinator, preserving the primary's sequence. A payload at or below
// the local watermark is skipped (idempotent redelivery after a
// reconnect). Sequences may jump forward: the primary's ReserveSeq
// consumes sequence numbers for transaction names without writing a
// frame, and the stream is ordered per session, so a forward jump is a
// reserved-but-unwritten hole, not loss.
func (l *IntentLog) AppendShipped(seq uint64, payload []byte) error {
	rec, err := decodeIntent(payload)
	if err != nil {
		return fmt.Errorf("shard: shipped intent frame undecodable: %w", err)
	}
	if rec.Seq != seq {
		return fmt.Errorf("shard: shipped intent frame seq %d disagrees with envelope %d", rec.Seq, seq)
	}
	if _, err := l.AppendAt(seq, payload, true, nil); err != nil {
		return fmt.Errorf("shard: append shipped intent %d: %w", seq, err)
	}
	return nil
}

// openTxn is the folded state of one transaction after a log scan.
type openTxn struct {
	txn     string
	state   string // latest decision state: begin, commit or abort
	request *core.ConnRequest
	marks   []ShardMark // from the commit record when present, else begin
}

// foldIntents replays the log into the set of unresolved transactions, in
// first-seen order. A done record closes its transaction.
func foldIntents(recs []IntentRecord) []*openTxn {
	byTxn := make(map[string]*openTxn)
	var order []*openTxn
	for i := range recs {
		rec := &recs[i]
		switch rec.State {
		case IntentBegin:
			if _, dup := byTxn[rec.Txn]; dup {
				continue
			}
			t := &openTxn{txn: rec.Txn, state: IntentBegin, request: rec.Request, marks: rec.Shards}
			byTxn[rec.Txn] = t
			order = append(order, t)
		case IntentCommit, IntentAbort:
			if t, ok := byTxn[rec.Txn]; ok {
				t.state = rec.State
				if len(rec.Shards) > 0 {
					t.marks = rec.Shards
				}
			}
		case IntentDone:
			delete(byTxn, rec.Txn)
		}
	}
	open := order[:0]
	for _, t := range order {
		if _, still := byTxn[t.txn]; still {
			open = append(open, t)
		}
	}
	return open
}
