package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
)

// The coordinator's intent log is the durable half of the two-phase
// protocol: one CRC-framed append per state change of a transaction,
// fsynced before the coordinator acts on it. The decision records are
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

// maxIntentBytes bounds one intent frame, mirroring the journal's limit.
const maxIntentBytes = 1 << 20

const intentHeaderLen = 8 // 4-byte payload length + 4-byte CRC32

// ScanIntentFrames decodes intent frames until the data ends or a frame
// is invalid. Like the journal scanner it never fails: a bad frame
// terminates the scan with torn set, because the log's tail is exactly
// where a coordinator crash lands.
func ScanIntentFrames(data []byte) (recs []IntentRecord, valid int64, torn bool) {
	for {
		rest := data[valid:]
		if len(rest) == 0 {
			return recs, valid, false
		}
		if len(rest) < intentHeaderLen {
			return recs, valid, true
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n > maxIntentBytes || int64(n) > int64(len(rest)-intentHeaderLen) {
			return recs, valid, true
		}
		payload := rest[intentHeaderLen : intentHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:8]) {
			return recs, valid, true
		}
		var rec IntentRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid, true
		}
		recs = append(recs, rec)
		valid += int64(intentHeaderLen) + int64(n)
	}
}

// IntentLog is the coordinator's append-only decision log. Appends are
// group-committed: concurrent callers queue their encoded frames and the
// creator of each group — its leader — writes the whole group with one
// Write and one Sync, so N transactions appending at once pay for one
// fsync between them. Coalescing comes from the fsync latency itself:
// records arriving while a leader is flushing form the next group. There
// is no timer and no background goroutine.
type IntentLog struct {
	// mu guards the queue side: sequence assignment, the pending group
	// and the hooks. It is never held across file or network I/O.
	mu      sync.Mutex
	nextSeq uint64
	pending *intentGroup
	closed  bool
	// shipper, when set, is called by a group's leader after the group is
	// locally durable, once per record in sequence order, with the exact
	// frame payload bytes. A non-nil error refuses that record's append:
	// its caller must not act on a decision the standby coordinator has
	// not acknowledged.
	shipper func(seq uint64, payload []byte) error
	observe func(records int, syncDur time.Duration)

	// flushMu is held across one group's write, fsync and ship, so groups
	// reach the file — and the standby — in sequence order. CatchUp takes
	// it to exclude a running flush. It guards the file side below and is
	// always acquired before mu.
	flushMu sync.Mutex
	fsys    journal.FS
	path    string
	f       journal.File
	size    int64 // length of the durable prefix; a failed flush truncates back to it
	broken  error // set when that truncate failed: the file may hold frames nobody was told are durable
}

// intentGroup is one group-commit generation: the records the next fsync
// will cover, in sequence order.
type intentGroup struct {
	members []*queuedIntent
	led     bool          // some caller has committed to flushing it
	done    chan struct{} // closed once every member's err is final
}

// queuedIntent is one encoded record waiting for its group's flush.
type queuedIntent struct {
	seq   uint64
	txn   string
	frame []byte
	err   error
	// after, set on lazily queued records only, receives the outcome on
	// the leader's goroutine with no lock held.
	after func(error)
}

var errIntentLogClosed = errors.New("shard: intent log closed")

// SetShipper installs the replication hook called for every durable
// record (see IntentPrimary). Must be set before the log is appended to
// concurrently.
func (l *IntentLog) SetShipper(ship func(seq uint64, payload []byte) error) {
	l.mu.Lock()
	l.shipper = ship
	l.mu.Unlock()
}

// setGroupObserver installs a callback receiving, for every group that
// reached disk, its record count and the time its one fsync took. The
// log stays free of any metrics dependency, as journal.Log does.
func (l *IntentLog) setGroupObserver(fn func(records int, syncDur time.Duration)) {
	l.mu.Lock()
	l.observe = fn
	l.mu.Unlock()
}

// CatchUp streams every record past afterSeq through send, then runs
// attach — all with flushes excluded, so no group can reach the file
// between the last caught-up record and the live shipping the attach
// enables: records queued meanwhile are written, and shipped to the new
// session, only after CatchUp returns. This is how a standby coordinator
// joins without a gap or a duplicate.
func (l *IntentLog) CatchUp(afterSeq uint64, send func(seq uint64, payload []byte) error, attach func()) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	data, err := l.fsys.ReadFile(l.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("shard: read intent log: %w", err)
	}
	recs, _, _ := ScanIntentFrames(data)
	for i := range recs {
		if recs[i].Seq <= afterSeq {
			continue
		}
		payload, merr := json.Marshal(&recs[i])
		if merr != nil {
			return fmt.Errorf("shard: re-encode intent %d for catch-up: %w", recs[i].Seq, merr)
		}
		if serr := send(recs[i].Seq, payload); serr != nil {
			return serr
		}
	}
	attach()
	return nil
}

// OpenIntentLog opens (or creates) the log at path, returning every
// record already in it. A torn tail — the residue of a crash mid-append
// — is truncated away; torn reports that it happened.
func OpenIntentLog(fsys journal.FS, path string) (log *IntentLog, recs []IntentRecord, torn bool, err error) {
	if fsys == nil {
		fsys = journal.OSFS{}
	}
	data, rerr := fsys.ReadFile(path)
	if rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return nil, nil, false, fmt.Errorf("shard: read intent log: %w", rerr)
	}
	recs, valid, torn := ScanIntentFrames(data)
	if torn {
		if err := fsys.Truncate(path, valid); err != nil {
			return nil, nil, true, fmt.Errorf("shard: repair torn intent log: %w", err)
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o600)
	if err != nil {
		return nil, nil, torn, fmt.Errorf("shard: open intent log: %w", err)
	}
	var last uint64
	if len(recs) > 0 {
		last = recs[len(recs)-1].Seq
	}
	return &IntentLog{fsys: fsys, path: path, f: f, size: valid, nextSeq: last + 1}, recs, torn, nil
}

// Append assigns the next sequence to rec and returns once the group
// commit covering it is on disk (and, with a standby coordinator
// attached, acknowledged). The record is only acted on after Append
// returns nil — an intent that is not durable is an intent that never
// happened. A failed group write or fsync fails every member with the
// same error and leaves none of their frames in the file.
func (l *IntentLog) Append(rec *IntentRecord) error {
	q, g, leads, err := l.enqueue(rec, nil)
	if err != nil {
		return err
	}
	if leads {
		l.commit(g)
	}
	<-g.done
	return q.err
}

// appendLazy queues rec onto the next group without waiting for it, and
// without forcing a flush of its own: the record rides the fsync of the
// next Append, flush or Close. after receives the outcome. Only a record
// whose loss recovery tolerates may be written this way.
func (l *IntentLog) appendLazy(rec *IntentRecord, after func(error)) error {
	_, _, _, err := l.enqueue(rec, after)
	return err
}

// enqueue encodes rec under the next sequence and joins the pending
// group, creating it when there is none. leads reports that the caller
// must flush the group: the first waiting (non-lazy) member does.
func (l *IntentLog) enqueue(rec *IntentRecord, after func(error)) (q *queuedIntent, g *intentGroup, leads bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, nil, false, errIntentLogClosed
	}
	rec.Seq = l.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, nil, false, fmt.Errorf("shard: encode intent %q: %w", rec.Txn, err)
	}
	if len(payload) > maxIntentBytes {
		return nil, nil, false, fmt.Errorf("shard: intent %q exceeds %d bytes", rec.Txn, maxIntentBytes)
	}
	// Taken for good, whatever happens to the flush: a sequence is never
	// handed out twice by one open log.
	l.nextSeq++
	// The intent frame layout is the journal's own (length + CRC32), so
	// the same bytes written here are shipped verbatim on the coordinator
	// replication stream and appended byte-identically by the standby.
	q = &queuedIntent{seq: rec.Seq, txn: rec.Txn, frame: journal.EncodeRawFrame(payload), after: after}
	g = l.pending
	if g == nil {
		g = &intentGroup{done: make(chan struct{})}
		l.pending = g
	}
	g.members = append(g.members, q)
	leads = after == nil && !g.led
	if leads {
		g.led = true
	}
	return q, g, leads, nil
}

// commit flushes g as its leader: freeze the membership, write every
// frame with one Write, fsync once, then ship the records in sequence
// order. An unacknowledged ship fails that record alone.
func (l *IntentLog) commit(g *intentGroup) {
	l.flushMu.Lock()
	l.mu.Lock()
	l.pending = nil // g, necessarily: a group stays pending until its one leader freezes it here
	ship, observe := l.shipper, l.observe
	l.mu.Unlock()
	size := 0
	for _, q := range g.members {
		size += len(q.frame)
	}
	buf := make([]byte, 0, size)
	for _, q := range g.members {
		buf = append(buf, q.frame...)
	}
	syncDur, err := l.writeDurable(buf)
	if err != nil {
		err = fmt.Errorf("shard: intent group of %d: %w", len(g.members), err)
	} else if observe != nil {
		observe(len(g.members), syncDur)
	}
	for _, q := range g.members {
		q.err = err
		if err == nil && ship != nil {
			if serr := ship(q.seq, q.frame[intentHeaderLen:]); serr != nil {
				q.err = fmt.Errorf("shard: intent %q durable locally but %w: %v", q.txn, ErrNotReplicated, serr)
			}
		}
	}
	l.flushMu.Unlock()
	close(g.done)
	for _, q := range g.members {
		if q.after != nil {
			q.after(q.err)
		}
	}
}

// writeDurable appends buf and fsyncs; the caller holds flushMu. On
// failure the file is cut back to the durable prefix, as journal.Log.Sync
// does with its unsynced tail: the callers are about to be told their
// records never happened, so the frames must not reach disk with some
// later successful fsync. If even the truncate fails the log refuses all
// further appends.
func (l *IntentLog) writeDurable(buf []byte) (syncDur time.Duration, err error) {
	if l.f == nil {
		return 0, errIntentLogClosed
	}
	if l.broken != nil {
		return 0, l.broken
	}
	if _, err = l.f.Write(buf); err == nil {
		start := time.Now()
		err = l.f.Sync()
		syncDur = time.Since(start)
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = fmt.Errorf("shard: intent log out of service: undurable tail not truncated: %w", terr)
		}
		return syncDur, err
	}
	l.size += int64(len(buf))
	return syncDur, nil
}

// flush makes every record queued before the call durable — or failed —
// before returning; lazily queued records otherwise wait for the next
// Append.
func (l *IntentLog) flush() {
	l.mu.Lock()
	g := l.pending
	leads := g != nil && !g.led
	if leads {
		g.led = true
	}
	l.mu.Unlock()
	if g == nil {
		return
	}
	if leads {
		l.commit(g)
	}
	<-g.done
}

// AppendShipped appends one replicated frame payload on a standby
// coordinator, preserving the primary's sequence. A payload at or below
// the local watermark is skipped (idempotent redelivery after a
// reconnect). Sequences may jump forward: the primary's ReserveSeq
// consumes sequence numbers for transaction names without writing a
// frame, and the stream is ordered per session, so a forward jump is a
// reserved-but-unwritten hole, not loss.
func (l *IntentLog) AppendShipped(seq uint64, payload []byte) error {
	var rec IntentRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("shard: shipped intent frame undecodable: %w", err)
	}
	if rec.Seq != seq {
		return fmt.Errorf("shard: shipped intent frame seq %d disagrees with envelope %d", rec.Seq, seq)
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	stale := seq < l.nextSeq
	l.mu.Unlock()
	if stale {
		return nil
	}
	if _, err := l.writeDurable(journal.EncodeRawFrame(payload)); err != nil {
		return fmt.Errorf("shard: append shipped intent %d: %w", seq, err)
	}
	l.mu.Lock()
	l.nextSeq = seq + 1
	l.mu.Unlock()
	return nil
}

// LastSeq returns the highest sequence handed out so far (zero when the
// log is empty). On a standby's copy, which only ever takes shipped
// frames, that is the highest durable one — its hello watermark.
func (l *IntentLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// ReserveSeq claims the next sequence number under the lock and advances
// the counter, so concurrent callers always see distinct values; the
// coordinator derives transaction names from it so they stay unique
// across concurrent setups and restarts. A reserved sequence the crash
// never wrote is safe to re-issue after reopen: the transaction named
// from it sent nothing anywhere before its begin record was durable.
func (l *IntentLog) ReserveSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.nextSeq
	l.nextSeq++
	return seq
}

// Close writes out whatever is still queued, then closes the file.
func (l *IntentLog) Close() error {
	l.flush()
	return l.shut()
}

// shut closes the file without flushing first; records still queued —
// or queued by a caller racing the close — fail with a closed-log error.
func (l *IntentLog) shut() error {
	l.flushMu.Lock()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	f := l.f
	l.f = nil
	l.flushMu.Unlock()
	l.flush()
	if f == nil {
		return nil
	}
	return f.Close()
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
