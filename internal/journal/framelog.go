package journal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// ErrClosed reports an append to a log that was closed.
var ErrClosed = errors.New("journal: log closed")

// Frame is one payload queued on a FrameLog.
type Frame struct {
	// Encode renders the payload once the log has assigned the frame its
	// sequence, so a record can carry its own sequence number.
	Encode func(seq uint64) ([]byte, error)
	// Durable, when set, runs on the group's leader once the frame is
	// written (durable, in a synced group), in sequence order with other
	// groups excluded: the hook that ships a record, or folds it into
	// state a compaction between groups must find complete. Its error
	// becomes the frame's.
	Durable func(seq uint64, payload []byte) error
	// Err is the frame's outcome, final once its group is done.
	Err error

	seq   uint64
	frame []byte
	after func(error)
}

// GroupStats describes one group write to an observer.
type GroupStats struct {
	// Frames holds each frame's length in bytes, in sequence order.
	Frames []int
	// Write is how long the group's one Write took, Fsync how long its
	// fsync took; Synced reports that an fsync was attempted.
	Write, Fsync time.Duration
	Synced       bool
	// Err failed the whole group; nil when every frame is on disk.
	Err error
}

// FrameLog is the append-only frame file under every record schema —
// the admission journal and the coordinator's intent log — and its one
// group commit. Callers queue encoded frames; the first waiting member of
// a group, its leader, writes the whole group with one Write, fsyncs once
// if any member asked to, then runs the members' Durable hooks in
// sequence order. Frames queued meanwhile form the next group, so
// coalescing comes from the fsync latency itself: no timer, no goroutine.
//
// A failed write or fsync cuts the file back, fails every member of the
// group with the same error, and never reuses the group's sequences. A
// failed fsync also takes the log out of service until it is reopened
// (ErrBroken): the kernel may have dropped the dirty pages while clearing
// its error state, so no later fsync through this handle proves anything.
type FrameLog struct {
	// mu guards the queue side, plus size and count, which change only
	// under both locks so either one reads them. Never held across I/O.
	mu      sync.Mutex
	next    uint64 // the next sequence to assign
	written uint64 // the highest sequence handed to a write (see LastSeq)
	size    int64
	count   int
	pending *group
	closed  bool
	observe func(GroupStats)

	// flushMu is held across one group's write, fsync and hooks, so groups
	// reach the file in sequence order; Between takes it to run between
	// groups. It guards the file side below and is taken before mu.
	flushMu     sync.Mutex
	f           File
	synced      int64 // the durable prefix a failed fsync cuts back to
	syncedCount int
	broken      bool
}

// group is one group-commit generation: the frames the next write will
// carry, in sequence order.
type group struct {
	frames []*Frame
	sync   bool
	led    bool          // some caller has committed to flushing it
	done   chan struct{} // closed once every member's Err is final
}

// OpenFrames scans the log at path, repairs a torn tail — the damaged
// file is first copied to a fresh EvidencePath(path+".torn"), then cut at
// the last valid frame — and opens it for appending. decode returns the
// sequence a valid frame's payload carries; an error ends the valid
// prefix there. It returns the valid length and, after a repair, the
// evidence path.
func OpenFrames(fsys FS, path string, decode func(payload []byte) (uint64, error)) (*FrameLog, int64, string, error) {
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, "", fmt.Errorf("journal: read %s: %w", path, err)
	}
	l := &FrameLog{next: 1}
	valid, torn := ScanFrames(data, func(_, payload []byte) error {
		seq, err := decode(payload)
		if err != nil {
			return err
		}
		if seq >= l.next {
			l.next = seq + 1
		}
		l.count++
		return nil
	})
	tornPath := ""
	if torn {
		tornPath = EvidencePath(fsys, path+".torn")
		if err := fsys.WriteFile(tornPath, data, 0o600); err != nil {
			return nil, valid, "", fmt.Errorf("journal: preserve torn tail: %w", err)
		}
		if err := fsys.Truncate(path, valid); err != nil {
			return nil, valid, tornPath, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if l.f, err = fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600); err != nil {
		return nil, valid, tornPath, fmt.Errorf("journal: open %s: %w", path, err)
	}
	l.written = l.next - 1
	l.size, l.synced, l.syncedCount = valid, valid, l.count
	return l, valid, tornPath, nil
}

// Queue assigns frames consecutive sequences, encodes them and queues
// them as one unit, which shares a group: written, or failed, together.
// wait returns once the group is done — flushing it first if this unit
// leads it — with each frame's outcome in its Err, returning the first
// failure. sync asks for the group's fsync.
func (l *FrameLog) Queue(sync bool, frames ...*Frame) (wait func() error, err error) {
	return l.enqueue(sync, 0, frames)
}

// Commit is Queue followed by wait.
func (l *FrameLog) Commit(sync bool, frames ...*Frame) error {
	wait, err := l.Queue(sync, frames...)
	if err != nil {
		return err
	}
	return wait()
}

// QueueLazy queues f without waiting or leading: it rides the next group
// a waiting caller, Flush or Close writes, synced. after receives f's
// outcome on the flushing goroutine with no lock held. Only a record
// whose loss recovery tolerates may be written this way.
func (l *FrameLog) QueueLazy(f *Frame, after func(error)) error {
	f.after = after
	_, err := l.enqueue(true, 0, []*Frame{f})
	return err
}

// AppendAt writes payload as one frame under seq, the sequence a primary
// assigned it — the standby's append, byte-identical to the primary's
// file. A seq below the next sequence is a redelivery and is skipped
// (appended is false); sequences may jump forward, since primaries burn
// and reserve them.
func (l *FrameLog) AppendAt(seq uint64, payload []byte, sync bool, durable func(seq uint64, payload []byte) error) (appended bool, err error) {
	if seq == 0 { // never assigned, so below every next sequence
		return false, nil
	}
	f := &Frame{Encode: func(uint64) ([]byte, error) { return payload, nil }, Durable: durable}
	wait, err := l.enqueue(sync, seq, []*Frame{f})
	if err != nil || wait == nil {
		return false, err
	}
	return true, wait()
}

// enqueue is the one queueing path: at zero assigns the next sequences,
// a nonzero at places one frame there, or skips it (no wait) if stale.
func (l *FrameLog) enqueue(sync bool, at uint64, frames []*Frame) (func() error, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	first := l.next
	if at != 0 {
		if at < l.next {
			return nil, nil
		}
		first = at
	}
	for i, f := range frames {
		f.seq = first + uint64(i)
		payload, err := f.Encode(f.seq)
		if err != nil {
			return nil, fmt.Errorf("journal: encode seq %d: %w", f.seq, err)
		}
		if len(payload) > MaxRecordBytes {
			return nil, fmt.Errorf("journal: record seq %d exceeds %d bytes", f.seq, MaxRecordBytes)
		}
		f.frame = EncodeRawFrame(payload)
	}
	// Taken for good, whatever happens to the write: one open log never
	// hands a sequence out twice.
	l.next = first + uint64(len(frames))
	g := l.pending
	if g == nil {
		g = &group{done: make(chan struct{})}
		l.pending = g
	}
	g.frames = append(g.frames, frames...)
	g.sync = g.sync || sync
	leads := frames[0].after == nil && !g.led
	if leads {
		g.led = true
	}
	return func() error {
		if leads {
			l.flush(g)
		}
		<-g.done
		for _, f := range frames {
			if f.Err != nil {
				return f.Err
			}
		}
		return nil
	}, nil
}

// flush writes g as its leader: freeze the membership, write, then run
// the Durable hooks in sequence order before the next group may start.
func (l *FrameLog) flush(g *group) {
	l.flushMu.Lock()
	l.mu.Lock()
	l.pending = nil // g, necessarily: a group stays pending until its one leader freezes it here
	observe := l.observe
	l.mu.Unlock()
	st := l.write(g)
	if observe != nil {
		observe(st)
	}
	for _, f := range g.frames {
		f.Err = st.Err
		if f.Err == nil && f.Durable != nil {
			f.Err = f.Durable(f.seq, f.frame[frameHeaderLen:])
		}
	}
	l.flushMu.Unlock()
	close(g.done)
	for _, f := range g.frames {
		if f.after != nil {
			f.after(f.Err)
		}
	}
}

// write appends g's frames with one Write and, when asked, one fsync;
// the caller holds flushMu. A failed write cuts the file back to its
// length before the write; a failed fsync cuts it back to the durable
// prefix. Either way a cut that fails, or a failed fsync, takes the log
// out of service.
func (l *FrameLog) write(g *group) (st GroupStats) {
	var buf []byte
	for _, f := range g.frames {
		st.Frames = append(st.Frames, len(f.frame))
		buf = append(buf, f.frame...)
	}
	l.mu.Lock()
	// Covered by LastSeq even if the write fails: a snapshot watermark must
	// cover every frame that could be on disk.
	if last := g.frames[len(g.frames)-1].seq; last > l.written {
		l.written = last
	}
	l.mu.Unlock()
	switch {
	case l.f == nil:
		st.Err = ErrClosed
		return st
	case l.broken:
		st.Err = ErrBroken
		return st
	}
	start := time.Now()
	if _, err := l.f.Write(buf); err != nil {
		st.Err = fmt.Errorf("journal: write of %d frames: %w", len(g.frames), err)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = true
		}
		return st
	}
	st.Write = time.Since(start)
	l.mu.Lock()
	l.size += int64(len(buf))
	l.count += len(g.frames)
	l.mu.Unlock()
	if !g.sync {
		return st
	}
	st.Synced = true
	start = time.Now()
	err := l.f.Sync()
	st.Fsync = time.Since(start)
	if err != nil {
		st.Err = fmt.Errorf("journal: sync of %d frames: %w", len(g.frames), err)
		l.dropUnsynced()
		return st
	}
	l.synced, l.syncedCount = l.size, l.count
	return st
}

// dropUnsynced takes the log out of service and cuts the file back to the
// durable prefix; the caller holds flushMu. If even the cut fails, the
// next open rescans the file.
func (l *FrameLog) dropUnsynced() {
	l.broken = true
	if err := l.f.Truncate(l.synced); err == nil {
		l.mu.Lock()
		l.size, l.count = l.synced, l.syncedCount
		l.mu.Unlock()
	}
}

// Sync fsyncs every frame written unsynced, with a synced group's
// failure policy.
func (l *FrameLog) Sync() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	switch {
	case l.f == nil:
		return ErrClosed
	case l.broken:
		return ErrBroken
	case l.size == l.synced:
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.dropUnsynced()
		return fmt.Errorf("journal: sync: %w", err)
	}
	l.synced, l.syncedCount = l.size, l.count
	return nil
}

// Between runs fn between groups: every group flushed so far is written
// and its hooks have run, and none starts until fn returns. Compaction,
// standby catch-up and state installs run here.
func (l *FrameLog) Between(fn func() error) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return fn()
}

// Flush writes whatever is queued, lazy frames included, and waits.
func (l *FrameLog) Flush() {
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
		l.flush(g)
	}
	<-g.done
}

// Reset empties the log after its frames were folded into a snapshot.
// Sequences keep counting: the snapshot's watermark, not the truncation,
// makes old frames inert. With appends in flight, call it inside Between.
func (l *FrameLog) Reset() error {
	switch {
	case l.f == nil:
		return ErrClosed
	case l.broken:
		return ErrBroken
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	// Record the empty file before the fsync: a stale size would let a
	// later failed write cut back to it, leaving a torn frame mid-file.
	l.mu.Lock()
	l.size, l.count = 0, 0
	l.mu.Unlock()
	l.synced, l.syncedCount = 0, 0
	if err := l.f.Sync(); err != nil {
		l.broken = true
		return fmt.Errorf("journal: reset sync: %w", err)
	}
	return nil
}

// LastSeq returns the highest sequence handed to a write (or skipped by
// SetNextSeq): every frame that can be in the file is at or below it, as
// a snapshot watermark requires. Queued frames are above it.
func (l *FrameLog) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// ReserveSeq claims the next sequence without writing a frame, so
// concurrent callers always see distinct values.
func (l *FrameLog) ReserveSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.next
	l.next++
	return seq
}

// SetNextSeq raises the next sequence, never lowering it, so recovery can
// place it past a snapshot watermark that outruns the scanned frames.
func (l *FrameLog) SetNextSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.next {
		l.next = seq
		l.written = max(l.written, seq-1)
	}
}

// ForceNextSeq adopts seq as the next sequence even when lower than the
// current one. Only a full replication resync may do this: the node is
// discarding its entire log (Reset) and taking over the primary's
// numbering, so its own — possibly higher, never-acked — history no
// longer exists to collide with. Anywhere else, lowering the counter
// would re-issue sequences and break replay idempotency; use SetNextSeq.
func (l *FrameLog) ForceNextSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next, l.written = seq, seq-1
}

// Size returns the log's current length in bytes.
func (l *FrameLog) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Count returns the number of frames written since the last Reset.
func (l *FrameLog) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// SetObserver installs a callback every group's leader calls after its
// write, keeping the log free of metrics dependencies. nil disables.
func (l *FrameLog) SetObserver(fn func(GroupStats)) {
	l.mu.Lock()
	l.observe = fn
	l.mu.Unlock()
}

// MarkBroken takes the log out of service until it is reopened, as a
// failed fsync does.
func (l *FrameLog) MarkBroken() {
	l.flushMu.Lock()
	l.broken = true
	l.flushMu.Unlock()
}

// Close writes out whatever is still queued, then closes the file.
func (l *FrameLog) Close() error {
	l.Flush()
	return l.Drop()
}

// Drop closes the file without writing what is queued, as a process
// death would: queued frames fail with ErrClosed.
func (l *FrameLog) Drop() error {
	l.flushMu.Lock()
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	f := l.f
	l.f = nil
	l.flushMu.Unlock()
	l.Flush()
	if f == nil {
		return nil
	}
	return f.Close()
}
