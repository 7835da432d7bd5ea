package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/journal"
)

// syncFS is the real filesystem with a counted, interceptable Sync on
// the files it opens: onSync, when set, runs first with the number of
// the call (from 1) and its error, if any, is the Sync's result.
type syncFS struct {
	journal.OSFS
	syncs  atomic.Int64
	onSync func(n int64) error
}

type syncFile struct {
	journal.File
	fs *syncFS
}

func (fs *syncFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: fs}, nil
}

func (f *syncFile) Sync() error {
	n := f.fs.syncs.Add(1)
	if f.fs.onSync != nil {
		if err := f.fs.onSync(n); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// queued returns how many records wait in the log's pending group.
func queued(l *IntentLog) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == nil {
		return 0
	}
	return len(l.pending.members)
}

// waitQueued blocks until n records wait in the pending group.
func waitQueued(t *testing.T, l *IntentLog, n int) {
	t.Helper()
	for start := time.Now(); queued(l) != n; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("pending group holds %d records, want %d", queued(l), n)
		}
	}
}

// appendBehindHeldSync opens a log over fs, starts one Append whose
// fsync parks, and queues n more behind it — the group the next fsync
// will cover. It returns the log, each append's record and outcome
// (index 0 is the parked one), and the function that lets the first
// fsync go and waits for every append to return.
func appendBehindHeldSync(t *testing.T, fs *syncFS, path string, n int) (*IntentLog, []IntentRecord, []error, func()) {
	t.Helper()
	entered, gate := make(chan struct{}), make(chan struct{})
	inner := fs.onSync
	fs.onSync = func(k int64) error {
		if k == 1 {
			close(entered)
			<-gate
			return nil
		}
		if inner != nil {
			return inner(k)
		}
		return nil
	}
	log, _, _, err := OpenIntentLog(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]IntentRecord, n+1)
	errs := make([]error, n+1)
	var wg sync.WaitGroup
	appendOne := func(i int) {
		defer wg.Done()
		recs[i] = IntentRecord{State: IntentBegin, Txn: fmt.Sprintf("t%d", i)}
		errs[i] = log.Append(&recs[i])
	}
	wg.Add(1)
	go appendOne(0)
	<-entered
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go appendOne(i)
	}
	waitQueued(t, log, n)
	return log, recs, errs, func() { close(gate); wg.Wait() }
}

// TestIntentGroupCommitCoalesces: appends arriving while an fsync is in
// flight share the next one, the file holds them in sequence order, and
// every one of them is there.
func TestIntentGroupCommitCoalesces(t *testing.T) {
	fs := &syncFS{}
	path := filepath.Join(t.TempDir(), "intent")
	log, _, errs, release := appendBehindHeldSync(t, fs, path, 31)
	var groups []int
	log.setGroupObserver(func(records int, _ time.Duration) { groups = append(groups, records) })
	release()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := fs.syncs.Load(); got != 2 {
		t.Fatalf("32 appends made %d fsyncs, want 2 (the parked one, then one for the 31 behind it)", got)
	}
	if len(groups) != 1 || groups[0] != 31 {
		t.Fatalf("observed groups %v, want [31]", groups)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := ScanIntentFrames(data)
	if torn || len(recs) != 32 {
		t.Fatalf("scan: %d records, torn=%v; want 32", len(recs), torn)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("file position %d holds seq %d: file order is not sequence order", i, rec.Seq)
		}
	}
}

// TestIntentGroupShipsAfterFsyncInOrder: the shipper sees a group's
// records only once their fsync returned, in sequence order, and a
// record the standby does not acknowledge fails that record's caller
// alone.
func TestIntentGroupShipsAfterFsyncInOrder(t *testing.T) {
	fs := &syncFS{}
	log, recs, errs, release := appendBehindHeldSync(t, fs, filepath.Join(t.TempDir(), "intent"), 7)
	defer log.Close()
	const refused = 5
	type shipped struct {
		seq   uint64
		syncs int64
	}
	var ships []shipped
	log.SetShipper(func(seq uint64, payload []byte) error {
		ships = append(ships, shipped{seq, fs.syncs.Load()})
		if seq == refused {
			return errors.New("no ack")
		}
		return nil
	})
	release()
	if len(ships) != 7 {
		// The parked group froze its (nil) shipper before this one was
		// installed; the seven behind it ship.
		t.Fatalf("shipper saw %d records, want 7", len(ships))
	}
	for i, s := range ships {
		if s.seq != uint64(i+2) {
			t.Fatalf("ship %d carried seq %d, want %d", i, s.seq, i+2)
		}
		if s.syncs != 2 {
			t.Fatalf("seq %d shipped after %d fsyncs, want 2: before its group's", s.seq, s.syncs)
		}
	}
	for i, err := range errs {
		switch {
		case recs[i].Seq == refused && !errors.Is(err, ErrNotReplicated):
			t.Fatalf("unacknowledged seq %d returned %v, want ErrNotReplicated", refused, err)
		case recs[i].Seq != refused && err != nil:
			t.Fatalf("seq %d failed with its neighbour's refusal: %v", recs[i].Seq, err)
		}
	}
}

// TestIntentGroupFsyncFailureDropsWholeGroup: a failed group fsync fails
// every member with the same error, leaves none of their frames in the
// file — the decision records their callers were told never happened
// must not reach disk with the next successful fsync — and never hands
// their sequences out again.
func TestIntentGroupFsyncFailureDropsWholeGroup(t *testing.T) {
	errDisk := errors.New("injected fsync failure")
	fs := &syncFS{onSync: func(n int64) error {
		if n == 2 {
			return errDisk
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "intent")
	log, recs, errs, release := appendBehindHeldSync(t, fs, path, 3)
	release()
	if errs[0] != nil {
		t.Fatalf("append before the failure: %v", errs[0])
	}
	for i := 1; i <= 3; i++ {
		if !errors.Is(errs[i], errDisk) || errs[i].Error() != errs[1].Error() {
			t.Fatalf("group member %d returned %v, want the group's one error %v", i, errs[i], errs[1])
		}
	}
	next := IntentRecord{State: IntentBegin, Txn: "after"}
	if err := log.Append(&next); err != nil {
		t.Fatalf("append after the failed group: %v", err)
	}
	for i := range recs {
		if next.Seq <= recs[i].Seq {
			t.Fatalf("append after the failure took seq %d, already handed to %q (seq %d)", next.Seq, recs[i].Txn, recs[i].Seq)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, got, torn, err := OpenIntentLog(nil, path)
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	defer reopened.Close()
	if len(got) != 2 || got[0].Txn != "t0" || got[1].Txn != "after" {
		t.Fatalf("reopened log holds %+v, want t0 and the append after the failure only", got)
	}
}

// TestIntentLazyAppendRidesNextGroup: a lazily queued record costs no
// fsync of its own, is written by the next group commit, and Close
// leaves nothing queued unwritten.
func TestIntentLazyAppendRidesNextGroup(t *testing.T) {
	fs := &syncFS{}
	path := filepath.Join(t.TempDir(), "intent")
	log, _, _, err := OpenIntentLog(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	settled := make(chan error, 2)
	after := func(err error) { settled <- err }
	if err := log.appendLazy(&IntentRecord{State: IntentDone, Txn: "a"}, after); err != nil {
		t.Fatal(err)
	}
	if fs.syncs.Load() != 0 || queued(log) != 1 {
		t.Fatalf("lazy append: %d fsyncs, %d queued; want 0 and 1", fs.syncs.Load(), queued(log))
	}
	if err := log.Append(&IntentRecord{State: IntentBegin, Txn: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := <-settled; err != nil {
		t.Fatalf("lazy record's outcome: %v", err)
	}
	if fs.syncs.Load() != 1 {
		t.Fatalf("lazy record and the append behind it made %d fsyncs, want 1", fs.syncs.Load())
	}
	if err := log.appendLazy(&IntentRecord{State: IntentDone, Txn: "b"}, after); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-settled; err != nil {
		t.Fatalf("record queued at Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := ScanIntentFrames(data)
	if torn || len(recs) != 3 || recs[0].Txn != "a" || recs[2].State != IntentDone {
		t.Fatalf("file holds %+v (torn=%v), want a-done, b-begin, b-done", recs, torn)
	}
	if err := log.Append(&IntentRecord{State: IntentBegin, Txn: "c"}); !errors.Is(err, errIntentLogClosed) {
		t.Fatalf("append after Close = %v, want errIntentLogClosed", err)
	}
}

// TestIntentPrimaryCatchUpUnderLoadNoGapNoDuplicate: a standby attaching
// while appends run gets every record exactly once — the backlog from the
// file, the rest from live shipping — with no sequence missed between
// the two and none delivered twice.
func TestIntentPrimaryCatchUpUnderLoadNoGapNoDuplicate(t *testing.T) {
	log, _, _, err := OpenIntentLog(nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var mu sync.Mutex
	var attached bool
	var delivered []uint64
	log.SetShipper(func(seq uint64, _ []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if attached {
			delivered = append(delivered, seq)
		}
		return nil
	})
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	var appended atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := IntentRecord{State: IntentBegin, Txn: fmt.Sprintf("w%d-%d", w, i)}
				if err := log.Append(&rec); err != nil {
					t.Error(err)
					return
				}
				appended.Add(1)
			}
		}(w)
	}
	for appended.Load() < writers*perWriter/4 {
		time.Sleep(time.Millisecond) // attach mid-stream, with a backlog to catch up
	}
	var backlog int
	err = log.CatchUp(0,
		func(seq uint64, _ []byte) error {
			mu.Lock()
			delivered = append(delivered, seq)
			mu.Unlock()
			backlog++
			return nil
		},
		func() {
			mu.Lock()
			attached = true
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if backlog == 0 || backlog == writers*perWriter {
		t.Logf("catch-up carried %d of %d records: the attach did not land mid-stream", backlog, writers*perWriter)
	}
	if len(delivered) != writers*perWriter {
		t.Fatalf("standby received %d records, want %d", len(delivered), writers*perWriter)
	}
	for i, seq := range delivered {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d, want %d (gap, duplicate or reordering)", i, seq, i+1)
		}
	}
}
