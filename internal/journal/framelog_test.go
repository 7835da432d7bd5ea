package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// syncFS is the real filesystem with a counted, interceptable Sync on
// the files it opens: onSync, when set, runs first with the number of
// the call (from 1) and its error, if any, is the Sync's result.
type syncFS struct {
	OSFS
	syncs  atomic.Int64
	onSync func(n int64) error
}

type syncFile struct {
	File
	fs *syncFS
}

func (fs *syncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
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

// textFrame is a frame whose payload is its sequence and a name.
func textFrame(name string) *Frame {
	return &Frame{Encode: func(seq uint64) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"seq":%d,"name":%q}`, seq, name)), nil
	}}
}

// openText opens a frame log of textFrame payloads.
func openText(t *testing.T, fsys FS, path string) *FrameLog {
	t.Helper()
	l, _, _, err := OpenFrames(fsys, path, textSeq)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func textSeq(payload []byte) (uint64, error) {
	var seq uint64
	_, err := fmt.Sscanf(string(payload), `{"seq":%d,`, &seq)
	return seq, err
}

// fileSeqs scans the log file at path and returns its frames' sequences.
func fileSeqs(t *testing.T, path string) []uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if _, torn := ScanFrames(data, func(_, payload []byte) error {
		seq, err := textSeq(payload)
		seqs = append(seqs, seq)
		return err
	}); torn {
		t.Fatalf("%s has a torn tail", path)
	}
	return seqs
}

// queued returns how many frames wait in the log's pending group.
func queued(l *FrameLog) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == nil {
		return 0
	}
	return len(l.pending.frames)
}

// commitBehindHeldSync opens a log over fs, starts one synced commit
// whose fsync parks, and queues n more behind it — the group the next
// fsync will cover. It returns the log, each commit's frame (index 0 is
// the parked one), and the function that lets the first fsync go and
// waits for every commit to return. durable, when set, becomes every
// frame's Durable hook.
func commitBehindHeldSync(t *testing.T, fs *syncFS, path string, n int, durable func(uint64, []byte) error) (*FrameLog, []*Frame, func()) {
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
	l := openText(t, fs, path)
	frames := make([]*Frame, n+1)
	var wg sync.WaitGroup
	commit := func(i int) {
		defer wg.Done()
		_ = l.Commit(true, frames[i])
	}
	for i := range frames {
		frames[i] = textFrame(fmt.Sprintf("t%d", i))
		frames[i].Durable = durable
	}
	wg.Add(1)
	go commit(0)
	<-entered
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go commit(i)
	}
	for start := time.Now(); queued(l) != n; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("pending group holds %d frames, want %d", queued(l), n)
		}
	}
	return l, frames, func() { close(gate); wg.Wait() }
}

// TestGroupCommitCoalesces: commits arriving while an fsync is in flight
// share the next one, the file holds them in sequence order, and every
// one of them is there.
func TestGroupCommitCoalesces(t *testing.T) {
	fs := &syncFS{}
	path := filepath.Join(t.TempDir(), "log")
	l, frames, release := commitBehindHeldSync(t, fs, path, 31, nil)
	var groups []int
	l.SetObserver(func(st GroupStats) { groups = append(groups, len(st.Frames)) })
	release()
	for i, f := range frames {
		if f.Err != nil {
			t.Fatalf("commit %d: %v", i, f.Err)
		}
	}
	if got := fs.syncs.Load(); got != 2 {
		t.Fatalf("32 commits made %d fsyncs, want 2 (the parked one, then one for the 31 behind it)", got)
	}
	if len(groups) != 1 || groups[0] != 31 {
		t.Fatalf("observed groups %v, want [31]", groups)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs := fileSeqs(t, path)
	if len(seqs) != 32 {
		t.Fatalf("file holds %d frames, want 32", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("file position %d holds seq %d: file order is not sequence order", i, seq)
		}
	}
}

// TestGroupShipsAfterFsyncInOrder: the Durable hooks — where a record
// ships — see a group's frames only once its fsync returned, in sequence
// order, and a hook's refusal fails that frame's caller alone.
func TestGroupShipsAfterFsyncInOrder(t *testing.T) {
	fs := &syncFS{}
	const refused = 5
	type shipped struct {
		seq   uint64
		syncs int64
	}
	var ships []shipped
	l, frames, release := commitBehindHeldSync(t, fs, filepath.Join(t.TempDir(), "log"), 7,
		func(seq uint64, _ []byte) error {
			ships = append(ships, shipped{seq, fs.syncs.Load()})
			if seq == refused {
				return errors.New("no ack")
			}
			return nil
		})
	defer l.Close()
	release()
	if len(ships) != 8 {
		t.Fatalf("hooks saw %d frames, want 8", len(ships))
	}
	for i, s := range ships {
		want := int64(1)
		if i > 0 {
			want = 2
		}
		if s.seq != uint64(i+1) || s.syncs != want {
			t.Fatalf("ship %d carried seq %d after %d fsyncs, want seq %d after %d: before its group's fsync or out of order",
				i, s.seq, s.syncs, i+1, want)
		}
	}
	for i, f := range frames {
		switch {
		case f.seq == refused && f.Err == nil:
			t.Fatalf("refused seq %d returned no error", refused)
		case f.seq != refused && f.Err != nil:
			t.Fatalf("frame %d (seq %d) failed with its neighbour's refusal: %v", i, f.seq, f.Err)
		}
	}
}

// TestGroupFsyncFailureDropsWholeGroup: a failed group fsync fails every
// member with the same error and leaves none of their frames in the file
// — the records their callers were told never happened must not reach
// disk with some later fsync. The log is then out of service until it is
// reopened, and never hands the group's sequences out again.
func TestGroupFsyncFailureDropsWholeGroup(t *testing.T) {
	errDisk := errors.New("injected fsync failure")
	fs := &syncFS{onSync: func(n int64) error {
		if n == 2 {
			return errDisk
		}
		return nil
	}}
	path := filepath.Join(t.TempDir(), "log")
	l, frames, release := commitBehindHeldSync(t, fs, path, 3, nil)
	release()
	if frames[0].Err != nil {
		t.Fatalf("commit before the failure: %v", frames[0].Err)
	}
	for i := 1; i <= 3; i++ {
		if !errors.Is(frames[i].Err, errDisk) || frames[i].Err.Error() != frames[1].Err.Error() {
			t.Fatalf("group member %d returned %v, want the group's one error %v", i, frames[i].Err, frames[1].Err)
		}
	}
	if err := l.Commit(true, textFrame("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("commit after the failed group = %v, want ErrBroken", err)
	}
	if next := l.ReserveSeq(); next <= frames[3].seq {
		t.Fatalf("next sequence %d re-issues one the failed group burned (up to %d)", next, frames[3].seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openText(t, OSFS{}, path)
	defer reopened.Close()
	if seqs := fileSeqs(t, path); !reflect.DeepEqual(seqs, []uint64{1}) {
		t.Fatalf("reopened log holds seqs %v, want t0's alone", seqs)
	}
}

// TestLazyAppendRidesNextGroup: a lazily queued frame costs no fsync of
// its own, is written by the next group, and Close leaves nothing queued
// unwritten.
func TestLazyAppendRidesNextGroup(t *testing.T) {
	fs := &syncFS{}
	path := filepath.Join(t.TempDir(), "log")
	l := openText(t, fs, path)
	settled := make(chan error, 2)
	after := func(err error) { settled <- err }
	if err := l.QueueLazy(textFrame("a-done"), after); err != nil {
		t.Fatal(err)
	}
	if fs.syncs.Load() != 0 || queued(l) != 1 {
		t.Fatalf("lazy frame: %d fsyncs, %d queued; want 0 and 1", fs.syncs.Load(), queued(l))
	}
	if err := l.Commit(true, textFrame("b")); err != nil {
		t.Fatal(err)
	}
	if err := <-settled; err != nil {
		t.Fatalf("lazy frame's outcome: %v", err)
	}
	if fs.syncs.Load() != 1 {
		t.Fatalf("lazy frame and the commit behind it made %d fsyncs, want 1", fs.syncs.Load())
	}
	if err := l.QueueLazy(textFrame("b-done"), after); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-settled; err != nil {
		t.Fatalf("frame queued at Close: %v", err)
	}
	if seqs := fileSeqs(t, path); !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("file holds seqs %v, want a-done, b, b-done", seqs)
	}
	if err := l.Commit(true, textFrame("c")); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close = %v, want ErrClosed", err)
	}
}

// TestCatchUpUnderLoadNoGapNoDuplicate: a standby attaching while commits
// run gets every frame exactly once — the backlog read from the file
// between groups, the rest from the Durable hooks — with no sequence
// missed between the two and none delivered twice.
func TestCatchUpUnderLoadNoGapNoDuplicate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l := openText(t, OSFS{}, path)
	defer l.Close()
	var mu sync.Mutex
	var attached bool
	var delivered []uint64
	ship := func(seq uint64, _ []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if attached {
			delivered = append(delivered, seq)
		}
		return nil
	}
	const writers, perWriter = 8, 40
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := textFrame(fmt.Sprintf("w%d-%d", w, i))
				f.Durable = ship
				if err := l.Commit(true, f); err != nil {
					t.Error(err)
					return
				}
				committed.Add(1)
			}
		}(w)
	}
	for committed.Load() < writers*perWriter/4 {
		time.Sleep(time.Millisecond) // attach mid-stream, with a backlog to catch up
	}
	var backlog int
	err := l.Between(func() error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		ScanFrames(data, func(_, payload []byte) error {
			seq, err := textSeq(payload)
			delivered = append(delivered, seq)
			backlog++
			return err
		})
		mu.Lock()
		attached = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if backlog == 0 || backlog == writers*perWriter {
		t.Logf("catch-up carried %d of %d frames: the attach did not land mid-stream", backlog, writers*perWriter)
	}
	if len(delivered) != writers*perWriter {
		t.Fatalf("standby received %d frames, want %d", len(delivered), writers*perWriter)
	}
	for i, seq := range delivered {
		if seq != uint64(i+1) {
			t.Fatalf("delivery %d carried seq %d, want %d (gap, duplicate or reordering)", i, seq, i+1)
		}
	}
}

// TestFormatUnchanged pins the on-disk format: testdata/format.journal
// was written by the journal before its append path moved onto the
// shared FrameLog. The same records written now produce the same bytes,
// and the old file opens to the same records.
func TestFormatUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "format.journal"))
	if err != nil {
		t.Fatal(err)
	}
	req := core.ConnRequest{ID: "c1", Spec: traffic.VBR(0.3, 0.02, 4), Priority: 1, DelayBound: 40,
		Route: core.Route{{Switch: "ring00", In: 1, Out: 0}, {Switch: "ring01", In: 0, Out: 0}}}
	req2 := req
	req2.ID = "c2"
	recs := []Record{
		{Op: OpSetup, Epoch: 2, Request: &req},
		{Op: OpSetup, Epoch: 2, Request: &req2},
		{Op: OpFailLink, Epoch: 2, From: "ring00", To: "ring01", Evicted: []core.ConnID{"c1", "c2"}, Readmitted: []core.ConnRequest{req2}},
		{Op: OpRestoreLink, Epoch: 2, From: "ring00", To: "ring01"},
		{Op: OpTeardown, Epoch: 3, ID: "c2"},
		{Op: OpShardPrepare, Epoch: 3, Txn: "x9-c3", Request: &req, TTLMillis: 5000},
		{Op: OpShardCommit, Epoch: 3, Txn: "x9-c3", Request: &req},
		{Op: OpShardAbort, Epoch: 3, Txn: "x9-c3", ID: "c1"},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "new.journal")
	l, _, _, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs[:4] {
		if err := l.Append(&recs[i], true); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*Record{&recs[4], &recs[5], &recs[6], &recs[7]}
	if _, err := l.AppendAll(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frames differ from the established format:\n got %q\nwant %q", got, want)
	}
	old := filepath.Join(dir, "old.journal")
	if err := os.WriteFile(old, want, 0o600); err != nil {
		t.Fatal(err)
	}
	reopened, res, tornPath, err := Open(OSFS{}, old)
	if err != nil || tornPath != "" {
		t.Fatalf("open the established format: torn %q, err %v", tornPath, err)
	}
	defer reopened.Close()
	if !reflect.DeepEqual(res.Records, recs) {
		t.Fatalf("established format opens to\n%+v\nwant\n%+v", res.Records, recs)
	}
	if reopened.LastSeq() != uint64(len(recs)) {
		t.Fatalf("LastSeq %d, want %d", reopened.LastSeq(), len(recs))
	}
}

// FuzzScanFrames hammers the one frame scanner every log shares. It must
// never panic or read past the data, must report torn exactly when it
// stopped short, and must satisfy the prefix property: the valid prefix
// re-scans to the same frames with no torn tail, and a visit that
// rejects nothing sees each frame's payload intact under its checksum.
func FuzzScanFrames(f *testing.F) {
	one, two := EncodeRawFrame([]byte(`{"seq":1}`)), EncodeRawFrame([]byte(`{"seq":2,"op":"x"}`))
	full := append(append([]byte{}, one...), two...)
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:len(one)+3])
	f.Add(append(full, 0xff, 0x00, 0x01))
	corrupted := append([]byte{}, full...)
	corrupted[len(one)+9] ^= 0x40
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		valid, torn := ScanFrames(data, func(frame, payload []byte) error {
			if !bytes.Equal(EncodeRawFrame(payload), frame) {
				t.Fatalf("frame %x does not re-encode from its payload", frame)
			}
			frames = append(frames, frame)
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of [0, %d]", valid, len(data))
		}
		if torn != (valid != int64(len(data))) {
			t.Fatalf("torn=%v but valid=%d of %d", torn, valid, len(data))
		}
		var again [][]byte
		validAgain, tornAgain := ScanFrames(data[:valid], func(frame, _ []byte) error {
			again = append(again, frame)
			return nil
		})
		if tornAgain || validAgain != valid || !reflect.DeepEqual(again, frames) {
			t.Fatalf("valid prefix not stable: %d/%v vs %d/%v", validAgain, tornAgain, valid, torn)
		}
		// A rejecting visit ends the valid prefix at the rejected frame.
		if len(frames) > 0 {
			cut, cutTorn := ScanFrames(data, func(frame, _ []byte) error {
				if &frame[0] == &frames[len(frames)-1][0] {
					return errors.New("reject")
				}
				return nil
			})
			if !cutTorn || cut != valid-int64(len(frames[len(frames)-1])) {
				t.Fatalf("rejecting the last frame ended the scan at %d (torn=%v), want %d", cut, cutTorn, valid-int64(len(frames[len(frames)-1])))
			}
		}
	})
}
