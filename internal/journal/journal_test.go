package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

func testRequest(id string) core.ConnRequest {
	return core.ConnRequest{
		ID:       core.ConnID(id),
		Spec:     traffic.CBR(0.05),
		Priority: 1,
		Route: core.Route{
			{Switch: "ring00", In: 1, Out: 0},
			{Switch: "ring01", In: 0, Out: 0},
		},
	}
}

// encodeFrame renders one record as a complete frame, as a Log writes it.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return EncodeRawFrame(payload), nil
}

func TestFrameRoundTrip(t *testing.T) {
	req := testRequest("a")
	recs := []Record{
		{Seq: 1, Op: OpSetup, Request: &req},
		{Seq: 2, Op: OpTeardown, ID: "a"},
		{Seq: 3, Op: OpFailLink, From: "ring00", To: "ring01",
			Evicted: []core.ConnID{"a", "b"}, Readmitted: []core.ConnRequest{req}},
		{Seq: 4, Op: OpRestoreLink, From: "ring00", To: "ring01"},
	}
	var image []byte
	for _, rec := range recs {
		frame, err := encodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		image = append(image, frame...)
	}
	res := ScanBytes(image)
	if res.Torn {
		t.Fatal("clean image scanned as torn")
	}
	if res.Valid != int64(len(image)) {
		t.Fatalf("Valid = %d, want %d", res.Valid, len(image))
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(res.Records), len(recs))
	}
	for i, rec := range res.Records {
		if rec.Seq != recs[i].Seq || rec.Op != recs[i].Op {
			t.Errorf("record %d = %+v, want %+v", i, rec, recs[i])
		}
	}
	if res.Records[2].Readmitted[0].ID != "a" || len(res.Records[2].Evicted) != 2 {
		t.Errorf("fail-link payload mangled: %+v", res.Records[2])
	}
}

func TestScanBytesStopsAtDamage(t *testing.T) {
	req := testRequest("a")
	good, err := encodeFrame(Record{Seq: 1, Op: OpSetup, Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	second, err := encodeFrame(Record{Seq: 2, Op: OpTeardown, ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated header", append(append([]byte(nil), good...), second[:4]...)},
		{"truncated payload", append(append([]byte(nil), good...), second[:len(second)-3]...)},
		{"flipped payload byte", func() []byte {
			d := append(append([]byte(nil), good...), second...)
			d[len(good)+9] ^= 0xff
			return d
		}()},
		{"oversized length", func() []byte {
			d := append([]byte(nil), good...)
			return append(d, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := ScanBytes(tc.data)
			if !res.Torn {
				t.Fatal("damage not reported as torn")
			}
			if res.Valid != int64(len(good)) {
				t.Fatalf("Valid = %d, want %d", res.Valid, len(good))
			}
			if len(res.Records) != 1 || res.Records[0].Seq != 1 {
				t.Fatalf("records = %+v, want only seq 1", res.Records)
			}
		})
	}
}

func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	req := testRequest("a")
	frame, err := encodeFrame(Record{Seq: 1, Op: OpSetup, Request: &req})
	if err != nil {
		t.Fatal(err)
	}
	image := append(append([]byte(nil), frame...), []byte("torn-residue")...)
	if err := os.WriteFile(path, image, 0o600); err != nil {
		t.Fatal(err)
	}
	log, res, tornPath, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if tornPath != path+".torn" {
		t.Fatalf("tornPath = %q, want %q", tornPath, path+".torn")
	}
	evidence, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(evidence) != string(image) {
		t.Error("torn evidence does not preserve the damaged image")
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(repaired)) != res.Valid || res.Valid != int64(len(frame)) {
		t.Fatalf("repaired length %d, scan valid %d, want %d", len(repaired), res.Valid, len(frame))
	}
	// A second tear must get a fresh evidence path, not overwrite the first.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, image, 0o600); err != nil {
		t.Fatal(err)
	}
	log2, _, tornPath2, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if tornPath2 != path+".torn.1" {
		t.Fatalf("second tornPath = %q, want %q", tornPath2, path+".torn.1")
	}
}

func TestAppendSequencesAndReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	log, _, _, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("a")
	for i := 0; i < 3; i++ {
		if err := log.Append(&Record{Op: OpSetup, Request: &req}, true); err != nil {
			t.Fatal(err)
		}
	}
	if log.Count() != 3 || log.LastSeq() != 3 {
		t.Fatalf("count=%d lastSeq=%d, want 3 and 3", log.Count(), log.LastSeq())
	}
	if err := log.Reset(); err != nil {
		t.Fatal(err)
	}
	if log.Count() != 0 || log.Size() != 0 {
		t.Fatalf("after reset: count=%d size=%d", log.Count(), log.Size())
	}
	// Sequence numbers keep counting across the reset — the snapshot
	// watermark depends on it.
	rec := Record{Op: OpTeardown, ID: "a"}
	if err := log.Append(&rec, false); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 4 {
		t.Fatalf("post-reset seq = %d, want 4", rec.Seq)
	}
	// Reopen resumes past the highest on-disk sequence.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	log2, res, _, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(res.Records) != 1 || res.Records[0].Seq != 4 {
		t.Fatalf("reopened records = %+v", res.Records)
	}
	next := Record{Op: OpTeardown, ID: "b"}
	if err := log2.Append(&next, false); err != nil {
		t.Fatal(err)
	}
	if next.Seq != 5 {
		t.Fatalf("reopened next seq = %d, want 5", next.Seq)
	}
}

// failFile fails writes/syncs/truncates on demand to drive Append's
// self-heal path.
type failFile struct {
	File
	failWrite, failTruncate, failSync bool
}

type errString string

func (e errString) Error() string { return string(e) }

func (f *failFile) Write(p []byte) (int, error) {
	if f.failWrite {
		// Model a partial write: half the frame lands, then the disk dies.
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errString("disk died")
	}
	return f.File.Write(p)
}

func (f *failFile) Truncate(size int64) error {
	if f.failTruncate {
		return errString("disk died")
	}
	return f.File.Truncate(size)
}

func (f *failFile) Sync() error {
	if f.failSync {
		return errString("disk died")
	}
	return f.File.Sync()
}

type failFS struct {
	FS
	file *failFile
}

func (f *failFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.file = &failFile{File: inner}
	return f.file, nil
}

func TestAppendHealsPartialWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	fsys := &failFS{FS: OSFS{}}
	log, _, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("a")
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err != nil {
		t.Fatal(err)
	}
	good := log.Size()
	fsys.file.failWrite = true
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err == nil {
		t.Fatal("append with dying disk succeeded")
	}
	fsys.file.failWrite = false
	// The partial frame was truncated away; the log keeps accepting.
	if log.Size() != good {
		t.Fatalf("size after heal = %d, want %d", log.Size(), good)
	}
	rec := Record{Op: OpTeardown, ID: "a"}
	if err := log.Append(&rec, false); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) != 2 {
		t.Fatalf("scan after heal: torn=%v records=%d, want clean 2", res.Torn, len(res.Records))
	}
}

func TestAppendMarksBrokenWhenHealFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	fsys := &failFS{FS: OSFS{}}
	log, _, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("a")
	fsys.file.failWrite = true
	fsys.file.failTruncate = true
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err == nil {
		t.Fatal("append with dying disk succeeded")
	}
	fsys.file.failWrite = false
	fsys.file.failTruncate = false
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("append on broken log = %v, want ErrBroken", err)
	}
	if err := log.Reset(); err == nil {
		t.Fatal("reset on broken log succeeded")
	}
}

// A failed fsync breaks the log for good: on Linux the failure can drop
// the dirty pages while clearing the kernel error state, so a later
// successful fsync on the same fd proves nothing about earlier content.
// The log must refuse further appends until reopened.
func TestAppendSyncFailureBreaksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	fsys := &failFS{FS: OSFS{}}
	log, _, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("a")
	fsys.file.failSync = true
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, true); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	fsys.file.failSync = false
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, true); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("append after fsync failure = %v, want ErrBroken", err)
	}
	// The unsynced frame was healed away, so a rescan after reopen sees a
	// clean, empty log rather than a record the caller was told failed.
	res, err := ScanFile(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || len(res.Records) != 0 {
		t.Fatalf("scan after fsync failure: torn=%v records=%d, want clean 0", res.Torn, len(res.Records))
	}
}

// Reset must account for a successful Truncate(0) even when the fsync
// behind it fails: with stale size/count a later heal() would truncate to
// the old (too large) offset and leave a torn frame mid-file, silently
// ending replay early. The partial reset also breaks the log — the
// truncate's durability is unknown.
func TestResetSyncFailureKeepsSizeAccurate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	fsys := &failFS{FS: OSFS{}}
	log, _, _, err := Open(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("a")
	for i := 0; i < 3; i++ {
		if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err != nil {
			t.Fatal(err)
		}
	}
	fsys.file.failSync = true
	if err := log.Reset(); err == nil {
		t.Fatal("reset with failing fsync succeeded")
	}
	fsys.file.failSync = false
	if log.Size() != 0 || log.Count() != 0 {
		t.Fatalf("size/count after partial reset = %d/%d, want 0/0", log.Size(), log.Count())
	}
	if err := log.Append(&Record{Op: OpSetup, Request: &req}, false); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("append after partial reset = %v, want ErrBroken", err)
	}
}

func TestEvidencePathCounts(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "f.corrupt")
	if got := EvidencePath(OSFS{}, base); got != base {
		t.Fatalf("fresh evidence path = %q, want %q", got, base)
	}
	if err := os.WriteFile(base, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := EvidencePath(OSFS{}, base); got != base+".1" {
		t.Fatalf("second evidence path = %q, want %q", got, base+".1")
	}
	if err := os.WriteFile(base+".1", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := EvidencePath(OSFS{}, base); got != base+".2" {
		t.Fatalf("third evidence path = %q, want %q", got, base+".2")
	}
}
