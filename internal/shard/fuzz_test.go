package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/traffic"
)

// encodeIntentFrame mirrors IntentLog.Append's framing for seeds.
func encodeIntentFrame(t testing.TB, rec IntentRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return journal.EncodeRawFrame(payload)
}

// scanIntents decodes an intent-log image the way OpenIntentLog does:
// the journal's one frame scanner with the intent schema.
func scanIntents(data []byte) (recs []IntentRecord, valid int64, torn bool) {
	valid, torn = journal.ScanFrames(data, func(_, payload []byte) error {
		rec, err := decodeIntent(payload)
		if err == nil {
			recs = append(recs, rec)
		}
		return err
	})
	return recs, valid, torn
}

// FuzzShardPrepareDecode hammers the intent-frame scan — the code that
// decides, after a coordinator crash, which prepares are still in
// flight. It must never panic, never read past the data, and always
// satisfy the prefix property: re-scanning the valid prefix yields the
// same records with no torn tail.
func FuzzShardPrepareDecode(f *testing.F) {
	req := &core.ConnRequest{ID: "c1", Spec: traffic.CBR(0.1), Priority: 1,
		Route: core.Route{{Switch: "sw0", In: 1, Out: 0}}}
	begin := encodeIntentFrame(f, IntentRecord{Seq: 1, State: IntentBegin, Txn: "x1-c1",
		Request: req, Shards: []ShardMark{{Shard: "s0"}, {Shard: "s1"}}})
	commit := encodeIntentFrame(f, IntentRecord{Seq: 2, State: IntentCommit, Txn: "x1-c1",
		Shards: []ShardMark{{Shard: "s0", Epoch: 3}}})
	done := encodeIntentFrame(f, IntentRecord{Seq: 3, State: IntentDone, Txn: "x1-c1"})
	full := append(append(append([]byte{}, begin...), commit...), done...)
	f.Add([]byte{})
	f.Add(full)
	f.Add(full[:len(full)-1])             // torn tail
	f.Add(full[:len(begin)+3])            // torn mid-frame
	f.Add(append(full, 0xff, 0x00, 0x01)) // garbage suffix
	corrupted := append([]byte{}, full...)
	corrupted[len(begin)+9] ^= 0x40 // flip a payload bit: CRC must catch it
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, torn := scanIntents(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of [0, %d]", valid, len(data))
		}
		if torn == (valid == int64(len(data))) && len(data) > 0 {
			// torn iff the scan stopped short of the end.
			t.Fatalf("torn=%v but valid=%d of %d", torn, valid, len(data))
		}
		again, validAgain, tornAgain := scanIntents(data[:valid])
		if tornAgain || validAgain != valid || len(again) != len(recs) {
			t.Fatalf("valid prefix not stable: %d/%v vs %d/%v", validAgain, tornAgain, valid, torn)
		}
		a, err1 := json.Marshal(again)
		b, err2 := json.Marshal(recs)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatal("re-scan of the valid prefix decoded different records")
		}
		// Folding whatever decoded must not panic either.
		_ = foldIntents(recs)
	})
}

// TestIntentScanEmptyAndExact anchors the fuzz invariants on known
// inputs (the fuzz target itself only runs its corpus in -run mode).
func TestIntentScanEmptyAndExact(t *testing.T) {
	if recs, valid, torn := scanIntents(nil); len(recs) != 0 || valid != 0 || torn {
		t.Fatalf("nil scan: %v %d %v", recs, valid, torn)
	}
	frame := encodeIntentFrame(t, IntentRecord{Seq: 1, State: IntentBegin, Txn: "t"})
	recs, valid, torn := scanIntents(frame)
	if len(recs) != 1 || valid != int64(len(frame)) || torn {
		t.Fatalf("exact scan: %v %d %v", recs, valid, torn)
	}
	if !bytes.Equal(frame[:valid], frame) {
		t.Fatal("valid prefix mismatch")
	}
}

// TestIntentFormatUnchanged pins the on-disk format: testdata/format.intent
// was written by the intent log before it moved onto the journal's
// shared FrameLog. The same records appended now produce the same bytes,
// and the old file opens to the same records.
func TestIntentFormatUnchanged(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "format.intent"))
	if err != nil {
		t.Fatal(err)
	}
	req := &core.ConnRequest{ID: "c1", Spec: traffic.VBR(0.3, 0.02, 4), Priority: 1, DelayBound: 40,
		Route: core.Route{{Switch: "ring00", In: 1, Out: 0}, {Switch: "ring01", In: 0, Out: 0}}}
	req2 := *req
	req2.ID = "c2"
	recs := []IntentRecord{
		{State: IntentBegin, Txn: "x1-c1", Request: req, Shards: []ShardMark{{Shard: "s0"}, {Shard: "s1"}}},
		{State: IntentCommit, Txn: "x1-c1", Shards: []ShardMark{{Shard: "s0", Epoch: 3}, {Shard: "s1", Epoch: 1}}},
		{State: IntentDone, Txn: "x1-c1"},
		{State: IntentBegin, Txn: "x4-c2", Request: &req2, Shards: []ShardMark{{Shard: "s1"}}},
		{State: IntentAbort, Txn: "x4-c2"},
		{State: IntentEpoch, Epoch: 2},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "new.intent")
	log, _, _, err := OpenIntentLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := log.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frames differ from the established format:\n got %q\nwant %q", got, want)
	}
	old := filepath.Join(dir, "old.intent")
	if err := os.WriteFile(old, want, 0o600); err != nil {
		t.Fatal(err)
	}
	reopened, opened, torn, err := OpenIntentLog(nil, old)
	if err != nil || torn {
		t.Fatalf("open the established format: torn %v, err %v", torn, err)
	}
	defer reopened.Close()
	if !reflect.DeepEqual(opened, recs) {
		t.Fatalf("established format opens to\n%+v\nwant\n%+v", opened, recs)
	}
}
