package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"testing"
)

// TestStreamFrameRoundTrip pins the shared frame format across the two
// transports: frames written with WriteFrame read back verbatim with
// ReadFrame, and the stream ends with a clean io.EOF exactly at a frame
// boundary.
func TestStreamFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte(`{"seq":1}`), {}, bytes.Repeat([]byte{0xA5}, 1000)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d round-tripped %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("end of stream = %v, want io.EOF", err)
	}
}

// TestStreamFrameErrors pins the typed failure surface: a truncated
// stream is io.ErrUnexpectedEOF, a corrupt or oversized frame wraps
// ErrFrame, and an oversized payload is refused at write time.
func TestStreamFrameErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	if _, err := ReadFrame(bytes.NewReader(frame[:3])); err != io.ErrUnexpectedEOF {
		t.Errorf("torn header = %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2])); err != io.ErrUnexpectedEOF {
		t.Errorf("torn payload = %v, want io.ErrUnexpectedEOF", err)
	}
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(flipped)); !errors.Is(err, ErrFrame) {
		t.Errorf("flipped payload byte = %v, want ErrFrame", err)
	}
	huge := bytes.Clone(frame)
	binary.BigEndian.PutUint32(huge[0:4], MaxRecordBytes+1)
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized length prefix = %v, want ErrFrame", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxRecordBytes+1)); !errors.Is(err, ErrFrame) {
		t.Errorf("oversized write = %v, want ErrFrame", err)
	}
}

// TestEntriesSinceShipsByteIdentically pins the replication shipping
// contract: EntriesSince returns exactly the records past the watermark,
// and appending their raw payloads with AppendEntry on a second log
// reproduces the primary's journal byte for byte.
func TestEntriesSinceShipsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.journal")
	log, _, _, err := Open(OSFS{}, src)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest("s1")
	recs := []Record{
		{Op: OpSetup, Request: &req},
		{Op: OpFailLink, From: "ring00", To: "ring01"},
		{Op: OpTeardown, ID: "s1"},
	}
	for i := range recs {
		if err := log.Append(&recs[i], true); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	entries, err := EntriesSince(OSFS{}, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 2 || entries[1].Seq != 3 {
		t.Fatalf("EntriesSince(1) = %d entries %+v, want seqs 2,3", len(entries), entries)
	}

	dst := filepath.Join(dir, "dst.journal")
	mirror, _, _, err := Open(OSFS{}, dst)
	if err != nil {
		t.Fatal(err)
	}
	all, err := EntriesSince(OSFS{}, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if err := mirror.AppendEntry(e.Seq, e.Payload, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := mirror.LastSeq(); got != 3 {
		t.Fatalf("mirror watermark %d, want 3", got)
	}
	mirror.Close()
	srcBytes, err := OSFS{}.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dstBytes, err := OSFS{}.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srcBytes, dstBytes) {
		t.Fatalf("shipped journal diverges: %d bytes vs %d bytes", len(dstBytes), len(srcBytes))
	}

	// A missing source is an empty backlog, not an error.
	none, err := EntriesSince(OSFS{}, filepath.Join(dir, "absent.journal"), 0)
	if err != nil || none != nil {
		t.Fatalf("EntriesSince on missing file = %v, %v", none, err)
	}
}

// TestForceNextSeqAdoptsLowerNumbering pins the full-resync contract:
// SetNextSeq never lowers the counter (orphaned local records must not
// be renumbered over), while ForceNextSeq — used only after a Reset
// during a full state install — adopts the primary's numbering outright.
func TestForceNextSeqAdoptsLowerNumbering(t *testing.T) {
	log, _, _, err := Open(OSFS{}, filepath.Join(t.TempDir(), "j.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	req := testRequest("orphan")
	for i := 0; i < 5; i++ {
		rec := Record{Op: OpSetup, Request: &req}
		if err := log.Append(&rec, false); err != nil {
			t.Fatal(err)
		}
	}
	log.SetNextSeq(3)
	if got := log.LastSeq(); got != 5 {
		t.Fatalf("SetNextSeq lowered the counter: LastSeq %d, want 5", got)
	}
	if err := log.Reset(); err != nil {
		t.Fatal(err)
	}
	log.ForceNextSeq(3)
	if got := log.LastSeq(); got != 2 {
		t.Fatalf("ForceNextSeq(3): LastSeq %d, want 2", got)
	}
	rec := Record{Op: OpTeardown, ID: "orphan"}
	if err := log.Append(&rec, false); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 {
		t.Fatalf("append after ForceNextSeq got seq %d, want 3", rec.Seq)
	}
}
