package journal

import (
	"bytes"
	"testing"

	"atmcac/internal/core"
)

// FuzzJournalReplay feeds arbitrary bytes through the full recovery read
// path: scanning must never panic, the valid prefix must re-encode to the
// same scan result, and replaying the decoded records over an empty base
// must never panic and never produce duplicate connection IDs.
func FuzzJournalReplay(f *testing.F) {
	req := core.ConnRequest{ID: "a", Priority: 1}
	var seed []byte
	for _, rec := range []Record{
		{Seq: 1, Op: OpSetup, Request: &req},
		{Seq: 2, Op: OpFailLink, From: "x", To: "y", Evicted: []core.ConnID{"a"}},
		{Seq: 3, Op: OpRestoreLink, From: "x", To: "y"},
		{Seq: 4, Op: OpTeardown, ID: "a"},
	} {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, frame...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k'}) // bad CRC
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                 // absurd length
	f.Fuzz(func(t *testing.T, data []byte) {
		res := ScanBytes(data)
		if res.Valid < 0 || res.Valid > int64(len(data)) {
			t.Fatalf("Valid = %d out of range [0,%d]", res.Valid, len(data))
		}
		if !res.Torn && res.Valid != int64(len(data)) {
			t.Fatalf("not torn but Valid %d != len %d", res.Valid, len(data))
		}
		// The valid prefix must be exactly the re-encoding of its records.
		var reenc []byte
		for _, rec := range res.Records {
			frame, err := encodeFrame(rec)
			if err != nil {
				t.Fatalf("re-encode decoded record: %v", err)
			}
			reenc = append(reenc, frame...)
		}
		if !bytes.Equal(reenc, data[:res.Valid]) {
			// JSON field order is deterministic for a struct, so a decoded
			// record must re-encode byte-identically unless the input used
			// an alternative encoding of the same record — rescan instead.
			again := ScanBytes(reenc)
			if again.Torn || len(again.Records) != len(res.Records) {
				t.Fatalf("re-encoded prefix does not rescan: torn=%v records=%d want %d",
					again.Torn, len(again.Records), len(res.Records))
			}
		}
		st, _ := Replay(State{}, 0, res.Records)
		seen := make(map[core.ConnID]bool, len(st.Requests))
		for _, r := range st.Requests {
			if seen[r.ID] {
				t.Fatalf("replay produced duplicate connection %q", r.ID)
			}
			seen[r.ID] = true
		}
		links := make(map[core.Link]bool, len(st.FailedLinks))
		for _, l := range st.FailedLinks {
			if links[l] {
				t.Fatalf("replay produced duplicate failed link %v", l)
			}
			links[l] = true
		}
	})
}
