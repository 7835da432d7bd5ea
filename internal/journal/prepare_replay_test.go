package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

func prepReq(id string) *core.ConnRequest {
	return &core.ConnRequest{
		ID: core.ConnID(id), Spec: traffic.CBR(0.01), Priority: 1,
		Route: core.Route{{Switch: "sw0", In: 1, Out: 0}},
	}
}

// TestPrepareReplayTable drives Replay through every prepare/commit/abort
// crash boundary. The invariant under test is presumed abort: a prepare
// record with no decision after it must replay to an expired (reaped)
// reservation — never an admitted connection — while a commit admits even
// when compaction folded its prepare below the watermark.
func TestPrepareReplayTable(t *testing.T) {
	cases := []struct {
		name    string
		lastSeq uint64
		recs    []Record
		wantIDs []core.ConnID
		wantRps []string
	}{
		{
			name: "crash between prepare-append and commit-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
			},
			wantIDs: nil,
			wantRps: []string{"t1"},
		},
		{
			name: "crash immediately after commit-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			wantIDs: []core.ConnID{"c1"},
			wantRps: nil,
		},
		{
			name: "crash immediately after abort-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardAbort, Txn: "t1", ID: "c1"},
			},
			wantIDs: nil,
			wantRps: nil,
		},
		{
			name:    "commit alone (compaction folded the prepare below the watermark)",
			lastSeq: 1,
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			wantIDs: []core.ConnID{"c1"},
			wantRps: nil,
		},
		{
			name: "commit later unwound by abort",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
				{Seq: 3, Op: OpShardAbort, Txn: "t1", ID: "c1"},
			},
			wantIDs: nil,
			wantRps: nil,
		},
		{
			name: "interleaved transactions: only the decided one admits",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardPrepare, Txn: "t2", Request: prepReq("c2"), TTLMillis: 50},
				{Seq: 3, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			wantIDs: []core.ConnID{"c1"},
			wantRps: []string{"t2"},
		},
		{
			name: "prepare below the watermark stays inert",
			// The watermark covers the prepare: compaction never folds an
			// undecided hold into the snapshot, so replay must not invent
			// either a connection or a reap for it.
			lastSeq: 1,
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
			},
			wantIDs: nil,
			wantRps: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := Replay(State{}, tc.lastSeq, tc.recs)
			gotIDs := make([]core.ConnID, 0, len(st.Requests))
			for _, r := range st.Requests {
				gotIDs = append(gotIDs, r.ID)
			}
			if fmt.Sprint(gotIDs) != fmt.Sprint(append([]core.ConnID{}, tc.wantIDs...)) {
				t.Errorf("admitted = %v, want %v", gotIDs, tc.wantIDs)
			}
			if fmt.Sprint(st.ReapedPrepares) != fmt.Sprint(tc.wantRps) {
				t.Errorf("reaped prepares = %v, want %v", st.ReapedPrepares, tc.wantRps)
			}
		})
	}
}

// TestPrepareReplayThroughCrashedLog writes the prepare through a real
// journal file, then crashes before the commit lands in two ways — the
// commit frame never written, and the commit frame torn mid-write — and
// asserts both recoveries replay to a reaped hold, never an admission.
func TestPrepareReplayThroughCrashedLog(t *testing.T) {
	for _, tear := range []bool{false, true} {
		name := "commit-never-written"
		if tear {
			name = "commit-frame-torn"
		}
		t.Run(name, func(t *testing.T) {
			fsys := OSFS{}
			path := filepath.Join(t.TempDir(), "wal")
			log, _, _, err := Open(fsys, path)
			if err != nil {
				t.Fatal(err)
			}
			prep := Record{Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50}
			if err := log.Append(&prep, true); err != nil {
				t.Fatal(err)
			}
			if tear {
				// A torn commit frame: the full frame minus its last byte.
				frame, err := encodeFrame(Record{Seq: prep.Seq + 1, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")})
				if err != nil {
					t.Fatal(err)
				}
				f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(frame[:len(frame)-1]); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			_, scan, tornPath, err := Open(fsys, path)
			if err != nil {
				t.Fatal(err)
			}
			if tear && tornPath == "" {
				t.Fatal("torn commit frame not detected")
			}
			st := Replay(State{}, 0, scan.Records)
			if len(st.Requests) != 0 {
				t.Fatalf("crash before commit replayed to admitted connections %v", st.Requests)
			}
			if len(st.ReapedPrepares) != 1 || st.ReapedPrepares[0] != "t1" {
				t.Fatalf("reaped prepares = %v, want [t1]", st.ReapedPrepares)
			}
		})
	}
}
