package journal

import (
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
			st, _ := Replay(State{}, 0, scan.Records)
			if len(st.Requests) != 0 {
				t.Fatalf("crash before commit replayed to admitted connections %v", st.Requests)
			}
			if len(st.ReapedPrepares) != 1 || st.ReapedPrepares[0] != "t1" {
				t.Fatalf("reaped prepares = %v, want [t1]", st.ReapedPrepares)
			}
		})
	}
}
