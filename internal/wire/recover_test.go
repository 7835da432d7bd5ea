package wire

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/traffic"
)

// TestBatchSetupReportsCommittedBounds: a batch is admitted as one unit,
// so every item reports the bounds of the state the whole batch commits —
// the first item's bound counts the items after it — while a lone setup
// reports the bound with itself the last one in.
func TestBatchSetupReportsCommittedBounds(t *testing.T) {
	client, srv, route, _ := startDurableServer(t, nil)
	ctx := context.Background()
	var reqs []core.ConnRequest
	for i := 0; i < 4; i++ {
		reqs = append(reqs, core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("b%d", i)), Spec: traffic.VBR(0.3, 0.02, 8), Priority: 1,
			Route: batchRoute(route, 1+i),
		})
	}
	results, err := client.BatchSetup(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	final, err := srv.network.RouteBound(route, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.OK || res.Admission == nil || res.Admission.EndToEndComputed != final {
			t.Fatalf("item %d = %+v, want admitted with the committed end-to-end bound %v", i, res, final)
		}
	}
	lone, err := client.Setup(ctx, core.ConnRequest{
		ID: "lone", Spec: traffic.CBR(0.001), Priority: 1, Route: batchRoute(route, 9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lone.EndToEndComputed < final {
		t.Fatalf("lone setup after the batch reports %v, below the batch's %v", lone.EndToEndComputed, final)
	}
}

// renameFS counts the renames onto one path: a snapshot save's commit.
type renameFS struct {
	journal.FS
	path  string
	saves atomic.Int64
}

func (f *renameFS) Rename(oldname, newname string) error {
	if newname == f.path {
		f.saves.Add(1)
	}
	return f.FS.Rename(oldname, newname)
}

// TestRecoverSkipsRewriteOfCleanSnapshot: recovering a current-format
// snapshot with an empty journal, every connection re-admitted, leaves
// the file as it is; a journal record past it, a re-admission that fails,
// or a legacy trailer each still fold a fresh snapshot.
func TestRecoverSkipsRewriteOfCleanSnapshot(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "state.json")
	fsys := &renameFS{FS: journal.OSFS{}, path: statePath}
	ok := core.ConnRequest{ID: "ok", Spec: traffic.CBR(0.01), Priority: 1,
		Route: core.Route{{Switch: "sw0", In: 1, Out: 0}}}
	recoverOnce := func(t *testing.T) (*Server, *Durable, *RecoveryReport) {
		t.Helper()
		network, _ := twoSwitchNetwork(t)
		dur, err := OpenDurable(DurableConfig{StatePath: statePath, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := dur.Recover(network)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(network)
		srv.SetDurable(dur)
		return srv, dur, rep
	}
	save := func(t *testing.T, reqs ...core.ConnRequest) []byte {
		t.Helper()
		if err := NewStateStore(statePath).SaveState(PersistentState{Connections: reqs}); err != nil {
			t.Fatal(err)
		}
		_ = os.Remove(statePath + ".journal")
		data, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		fsys.saves.Store(0)
		return data
	}

	t.Run("clean", func(t *testing.T) {
		before := save(t, ok)
		_, dur, rep := recoverOnce(t)
		defer dur.Close()
		after, err := os.ReadFile(statePath)
		if err != nil || rep.Restored != 1 || fsys.saves.Load() != 0 || !bytes.Equal(before, after) {
			t.Fatalf("restored %d, %d saves, file unchanged %v (%v)", rep.Restored, fsys.saves.Load(), bytes.Equal(before, after), err)
		}
	})
	t.Run("journal record", func(t *testing.T) {
		save(t, ok)
		srv, dur, _ := recoverOnce(t)
		if resp := srv.handleSetup(context.Background(), Request{Request: &core.ConnRequest{
			ID: "late", Spec: traffic.CBR(0.01), Priority: 1, Route: core.Route{{Switch: "sw1", In: 1, Out: 0}},
		}}); !resp.OK {
			t.Fatal(resp.Error)
		}
		_ = dur.Close()
		fsys.saves.Store(0)
		_, dur, rep := recoverOnce(t)
		defer dur.Close()
		if rep.Restored != 2 || fsys.saves.Load() != 1 {
			t.Fatalf("restored %d with %d saves, want 2 and one fold", rep.Restored, fsys.saves.Load())
		}
	})
	t.Run("failed re-admission", func(t *testing.T) {
		save(t, ok, core.ConnRequest{ID: "ghost", Spec: traffic.CBR(0.01), Priority: 1,
			Route: core.Route{{Switch: "no-such-switch", In: 1, Out: 0}}})
		_, dur, rep := recoverOnce(t)
		defer dur.Close()
		if len(rep.Failed) != 1 || fsys.saves.Load() != 1 {
			t.Fatalf("failed %v with %d saves, want ghost and one fold", rep.Failed, fsys.saves.Load())
		}
	})
	t.Run("legacy trailer", func(t *testing.T) {
		save(t, ok)
		data, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		// Strip the trailer: a pre-checksum snapshot.
		if err := os.WriteFile(statePath, data[:bytes.LastIndex(data, []byte("#trailer"))], 0o600); err != nil {
			t.Fatal(err)
		}
		_, dur, rep := recoverOnce(t)
		defer dur.Close()
		if rep.Restored != 1 || len(rep.Warnings) == 0 || fsys.saves.Load() != 1 {
			t.Fatalf("restored %d, warnings %v, %d saves; want the legacy file rewritten", rep.Restored, rep.Warnings, fsys.saves.Load())
		}
	})
}

// TestInstallStateReplacesResidents: a full resync replaces every resident
// with the primary's connections, loaded unchecked as one set, into the
// same switch state that installing them one by one builds.
func TestInstallStateReplacesResidents(t *testing.T) {
	network, route := twoSwitchNetwork(t)
	srv := NewServer(network)
	for i := 0; i < 3; i++ {
		if _, err := network.Setup(context.Background(), core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("old%d", i)), Spec: traffic.CBR(0.01), Priority: 1, Route: route,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var primary []core.ConnRequest
	for i := 0; i < 6; i++ {
		r := slices.Clone(route)
		r[0].In = core.PortID(1 + i)
		primary = append(primary, core.ConnRequest{
			// Fat enough that checked admission would refuse some of them.
			ID: core.ConnID(fmt.Sprintf("new%d", i)), Spec: traffic.VBR(0.5, 0.05, 16), Priority: 1, Route: r,
		})
	}
	if err := srv.InstallState(PersistentState{Connections: primary, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	want, _ := twoSwitchNetwork(t)
	for _, req := range primary {
		if err := want.Install(req); err != nil {
			t.Fatal(err)
		}
	}
	if got, exp := network.Connections(), want.Connections(); !slices.Equal(got, exp) {
		t.Fatalf("connections %v, want %v", got, exp)
	}
	for _, name := range want.SwitchNames() {
		a, _ := network.Switch(name)
		b, _ := want.Switch(name)
		soaA, sofA, _ := a.PortEnvelope(0, 1)
		soaB, sofB, _ := b.PortEnvelope(0, 1)
		if !soaA.Equal(soaB, 0) || !sofA.Equal(sofB, 0) {
			t.Fatalf("%s: envelopes differ from one-by-one install", name)
		}
	}
	va, _ := network.Audit()
	vb, _ := want.Audit()
	if len(va) == 0 || len(va) != len(vb) {
		t.Fatalf("audit %v, one-by-one install %v; want the same violations", va, vb)
	}
}

// residentNetwork is three switches in a line with one real-time queue
// large enough for every resident below.
func residentNetwork(b *testing.B) *core.Network {
	b.Helper()
	n := core.NewNetwork(core.HardCDV{})
	for i := 0; i < 3; i++ {
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name: fmt.Sprintf("sw%d", i), QueueCells: map[core.Priority]float64{1: 1 << 20},
		}); err != nil {
			b.Fatal(err)
		}
	}
	return n
}

// residents returns n CBR connections over the three switches, entering
// each by one of 16 input ports, with IDs prefixed by tag.
func residents(tag string, n int) []core.ConnRequest {
	reqs := make([]core.ConnRequest, n)
	for i := range reqs {
		in := core.PortID(i % 16)
		reqs[i] = core.ConnRequest{
			ID:       core.ConnID(fmt.Sprintf("%s%06d", tag, i)),
			Spec:     traffic.CBR(1e-6),
			Priority: 1,
			Route:    core.Route{{Switch: "sw0", In: in}, {Switch: "sw1", In: in}, {Switch: "sw2", In: in}},
		}
	}
	return reqs
}

// BenchmarkRecover times Durable.Recover of a journal-sync state file
// whose snapshot holds n residents and whose journal is empty, and reports
// its phases separately, each timed on its own: load (LoadState, the JSON
// decode), readmit (the residents admitted as one set into a fresh
// network, as Recover does), readmit-seq (the same residents admitted one
// Setup at a time, the path the set replaces) and save (the SaveState of a
// post-recovery compaction, which a clean snapshot no longer pays).
func BenchmarkRecover(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("residents=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := NewStateStore(path).SaveState(PersistentState{Connections: residents("c", n)}); err != nil {
				b.Fatal(err)
			}
			var load, readmit, seq, save time.Duration
			since := func(start time.Time, into *time.Duration) { *into += time.Since(start) }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				network := residentNetwork(b)
				dur, err := OpenDurable(DurableConfig{StatePath: path})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := dur.Recover(network)
				b.StopTimer()
				if err != nil || rep.Restored != n {
					b.Fatalf("recover: %v, %d of %d restored", err, rep.Restored, n)
				}
				if err := dur.Close(); err != nil {
					b.Fatal(err)
				}

				start := time.Now()
				st, _, err := NewStateStore(path).LoadState()
				since(start, &load)
				if err != nil {
					b.Fatal(err)
				}
				network = residentNetwork(b)
				start = time.Now()
				_, errs := network.SetupSet(ctx, st.Connections)
				since(start, &readmit)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				network = residentNetwork(b)
				start = time.Now()
				for _, req := range st.Connections {
					if _, err := network.Setup(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
				since(start, &seq)
				start = time.Now()
				if err := NewStateStore(filepath.Join(dir, "saved.json")).SaveState(st); err != nil {
					b.Fatal(err)
				}
				since(start, &save)
				b.StartTimer()
			}
			perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(b.N) }
			b.ReportMetric(perOp(load), "load-ms")
			b.ReportMetric(perOp(readmit), "readmit-ms")
			b.ReportMetric(perOp(seq), "readmit-seq-ms")
			b.ReportMetric(perOp(save), "save-ms")
		})
	}
}

// BenchmarkInstallState times a standby's full resync with 4k residents:
// InstallState of a primary's 4k other connections, which holds the
// server's operation lock from start to end — the teardown of every
// resident, the install of the new set and the snapshot rewrite.
func BenchmarkInstallState(b *testing.B) {
	const n = 4 << 10
	states := []PersistentState{{Connections: residents("a", n)}, {Connections: residents("b", n)}}
	network := residentNetwork(b)
	dur, err := OpenDurable(DurableConfig{StatePath: filepath.Join(b.TempDir(), "state.json")})
	if err != nil {
		b.Fatal(err)
	}
	defer dur.Close()
	if _, err := dur.Recover(network); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(network)
	srv.SetDurable(dur)
	if err := srv.InstallState(states[1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.InstallState(states[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefusedSet times sets that fail as a whole because their last
// member, a CBR(1.0) beside the residents, would make a queue unstable:
// SetupSet then admits the members one Setup at a time after its set
// build and check. The sets are a 32-request batch on a network of 4k
// residents and a 64k-connection recovery into an empty one. set-ms is
// SetupSet; seq-ms is one Setup per request, the path batch-setup and
// recovery took before sets; each arm runs on its own network.
func BenchmarkRefusedSet(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		base, set int
	}{{"batch32-over-4k", 4 << 10, 32}, {"recover-64k", 0, 64 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			base := residents("r", c.base)
			reqs := residents("s", c.set)
			reqs[len(reqs)-1].Spec = traffic.CBR(1)
			check := func(errs []error) {
				for i, err := range errs {
					if (err != nil) != (i == len(errs)-1) {
						b.Fatalf("request %d: %v; want only the last refused", i, err)
					}
				}
			}
			arms := []func(*core.Network){
				func(n *core.Network) {
					_, errs := n.SetupSet(ctx, reqs)
					check(errs)
				},
				func(n *core.Network) {
					errs := make([]error, len(reqs))
					for i, req := range reqs {
						_, errs[i] = n.Setup(ctx, req)
					}
					check(errs)
				},
			}
			var took [2]time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for a, arm := range arms {
					b.StopTimer()
					network := residentNetwork(b)
					for _, err := range network.InstallSet(base) {
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					start := time.Now()
					arm(network)
					took[a] += time.Since(start)
				}
			}
			b.ReportMetric(float64(took[0])/1e6/float64(b.N), "set-ms")
			b.ReportMetric(float64(took[1])/1e6/float64(b.N), "seq-ms")
		})
	}
}
