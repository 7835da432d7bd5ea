package replica_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// TestSyncReplicationPipelinedWithTracer is the regression for the
// observability read on the ack path: with a tracer installed, the
// primary's ack reader asks the server for its epoch on every ack, and
// that read must never wait on the write path, which is itself waiting
// for the ack. Two goroutines share one pipelined client so mutations
// overlap; a single not-replicated refusal means an ack sat unread for
// the whole AckTimeout.
func TestSyncReplicationPipelinedWithTracer(t *testing.T) {
	dir := t.TempDir()
	pn := bootNode(t, filepath.Join(dir, "primary.json"), true)
	defer pn.stop()
	var acks atomic.Int64
	pn.prim = replica.NewPrimary(pn.srv, replica.PrimaryConfig{
		Mode:           replica.ModeSync,
		AckTimeout:     500 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		Tracer: tracerFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindReplAck {
				acks.Add(1)
			}
		}),
	})
	pn.srv.SetShipper(pn.prim)
	go pn.prim.Serve(pn.replLn)

	sn := bootNode(t, filepath.Join(dir, "standby.json"), false)
	defer sn.stop()
	sn.srv.SetStandby(true)
	sn.sb = replica.NewStandby(sn.srv, replica.StandbyConfig{
		PrimaryAddr:      pn.replLn.Addr().String(),
		ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	go sn.sb.Run()
	if !waitFor(5*time.Second, func() bool {
		rep := wire.ReplicationReport{Role: "primary"}
		replica.Status(pn.prim, nil)(&rep)
		return rep.Connected
	}) {
		t.Fatal("standby never connected to the primary")
	}

	const callers, setups = 2, 300
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < setups; i += callers {
				route, err := pn.rt.BroadcastRoute(i%propRing, i%propTerminals)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = pn.client.Setup(context.Background(), core.ConnRequest{
					ID: core.ConnID(fmt.Sprintf("p%03d", i)), Spec: traffic.CBR(0.0001), Priority: 1, Route: route,
				})
				var re *wire.RemoteError
				if errors.As(err, &re) && re.Code == wire.CodeNotReplicated {
					t.Errorf("setup %d refused not-replicated: the ack reader stalled behind the write path: %v", i, err)
					return
				}
				if err != nil {
					t.Errorf("setup %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if acks.Load() == 0 {
		t.Fatal("the tracer saw no acks: the epoch read on the ack path never ran")
	}
	if got := len(pn.rt.Core().Connections()); got != setups && !t.Failed() {
		t.Fatalf("primary holds %d connections, want %d", got, setups)
	}
}

// syncCountFS counts fsyncs of journal files.
type syncCountFS struct {
	journal.OSFS
	syncs atomic.Int64
}

type syncCountFile struct {
	journal.File
	fs *syncCountFS
}

func (fs *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".journal") {
		return f, err
	}
	return &syncCountFile{File: f, fs: fs}, nil
}

func (f *syncCountFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// TestSyncReplicationGroupCommits: a sync-replicated journal-sync
// primary group-commits like an unreplicated one — set-ups pipelined on
// one client share fsyncs, each record still ships only after its group
// is durable — and the standby's journal is byte-identical to the
// primary's.
func TestSyncReplicationGroupCommits(t *testing.T) {
	dir := t.TempDir()
	fsys := &syncCountFS{}
	pn := bootNodeFS(t, filepath.Join(dir, "primary.json"), true, fsys)
	defer pn.stop()
	pn.prim = replica.NewPrimary(pn.srv, replica.PrimaryConfig{
		Mode:           replica.ModeSync,
		AckTimeout:     5 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	pn.srv.SetShipper(pn.prim)
	go pn.prim.Serve(pn.replLn)
	sPath := filepath.Join(dir, "standby.json")
	sn := bootNode(t, sPath, false)
	defer sn.stop()
	sn.srv.SetStandby(true)
	sn.sb = replica.NewStandby(sn.srv, replica.StandbyConfig{
		PrimaryAddr:      pn.replLn.Addr().String(),
		ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	go sn.sb.Run()
	if !waitFor(5*time.Second, func() bool {
		rep := wire.ReplicationReport{Role: "primary"}
		replica.Status(pn.prim, nil)(&rep)
		return rep.Connected
	}) {
		t.Fatal("standby never connected to the primary")
	}

	// Hold the first set-up's group at its post-append point — durable,
	// not yet shipped, the next group unable to start — until every
	// set-up has reached the journal, so the rest queue behind it.
	const setups = 16
	var queued atomic.Int32
	gate := make(chan struct{})
	var held atomic.Bool
	pn.srv.SetTestHookPreAppend(func(string, core.ConnID) { queued.Add(1) })
	pn.srv.SetCrashPoints(&wire.CrashPoints{PostAppend: func(string, uint64) {
		if held.CompareAndSwap(false, true) {
			<-gate
		}
	}})
	before := fsys.syncs.Load()
	var wg sync.WaitGroup
	for i := 0; i < setups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			route, err := pn.rt.BroadcastRoute(i%propRing, i%propTerminals)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := pn.client.Setup(context.Background(), core.ConnRequest{
				ID: core.ConnID(fmt.Sprintf("g%02d", i)), Spec: traffic.CBR(0.001), Priority: 1, Route: route,
			}); err != nil {
				t.Errorf("setup %d: %v", i, err)
			}
		}(i)
	}
	waitFor(10*time.Second, func() bool { return queued.Load() == setups })
	behind := queued.Load()
	close(gate)
	wg.Wait()
	if behind != setups {
		t.Fatalf("only %d of %d set-ups reached the journal while the first group was held", behind, setups)
	}
	if t.Failed() {
		return
	}
	if fsyncs := fsys.syncs.Load() - before; fsyncs >= setups {
		t.Fatalf("%d set-ups took %d primary fsyncs: nothing coalesced", setups, fsyncs)
	}
	if !waitFor(5*time.Second, func() bool { return sn.srv.JournalWatermark() == pn.srv.JournalWatermark() }) {
		t.Fatalf("standby watermark %d never reached the primary's %d", sn.srv.JournalWatermark(), pn.srv.JournalWatermark())
	}
	primary, err := os.ReadFile(filepath.Join(dir, "primary.json.journal"))
	if err != nil {
		t.Fatal(err)
	}
	standby, err := os.ReadFile(sPath + ".journal")
	if err != nil {
		t.Fatal(err)
	}
	if len(primary) == 0 || !bytes.Equal(primary, standby) {
		t.Fatalf("standby journal (%d bytes) is not byte-identical to the primary's (%d bytes)", len(standby), len(primary))
	}
}

// tracerFunc adapts a function to obs.Tracer.
type tracerFunc func(obs.Event)

func (f tracerFunc) Trace(ev obs.Event) { f(ev) }
