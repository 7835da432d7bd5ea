package replica_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// fsyncFS counts fsyncs, and for the one file at path tracks how many of
// its bytes the last fsync covered. With fail set, every fsync of that
// file fails.
type fsyncFS struct {
	journal.OSFS
	path string

	mu              sync.Mutex
	syncs           int
	written, synced int64
	fail            bool
}

type fsyncFile struct {
	journal.File
	fs      *fsyncFS
	tracked bool
}

func (fs *fsyncFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	f, err := fs.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &fsyncFile{File: f, fs: fs, tracked: name == fs.path}, nil
}

func (fs *fsyncFS) SyncDir(name string) error {
	fs.mu.Lock()
	fs.syncs++
	fs.mu.Unlock()
	return fs.OSFS.SyncDir(name)
}

// counts returns the fsyncs so far and the bytes of path they cover.
func (fs *fsyncFS) counts() (syncs int, synced int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs, fs.synced
}

func (f *fsyncFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.tracked {
		f.fs.mu.Lock()
		f.fs.written += int64(n)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *fsyncFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	if f.tracked && f.fs.fail {
		return errors.New("injected fsync failure")
	}
	err := f.File.Sync()
	if f.tracked && err == nil {
		f.fs.synced = f.fs.written
	}
	return err
}

func (f *fsyncFile) Truncate(size int64) error {
	if f.tracked {
		f.fs.mu.Lock()
		f.fs.written, f.fs.synced = size, min(f.fs.synced, size)
		f.fs.mu.Unlock()
	}
	return f.File.Truncate(size)
}

// fakePrimary is the standby's connection to a primary that wrote its
// whole stream before the standby's first read, so where one batch ends
// does not depend on timing. Past the stream, reads block until Close, as
// on a primary gone quiet. Each write of the standby is one whole frame
// (journal.WriteFrame writes once), decoded and handed to onMsg.
type fakePrimary struct {
	net.Conn // nil: only the methods below are called
	stream   *bytes.Reader
	onMsg    func(replica.Msg)
	once     sync.Once
	closed   chan struct{}
}

func (c *fakePrimary) Read(p []byte) (int, error) {
	if c.stream.Len() > 0 {
		return c.stream.Read(p)
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *fakePrimary) Write(p []byte) (int, error) {
	msg, err := replica.ReadMsg(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	c.onMsg(msg)
	return len(p), nil
}

func (c *fakePrimary) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *fakePrimary) SetReadDeadline(time.Time) error  { return nil }
func (c *fakePrimary) SetWriteDeadline(time.Time) error { return nil }

// TestTailerBatchesFsyncs: a standby reading a backlog the primary has
// already written applies every record it has read without an fsync,
// then syncs once and acknowledges the highest — for both sinks, the
// admission journal and the coordinator's intent log. The tailer's file
// is byte-identical to the primary's, and no ack runs ahead of the fsync
// that covers it. A failed fsync stops the tailer without an ack, a
// promotion or a fence.
func TestTailerBatchesFsyncs(t *testing.T) {
	const records = 2000
	route := fuzzRoute(t)
	for _, tc := range []struct {
		name string
		// payload is record seq of the primary's log.
		payload func(seq uint64) any
		// tail opens the tailer's log at path through fsys and returns
		// the standby and what closes the log once it stopped.
		tail func(t *testing.T, fsys journal.FS, path string, cfg replica.StandbyConfig) (*replica.Standby, func() error)
	}{
		{
			name: "admission-journal",
			payload: func(seq uint64) any {
				return journal.Record{Seq: seq, Epoch: 1, Op: journal.OpSetup, Request: &core.ConnRequest{
					ID: core.ConnID(fmt.Sprintf("c%04d", seq)), Spec: traffic.CBR(0.0001), Priority: 1, Route: route,
				}}
			},
			tail: func(t *testing.T, fsys journal.FS, path string, cfg replica.StandbyConfig) (*replica.Standby, func() error) {
				rt, err := rtnet.New(rtnet.Config{RingNodes: propRing, TerminalsPerNode: propTerminals,
					QueueCells: map[core.Priority]float64{1: 1e6}})
				if err != nil {
					t.Fatal(err)
				}
				dur, err := wire.OpenDurable(wire.DurableConfig{
					StatePath: filepath.Join(filepath.Dir(path), "state.json"), JournalPath: path, FS: fsys,
					Mode: wire.DurabilityJournalSync, CompactRecords: 10 * records, CompactBytes: 1 << 40,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := dur.Recover(rt.Core()); err != nil {
					t.Fatal(err)
				}
				srv := wire.NewServer(rt.Core())
				srv.SetDurable(dur)
				srv.SetStandby(true)
				return replica.NewStandby(srv, cfg), dur.Close
			},
		},
		{
			name: "intent-log",
			payload: func(seq uint64) any {
				return shard.IntentRecord{Seq: seq, State: shard.IntentBegin, Txn: fmt.Sprintf("x%d-c", seq)}
			},
			tail: func(t *testing.T, fsys journal.FS, path string, cfg replica.StandbyConfig) (*replica.Standby, func() error) {
				log, _, _, err := shard.OpenIntentLog(fsys, path)
				if err != nil {
					t.Fatal(err)
				}
				return shard.NewStandbyCoordinator(log, cfg), log.Close
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The primary's log, and the stream carrying it.
			var source, stream bytes.Buffer
			end := make([]int64, records+1) // end[seq]: source length through seq
			for seq := uint64(1); seq <= records; seq++ {
				payload, err := json.Marshal(tc.payload(seq))
				if err != nil {
					t.Fatal(err)
				}
				source.Write(journal.EncodeRawFrame(payload))
				end[seq] = int64(source.Len())
				if err := replica.WriteMsg(&stream, replica.Msg{Type: replica.MsgRecord, Epoch: 1, Seq: seq, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}

			path := filepath.Join(t.TempDir(), "tail.log")
			fsys := &fsyncFS{path: path}
			var mu sync.Mutex
			var acked uint64
			var ahead []string
			done := make(chan struct{})
			conn := &fakePrimary{stream: bytes.NewReader(stream.Bytes()), closed: make(chan struct{}), onMsg: func(m replica.Msg) {
				if m.Type != replica.MsgAck {
					return
				}
				_, synced := fsys.counts()
				mu.Lock()
				defer mu.Unlock()
				if m.Seq > records || synced < end[m.Seq] {
					ahead = append(ahead, fmt.Sprintf("ack %d with %d bytes synced", m.Seq, synced))
				}
				if m.Seq == records && acked < records {
					close(done)
				}
				acked = max(acked, m.Seq)
			}}
			dialed := false
			sb, closeLog := tc.tail(t, fsys, path, replica.StandbyConfig{PrimaryAddr: "primary"})
			replica.SetDial(sb, func(string) (net.Conn, error) {
				if dialed {
					return nil, errors.New("one session only")
				}
				dialed = true
				return conn, nil
			})
			before, _ := fsys.counts()
			runDone := make(chan error, 1)
			go func() { runDone <- sb.Run() }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				mu.Lock()
				defer mu.Unlock()
				t.Fatalf("the standby acknowledged %d of %d records", acked, records)
			}
			sb.Close()
			if err := <-runDone; err != nil {
				t.Fatalf("standby run: %v", err)
			}
			if err := closeLog(); err != nil {
				t.Fatal(err)
			}

			syncs, _ := fsys.counts()
			t.Logf("%d records, %d fsyncs", records, syncs-before)
			if n := syncs - before; n > records/4 {
				t.Errorf("the standby fsynced %d times for %d records, want at most %d", n, records, records/4)
			}
			if len(ahead) > 0 {
				t.Errorf("acks ran ahead of their fsync: %v", ahead)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, source.Bytes()) {
				t.Errorf("the tailer's log (%d bytes) is not byte-identical to the primary's (%d bytes)", len(got), source.Len())
			}
		})

		// A tailer whose fsync fails acknowledges nothing and stops: its
		// dead disk is not the primary's silence, so it neither promotes
		// past the failover timeout nor dials the primary to fence it, and
		// a manual promotion is refused too.
		t.Run(tc.name+"-failed-fsync", func(t *testing.T) {
			var stream bytes.Buffer
			for seq := uint64(1); seq <= 50; seq++ {
				payload, err := json.Marshal(tc.payload(seq))
				if err != nil {
					t.Fatal(err)
				}
				if err := replica.WriteMsg(&stream, replica.Msg{Type: replica.MsgRecord, Epoch: 1, Seq: seq, Payload: payload}); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "tail.log")
			fsys := &fsyncFS{path: path}
			var mu sync.Mutex
			var sent []string
			dials := 0
			conn := &fakePrimary{stream: bytes.NewReader(stream.Bytes()), closed: make(chan struct{}), onMsg: func(m replica.Msg) {
				mu.Lock()
				sent = append(sent, m.Type)
				mu.Unlock()
			}}
			sb, closeLog := tc.tail(t, fsys, path, replica.StandbyConfig{
				PrimaryAddr:     "primary",
				FailoverTimeout: 20 * time.Millisecond,
			})
			replica.SetDial(sb, func(string) (net.Conn, error) {
				mu.Lock()
				defer mu.Unlock()
				if dials++; dials > 1 {
					return nil, errors.New("primary unreachable")
				}
				return conn, nil
			})
			defer closeLog()
			fsys.mu.Lock()
			fsys.fail = true
			fsys.mu.Unlock()
			runDone := make(chan error, 1)
			go func() { runDone <- sb.Run() }()
			select {
			case err := <-runDone:
				if err == nil {
					t.Fatal("standby run = nil (promoted or closed) after its fsync failed, want the failure")
				}
			case <-time.After(5 * time.Second):
				sb.Close()
				t.Fatal("the standby kept running on a log whose fsync failed")
			}
			if _, err := sb.Promote(); err == nil {
				t.Error("a standby whose fsync failed was promoted")
			}
			time.Sleep(50 * time.Millisecond) // a fence would be dialled by now
			mu.Lock()
			defer mu.Unlock()
			if dials != 1 {
				t.Errorf("the standby dialled %d times, want 1: no fence may reach the primary", dials)
			}
			for _, typ := range sent {
				if typ != replica.MsgHello {
					t.Errorf("the standby sent %s on a failed log; want only its hello", typ)
				}
			}
		})
	}
}
