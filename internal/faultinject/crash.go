// Crash injection: a deterministic harness for the durability path. A
// CrashFS sits under the server's snapshot store and write-ahead journal
// and kills the persistence stack at an exact write/sync/truncate/rename
// boundary — modelling a process kill or a power loss (optionally with a
// torn half-written tail). The CrashHarness then drives a live wire
// server through a scripted admission sequence, crashes it at every
// boundary in turn, restarts from the surviving files, and asserts the
// recovery contract: the recovered admitted set equals the acked set
// exactly — no acked admission lost, no unacked or torn-down admission
// resurrected.
package faultinject

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/rtnet"
	"atmcac/internal/wire"
)

// ErrCrash is returned by every CrashFS operation at and after the
// injected crash point — the filesystem is dead from then on, exactly as
// it is to a killed process.
var ErrCrash = errors.New("faultinject: injected crash")

// LossModel selects what survives of a file's tail at the crash point.
type LossModel int

const (
	// KeepAll models a process kill: every write that completed survives
	// (the OS still holds the data), only the crashing operation is lost.
	KeepAll LossModel = iota
	// DropUnsynced models a power loss: bytes written but not yet fsynced
	// are gone.
	DropUnsynced
	// TearUnsynced models a power loss that persisted half of the
	// unsynced tail — a torn frame the recovery path must detect,
	// preserve as evidence, and truncate.
	TearUnsynced
)

// String labels the model for test names.
func (m LossModel) String() string {
	switch m {
	case KeepAll:
		return "process-kill"
	case DropUnsynced:
		return "power-loss"
	case TearUnsynced:
		return "power-loss-torn"
	}
	return fmt.Sprintf("LossModel(%d)", int(m))
}

// CrashFS implements journal.FS over the real filesystem, counting every
// durability boundary (write, sync, truncate, rename, directory sync) and
// failing permanently once the armed boundary is reached. At the crash it
// rewrites the tracked files per the loss model, so what a restarted
// server reads is what a real crash would have left.
type CrashFS struct {
	inner journal.FS
	model LossModel

	mu      sync.Mutex
	crashAt int // boundary index that fails; -1 never crashes
	ops     int
	crashed bool
	files   map[string]*crashTrack
}

// crashTrack follows one file's written vs synced length.
type crashTrack struct {
	size   int64
	synced int64
}

// NewCrashFS returns a filesystem that fails at boundary crashAt
// (0-based; -1 disables injection) under the given loss model.
func NewCrashFS(crashAt int, model LossModel) *CrashFS {
	return &CrashFS{
		inner:   journal.OSFS{},
		model:   model,
		crashAt: crashAt,
		files:   make(map[string]*crashTrack),
	}
}

// Boundaries returns how many durability boundaries executed so far — a
// dry run with injection disabled measures a scenario's boundary count.
func (c *CrashFS) Boundaries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Crashed reports whether the armed boundary was reached.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// ForceCrash kills the filesystem now, regardless of the armed write
// boundary, applying the loss model to every tracked file. The
// replication harness crashes at protocol instants (pre-append,
// post-append, post-ship) that are not write boundaries.
func (c *CrashFS) ForceCrash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return
	}
	c.crashed = true
	c.applyLoss()
}

// track returns the bookkeeping entry for path, creating it sized to the
// file's current on-disk length (a journal carried over from a previous
// epoch starts fully synced).
func (c *CrashFS) track(path string) *crashTrack {
	t, ok := c.files[path]
	if !ok {
		var size int64
		if info, err := os.Stat(path); err == nil {
			size = info.Size()
		}
		t = &crashTrack{size: size, synced: size}
		c.files[path] = t
	}
	return t
}

// boundary runs exec as one durability boundary, or crashes instead.
func (c *CrashFS) boundary(exec func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrCrash
	}
	if c.ops == c.crashAt {
		c.crashed = true
		c.applyLoss()
		return ErrCrash
	}
	c.ops++
	return exec()
}

// applyLoss rewrites every tracked file to what the loss model says
// survives the crash. Called with mu held.
func (c *CrashFS) applyLoss() {
	if c.model == KeepAll {
		return
	}
	for path, t := range c.files {
		keep := t.synced
		if c.model == TearUnsynced {
			keep = t.synced + (t.size-t.synced+1)/2
		}
		if keep < t.size {
			_ = os.Truncate(path, keep)
		}
	}
}

// crashFile wraps one handle, reporting each mutation as a boundary.
type crashFile struct {
	c    *CrashFS
	f    journal.File
	path string
}

func (f *crashFile) Write(p []byte) (int, error) {
	err := f.c.boundary(func() error {
		n, werr := f.f.Write(p)
		f.c.track(f.path).size += int64(n)
		return werr
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *crashFile) Sync() error {
	return f.c.boundary(func() error {
		if err := f.f.Sync(); err != nil {
			return err
		}
		t := f.c.track(f.path)
		t.synced = t.size
		return nil
	})
}

func (f *crashFile) Truncate(size int64) error {
	return f.c.boundary(func() error {
		if err := f.f.Truncate(size); err != nil {
			return err
		}
		t := f.c.track(f.path)
		t.size = size
		if t.synced > size {
			t.synced = size
		}
		return nil
	})
}

// Close is not a boundary: closing neither persists nor loses data, and
// after a crash the real handle must still be released.
func (f *crashFile) Close() error {
	err := f.f.Close()
	f.c.mu.Lock()
	crashed := f.c.crashed
	f.c.mu.Unlock()
	if crashed {
		return ErrCrash
	}
	return err
}

// OpenFile implements journal.FS. Opening is not a boundary (it does not
// move data), but a crashed filesystem refuses it.
func (c *CrashFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	c.mu.Lock()
	if c.crashed {
		c.mu.Unlock()
		return nil, ErrCrash
	}
	if flag&os.O_TRUNC != 0 {
		t := c.track(name)
		t.size = 0
		if t.synced > 0 {
			t.synced = 0
		}
	} else {
		c.track(name)
	}
	c.mu.Unlock()
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &crashFile{c: c, f: f, path: name}, nil
}

// ReadFile implements journal.FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, ErrCrash
	}
	return c.inner.ReadFile(name)
}

// WriteFile implements journal.FS as one write boundary.
func (c *CrashFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return c.boundary(func() error {
		if err := c.inner.WriteFile(name, data, perm); err != nil {
			return err
		}
		t := c.track(name)
		t.size = int64(len(data))
		t.synced = 0
		return nil
	})
}

// Rename implements journal.FS as one boundary; the tracking entry moves
// with the file and counts as synced once the directory is synced, which
// SaveState does right after.
func (c *CrashFS) Rename(oldname, newname string) error {
	return c.boundary(func() error {
		if err := c.inner.Rename(oldname, newname); err != nil {
			return err
		}
		if t, ok := c.files[oldname]; ok {
			c.files[newname] = t
			delete(c.files, oldname)
		}
		return nil
	})
}

// Remove implements journal.FS.
func (c *CrashFS) Remove(name string) error {
	c.mu.Lock()
	crashed := c.crashed
	if !crashed {
		delete(c.files, name)
	}
	c.mu.Unlock()
	if crashed {
		return ErrCrash
	}
	return c.inner.Remove(name)
}

// Stat implements journal.FS.
func (c *CrashFS) Stat(name string) (fs.FileInfo, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, ErrCrash
	}
	return c.inner.Stat(name)
}

// Truncate implements journal.FS as one boundary.
func (c *CrashFS) Truncate(name string, size int64) error {
	return c.boundary(func() error {
		if err := c.inner.Truncate(name, size); err != nil {
			return err
		}
		t := c.track(name)
		t.size = size
		if t.synced > size {
			t.synced = size
		}
		return nil
	})
}

// SyncDir implements journal.FS as one boundary; a synced directory
// makes the files renamed into it durable. (File-data sync state is
// unchanged — renames of already-synced files are what it persists.)
func (c *CrashFS) SyncDir(name string) error {
	return c.boundary(func() error {
		return c.inner.SyncDir(name)
	})
}

// CrashHarness drives one scripted admission sequence against a live
// wire server whose persistence runs through a CrashFS, then restarts
// and verifies recovery. Scripts reuse the faultinject Script/Event
// vocabulary (setup / teardown / fail / restore).
type CrashHarness struct {
	// Ring and Terminals shape the RTnet network (defaults 4 and 2).
	Ring, Terminals int
	// Mode is the durability mode under test (default journal-sync).
	Mode wire.DurabilityMode
	// Loss is the crash's loss model (default DropUnsynced).
	Loss LossModel
	// CompactRecords forces frequent compaction so crash points land
	// inside it (default 3).
	CompactRecords int
	// StatePath locates the snapshot; the journal is StatePath+".journal".
	StatePath string
	// Script is the op sequence; every event must carry a PCR small
	// enough that CAC admits it, so ack bookkeeping stays deterministic.
	Script Script
}

func (h *CrashHarness) defaults() {
	if h.Ring == 0 {
		h.Ring = 4
	}
	if h.Terminals == 0 {
		h.Terminals = 2
	}
	if h.Mode == "" {
		h.Mode = wire.DurabilityJournalSync
	}
	if h.CompactRecords == 0 {
		h.CompactRecords = 3
	}
}

// boot recovers the harness's files through fsys and serves them.
func (h *CrashHarness) boot(fsys journal.FS) (*node, error) {
	return boot(nodeConfig{
		state:   h.StatePath,
		fs:      fsys,
		mode:    h.Mode,
		compact: h.CompactRecords,
		ring:    rtnet.Config{RingNodes: h.Ring, TerminalsPerNode: h.Terminals},
	})
}

// CrashResult reports one injected-crash run.
type CrashResult struct {
	// CrashedAt is the boundary that was killed; -1 when the script
	// finished before the armed boundary was reached.
	CrashedAt int
	// TornRepaired reports that recovery found and repaired a torn tail.
	TornRepaired bool
}

// expectation tracks the acked admission set during a script.
type expectation struct {
	ids map[core.ConnID]struct{}
	// ambiguous is set when the crash interrupted an op whose durable
	// outcome is legitimately either pre- or post-op (a fail-link or
	// restore-link whose warning-only persistence was killed).
	ambiguous bool
	pre       map[core.ConnID]struct{}
}

func newExpectation() *expectation {
	return &expectation{ids: make(map[core.ConnID]struct{})}
}

func (e *expectation) clone() map[core.ConnID]struct{} {
	cp := make(map[core.ConnID]struct{}, len(e.ids))
	for id := range e.ids {
		cp[id] = struct{}{}
	}
	return cp
}

func idsString(m map[core.ConnID]struct{}) string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// Run executes the script with a crash armed at boundary crashAt
// (-1: none), restarts after the crash, verifies the recovery contract,
// finishes the remaining script on the recovered server, and verifies
// again. It returns what happened for the caller's coverage accounting.
func (h *CrashHarness) Run(crashAt int) (*CrashResult, *CrashFS, error) {
	h.defaults()
	if h.StatePath == "" {
		return nil, nil, fmt.Errorf("faultinject: CrashHarness needs a StatePath")
	}
	cfs := NewCrashFS(crashAt, h.Loss)
	res := &CrashResult{CrashedAt: -1}
	exp := newExpectation()

	first, err := h.boot(cfs)
	next := 0
	if err != nil {
		// The crash landed inside boot-time recovery/compaction; nothing
		// was served, nothing was acked beyond what the files already
		// held (an empty set on the harness's fresh directory). Fall
		// through to the restart below.
		if !cfs.Crashed() {
			return nil, cfs, fmt.Errorf("faultinject: boot: %w", err)
		}
		res.CrashedAt = crashAt
	} else {
		defer first.crash()
		for ; next < len(h.Script); next++ {
			ev := h.Script[next]
			pre := exp.clone()
			ok, err := h.applyAcked(first, ev, exp)
			if err != nil {
				return nil, cfs, err
			}
			if crashed := cfs.Crashed(); crashed {
				res.CrashedAt = crashAt
				if !ok {
					// The op was refused (journal append failed, state
					// rolled back): its effect must not be recovered, and
					// exp already excludes it.
				} else if ev.Kind == KindFail || ev.Kind == KindRestore {
					// A warning-only op acked while the crash fired: the
					// record may or may not be durable, so both the pre-
					// and post-op sets are legal recovery outcomes.
					exp.ambiguous = true
					exp.pre = pre
				}
				next++
				break
			}
			if !ok {
				return nil, cfs, fmt.Errorf("faultinject: event %d (%s %s) failed without a crash",
					next, ev.Kind, ev.ID)
			}
		}
		first.crash()
	}

	// Second epoch on the pristine filesystem: recover, check the
	// contract, finish the script, check again.
	second, err := h.boot(journal.OSFS{})
	if err != nil {
		return nil, cfs, fmt.Errorf("faultinject: recovery boot: %w", err)
	}
	defer second.crash()
	if second.report.TornPath != "" {
		res.TornRepaired = true
	}
	if len(second.report.Failed) > 0 {
		return nil, cfs, fmt.Errorf("faultinject: recovery rejected %d stored connections: %+v",
			len(second.report.Failed), second.report.Failed)
	}
	if err := checkRecovered(second, exp); err != nil {
		return nil, cfs, err
	}
	exp.ambiguous = false
	for ; next < len(h.Script); next++ {
		if _, err := h.applyAcked(second, h.Script[next], exp); err != nil {
			return nil, cfs, err
		}
	}
	if err := checkRecovered(second, exp); err != nil {
		return nil, cfs, err
	}
	if v, err := second.net.Audit(); err != nil || len(v) > 0 {
		return nil, cfs, fmt.Errorf("faultinject: audit after recovery: violations=%v err=%v", v, err)
	}
	return res, cfs, nil
}

// checkRecovered asserts the recovery contract against the live state.
func checkRecovered(n *node, exp *expectation) error {
	got := make(map[core.ConnID]struct{})
	for _, id := range n.net.Connections() {
		got[id] = struct{}{}
	}
	want := exp.ids
	if idsString(got) == idsString(want) {
		return nil
	}
	if exp.ambiguous && exp.pre != nil && idsString(got) == idsString(exp.pre) {
		// The interrupted warning-only op may legally be absent.
		return nil
	}
	return fmt.Errorf("faultinject: recovered set {%s} != acked set {%s}%s",
		idsString(got), idsString(want), ambiguousNote(exp))
}

func ambiguousNote(exp *expectation) string {
	if exp.ambiguous && exp.pre != nil {
		return fmt.Sprintf(" (also accepted: {%s})", idsString(exp.pre))
	}
	return ""
}

// applyAcked executes one event on n, updating the acked expectation.
// It returns ok=false when the crash interrupted the op (error response,
// dead connection, or a persistence warning on a warning-only op) — the
// epoch is over.
func (h *CrashHarness) applyAcked(n *node, ev Event, exp *expectation) (bool, error) {
	rep, refused, err := n.apply(ev)
	if err != nil {
		return false, err
	}
	var remote *wire.RemoteError
	switch {
	case ev.Kind == KindSetup && errors.As(refused, &remote) && remote.Code == core.CodeDuplicate:
		// Replayed after a restart against an op that did land.
		refused = nil
	case ev.Kind == KindTeardown && errors.As(refused, &remote) && remote.Code == core.CodeUnknownConn:
		refused = nil
	}
	if refused != nil {
		// A journal-refused op was rolled back and not acked.
		return false, nil
	}
	switch ev.Kind {
	case KindSetup:
		exp.ids[ev.ID] = struct{}{}
	case KindTeardown:
		delete(exp.ids, ev.ID)
	case KindFail:
		for _, o := range rep.Outcomes {
			if !o.Readmitted {
				delete(exp.ids, o.ID)
			}
		}
	}
	return true, nil
}
