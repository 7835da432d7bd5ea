// Replication chaos: a deterministic harness for the hot-standby pair.
// A primary and a warm standby run as two nodes of the fleet fixture
// (own network, own durability files, own replication endpoints), the
// standby following the primary through a cuttable link. The harness kills the primary at every
// replication-critical instant — before the local append, after the
// append but before the ship, after the ship but before the client ack,
// and at every filesystem write boundary including mid-compaction — or
// partitions the replication link, then promotes the standby and
// asserts the takeover oracle: the promoted standby's admission state
// equals the serial replay of the acked operations, with only the
// single interrupted operation allowed to be either pre- or post-state.
// The fenced ex-primary must refuse writes (split-brain guard), and a
// rejoin as standby of the new primary must converge to its state.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// ReplicaPoint selects where the harness kills or cuts.
type ReplicaPoint string

const (
	// PointPreAppend kills the primary before the record is journaled:
	// the operation must vanish everywhere.
	PointPreAppend ReplicaPoint = "pre-append"
	// PointPostAppend kills between the local append and the ship: the
	// record is durable only on the dead primary; the operation was
	// never acked, and a sync-mode rejoin must not resurrect it.
	PointPostAppend ReplicaPoint = "post-append"
	// PointPostShip kills between the standby's acknowledgement and the
	// client ack: the record is durable on both, the client never heard.
	PointPostShip ReplicaPoint = "post-ship"
	// PointFSBoundary kills the primary's filesystem at an armed write
	// boundary (see CrashFS) — the sweep covers appends, snapshot
	// writes and every instant of a compaction.
	PointFSBoundary ReplicaPoint = "fs-boundary"
	// PointPartition cuts the replication link without killing anyone:
	// sync-mode writes on the primary must be refused and rolled back,
	// the promoted standby must fence the old primary, and the fenced
	// node must refuse writes with the split-brain code.
	PointPartition ReplicaPoint = "partition"
)

// ReplicaFault arms one fault: a protocol point at the OpIndex-th
// journaled operation, an FS boundary, or a partition after OpIndex
// acked operations.
type ReplicaFault struct {
	Point    ReplicaPoint
	OpIndex  int
	Boundary int
}

// ReplicaResult reports one harness run.
type ReplicaResult struct {
	// CrashedAtOp is the script index the fault interrupted (-1: none).
	CrashedAtOp int
	// PromotedEpoch is the standby's term after takeover.
	PromotedEpoch uint64
	// StandbyState is the promoted standby's admission state key.
	StandbyState string
}

// ReplicaHarness drives one scripted admission sequence against a
// replicated pair and verifies the takeover contract.
type ReplicaHarness struct {
	// Ring and Terminals shape both networks (defaults 4 and 2).
	Ring, Terminals int
	// Mode is the replication mode under test (default sync — the mode
	// whose takeover oracle is exact).
	Mode replica.Mode
	// Loss is the primary-side crash loss model (default DropUnsynced).
	Loss LossModel
	// CompactRecords forces frequent compaction so faults land inside
	// it (default 3).
	CompactRecords int
	// Dir holds the pair's durability files (primary/, standby/).
	Dir string
	// Script is the op sequence (same vocabulary as CrashHarness).
	Script Script
}

func (h *ReplicaHarness) defaults() {
	if h.Ring == 0 {
		h.Ring = 4
	}
	if h.Terminals == 0 {
		h.Terminals = 2
	}
	if h.Mode == "" {
		h.Mode = replica.ModeSync
	}
	if h.CompactRecords == 0 {
		h.CompactRecords = 3
	}
}

// boot recovers and serves one pair member from dir: a primary shipping
// in the harness's mode, and a standby of follow unless follow is empty.
func (h *ReplicaHarness) boot(dir string, fsys journal.FS, cp *wire.CrashPoints, follow string) (*node, error) {
	return boot(nodeConfig{
		state:   filepath.Join(dir, "state.json"),
		fs:      fsys,
		compact: h.CompactRecords,
		ring:    rtnet.Config{RingNodes: h.Ring, TerminalsPerNode: h.Terminals},
		crash:   cp,
		ship:    h.Mode,
		follow:  follow,
	})
}

// stateKey canonicalizes a network's admission state for comparison:
// sorted connection IDs plus sorted failed links. nil is the empty
// state (a primary whose boot never finished).
func stateKey(c *core.Network) string {
	if c == nil {
		return "conns{} down{}"
	}
	ids := make([]string, 0)
	for _, id := range c.Connections() {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	links := make([]string, 0)
	for _, l := range c.FailedLinks() {
		links = append(links, l.From+"->"+l.To)
	}
	sort.Strings(links)
	return "conns{" + strings.Join(ids, ",") + "} down{" + strings.Join(links, ",") + "}"
}

// Run executes the armed fault scenario end to end: boot the pair, wait
// for the stream, apply the script until the fault fires, fail the
// primary over, verify the takeover oracle on the promoted standby,
// rejoin the ex-primary as the new standby, and verify convergence plus
// post-failover liveness. See the point constants for per-fault
// semantics.
func (h *ReplicaHarness) Run(fault ReplicaFault) (*ReplicaResult, *CrashFS, error) {
	h.defaults()
	if h.Dir == "" {
		return nil, nil, fmt.Errorf("faultinject: ReplicaHarness needs a Dir")
	}
	pdir := filepath.Join(h.Dir, "primary")
	// The standby boots first (with its own replication listener, which
	// it will serve from after promotion), following the primary through
	// a cuttable link that is pointed at the primary once it is up — so
	// the standby is already dialing and retrying when the primary comes
	// up, including when the primary's boot itself crashes.
	link, err := newTCPProxy("")
	if err != nil {
		return nil, nil, err
	}
	defer link.Close()
	sn, err := h.boot(filepath.Join(h.Dir, "standby"), nil, nil, link.addr())
	if err != nil {
		return nil, nil, fmt.Errorf("faultinject: standby boot: %w", err)
	}
	defer sn.crash()
	if fault.Point == PointPartition {
		res, err := h.runPartition(fault, pdir, link, sn)
		return res, nil, err
	}
	return h.runCrash(fault, pdir, link, sn)
}

// runCrash kills the primary at the armed instant and fails over. With
// PointFSBoundary and Boundary -1 nothing is armed: the whole script
// runs clean and the failover is exercised fault-free — the dry run
// that also measures the scenario's boundary count.
func (h *ReplicaHarness) runCrash(fault ReplicaFault, pdir string, link *tcpProxy, sn *node) (*ReplicaResult, *CrashFS, error) {
	crashAt := -1
	if fault.Point == PointFSBoundary {
		crashAt = fault.Boundary
	}
	cfs := NewCrashFS(crashAt, h.Loss)
	res := &ReplicaResult{CrashedAtOp: -1}
	var opIndex atomic.Int32 // index of the journaled op currently executing
	opIndex.Store(-1)
	var crashTarget atomic.Pointer[node]
	var postAppendSeq atomic.Uint64 // the record a post-append kill interrupted
	crash := func() {
		cfs.ForceCrash()
		if n := crashTarget.Load(); n != nil {
			_ = n.prim.Close()
			go n.srv.Close() // async: Close waits for the very handler running this hook
		}
	}
	cp := &wire.CrashPoints{
		PreAppend: func(string) {
			n := opIndex.Add(1)
			if fault.Point == PointPreAppend && int(n) == fault.OpIndex {
				crash()
			}
		},
		PostAppend: func(_ string, seq uint64) {
			if fault.Point == PointPostAppend && int(opIndex.Load()) == fault.OpIndex {
				postAppendSeq.Store(seq)
				crash()
			}
		},
		PostShip: func(string, uint64) {
			if fault.Point == PointPostShip && int(opIndex.Load()) == fault.OpIndex {
				crash()
			}
		},
	}

	pn, err := h.boot(pdir, cfs, cp, "")
	preKey, postKey := stateKey(nil), stateKey(nil)
	if err != nil {
		// The crash landed inside boot: nothing was served or acked, so
		// the takeover must produce the empty state.
		if !cfs.Crashed() {
			return nil, cfs, fmt.Errorf("faultinject: primary boot: %w", err)
		}
		res.CrashedAtOp = 0
	} else {
		crashTarget.Store(pn)
		defer pn.crash()
		link.point(pn.replAddr())
		if !waitFor(5*time.Second, pn.attached) {
			return nil, cfs, fmt.Errorf("faultinject: standby never connected")
		}
		for i, ev := range h.Script {
			preKey = stateKey(pn.net)
			_, _, aerr := pn.apply(ev)
			postKey = stateKey(pn.net)
			if cfs.Crashed() {
				res.CrashedAtOp = i
				break
			}
			if aerr != nil {
				return nil, cfs, fmt.Errorf("faultinject: event %d (%s %s) failed without a crash: %v",
					i, ev.Kind, ev.ID, aerr)
			}
			preKey = postKey
		}
		if res.CrashedAtOp == -1 && fault.Point != PointFSBoundary {
			return nil, cfs, fmt.Errorf("faultinject: fault %s@%d never fired (script too short)",
				fault.Point, fault.OpIndex)
		}
		if res.CrashedAtOp == -1 && crashAt >= 0 {
			return nil, cfs, fmt.Errorf("faultinject: boundary %d never reached (%d executed)",
				crashAt, cfs.Boundaries())
		}
		// Kill whatever survives of the primary (a hook crash leaves the
		// process half-alive on purpose; a clean dry run leaves it all).
		pn.crash()
		if seq := postAppendSeq.Load(); seq != 0 {
			if err := requireOnDisk(filepath.Join(pdir, "state.json.journal"), seq); err != nil {
				return nil, cfs, err
			}
		}
	}

	// Failover: promote the standby and check the takeover oracle — its
	// state must be the serial replay of the acked operations, with only
	// the interrupted operation allowed to be in either state.
	epoch, err := sn.sb.Promote()
	if err != nil {
		return nil, cfs, fmt.Errorf("faultinject: promote: %w", err)
	}
	res.PromotedEpoch = epoch
	got := stateKey(sn.net)
	res.StandbyState = got
	if got != postKey && got != preKey {
		return nil, cfs, fmt.Errorf("faultinject: takeover state %s != acked state %s (nor pre-op %s)",
			got, postKey, preKey)
	}
	if v, aerr := sn.net.Audit(); aerr != nil || len(v) > 0 {
		return nil, cfs, fmt.Errorf("faultinject: audit on promoted standby: violations=%v err=%v", v, aerr)
	}

	// Rejoin: restart the ex-primary from its surviving files as the
	// standby of the new primary, and require convergence. Its journal
	// may hold an un-acked tail the new term never saw; the lower-epoch
	// hello forces a full resync that erases it.
	return res, cfs, h.rejoinAndVerify(pdir, sn)
}

// requireOnDisk checks that the journal at path holds the record with
// sequence seq. A post-append kill lands after the record is durable and
// before it ships, so the dead primary's disk must hold what the standby
// may never have seen — the state a sync-mode rejoin must not resurrect.
func requireOnDisk(path string, seq uint64) error {
	scan, err := journal.ScanFile(journal.OSFS{}, path)
	if err != nil {
		return err
	}
	for _, rec := range scan.Records {
		if rec.Seq == seq {
			return nil
		}
	}
	return fmt.Errorf("faultinject: post-append kill at seq %d left no record on the primary's disk", seq)
}

// rejoinAndVerify boots the ex-primary's files as a standby of the new
// primary (sn), waits for convergence, and then requires post-failover
// liveness: a fresh setup on the new primary must be admitted and
// replicated.
func (h *ReplicaHarness) rejoinAndVerify(exDir string, sn *node) error {
	rn, err := h.boot(exDir, nil, nil, sn.replAddr())
	if err != nil {
		return fmt.Errorf("faultinject: ex-primary rejoin boot: %w", err)
	}
	defer rn.crash()
	want := stateKey(sn.net)
	if !waitFor(5*time.Second, func() bool { return stateKey(rn.net) == want }) {
		return fmt.Errorf("faultinject: rejoined ex-primary state %s never converged to %s",
			stateKey(rn.net), want)
	}
	// Liveness: the promoted primary admits and replicates new work.
	ev := Event{Kind: KindSetup, ID: "post-failover", Origin: 0, PCR: 0.02}
	// A sync-mode refusal is clean (compensated, no mutation) and can
	// happen transiently if the freshly rejoined standby's session blips;
	// retry briefly before declaring the promoted primary dead.
	var refused error
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, refused, err = sn.apply(ev); err != nil || refused == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil || refused != nil {
		return fmt.Errorf("faultinject: post-failover setup refused (refused=%v err=%v)", refused, err)
	}
	want = stateKey(sn.net)
	if !waitFor(5*time.Second, func() bool { return stateKey(rn.net) == want }) {
		return fmt.Errorf("faultinject: post-failover setup did not replicate to the rejoined standby")
	}
	return nil
}

// runPartition cuts the replication link, verifies sync-mode refusal
// and rollback on the primary, promotes the standby, and verifies the
// old primary is fenced with the split-brain code — with no zombie
// mutation landing anywhere.
func (h *ReplicaHarness) runPartition(fault ReplicaFault, pdir string, link *tcpProxy, sn *node) (*ReplicaResult, error) {
	pn, err := h.boot(pdir, nil, nil, "")
	if err != nil {
		return nil, fmt.Errorf("faultinject: primary boot: %w", err)
	}
	defer pn.crash()
	link.point(pn.replAddr())
	if !waitFor(5*time.Second, pn.attached) {
		return nil, fmt.Errorf("faultinject: standby never connected")
	}

	res := &ReplicaResult{CrashedAtOp: -1}
	cutAt := min(fault.OpIndex, len(h.Script))
	for i := 0; i < cutAt; i++ {
		if _, refused, aerr := pn.apply(h.Script[i]); aerr != nil || refused != nil {
			return nil, fmt.Errorf("faultinject: pre-cut event %d failed (refused=%v err=%v)", i, refused, aerr)
		}
	}
	ackedKey := stateKey(pn.net)
	link.Cut()
	res.CrashedAtOp = cutAt

	// Every further sync-mode mutation must be refused — and rolled
	// back, so the primary's state stays exactly the acked set.
	for i := cutAt; i < len(h.Script); i++ {
		_, refused, aerr := pn.apply(h.Script[i])
		if aerr != nil {
			return nil, fmt.Errorf("faultinject: partitioned event %d errored: %v", i, aerr)
		}
		if ev := h.Script[i]; (ev.Kind == KindSetup || ev.Kind == KindTeardown) && refused == nil {
			return nil, fmt.Errorf("faultinject: partitioned %s %s was acked in %s mode",
				ev.Kind, ev.ID, h.Mode)
		}
	}
	if got := stateKey(pn.net); got != ackedKey {
		return nil, fmt.Errorf("faultinject: partitioned primary state %s != acked state %s (rollback failed)",
			got, ackedKey)
	}

	// Fail over across the partition: heal the link just before the
	// promotion so the fence notification can reach the old primary.
	link.Heal()
	epoch, err := sn.sb.Promote()
	if err != nil {
		return nil, fmt.Errorf("faultinject: promote: %w", err)
	}
	res.PromotedEpoch = epoch
	got := stateKey(sn.net)
	res.StandbyState = got
	if got != ackedKey {
		return nil, fmt.Errorf("faultinject: takeover state %s != acked state %s", got, ackedKey)
	}

	// The old primary must fence itself and refuse writes with the
	// split-brain code; its state must not mutate (no zombie writes).
	if !waitFor(5*time.Second, func() bool { return pn.role() == "fenced" }) {
		return nil, fmt.Errorf("faultinject: ex-primary never fenced")
	}
	route, rerr := pn.ring.BroadcastRoute(0, 0)
	if rerr != nil {
		return nil, rerr
	}
	_, serr := pn.client.Setup(context.Background(), core.ConnRequest{ID: "zombie", Spec: traffic.CBR(0.02), Priority: 1, Route: route})
	var remote *wire.RemoteError
	if !errors.As(serr, &remote) || remote.Code != wire.CodeFenced {
		return nil, fmt.Errorf("faultinject: fenced ex-primary setup error = %v, want code %s", serr, wire.CodeFenced)
	}
	if gotP := stateKey(pn.net); gotP != ackedKey {
		return nil, fmt.Errorf("faultinject: fenced ex-primary mutated: %s != %s", gotP, ackedKey)
	}

	// Rejoin and liveness, same contract as the crash path.
	pn.crash()
	return res, h.rejoinAndVerify(pdir, sn)
}
