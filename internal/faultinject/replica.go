// Replication chaos: a deterministic harness for the hot-standby pair.
// A primary and a warm standby run as two full wire servers (own
// network, own durability files, own replication endpoints) connected
// by a real TCP stream. The harness kills the primary at every
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
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/failover"
	"atmcac/internal/journal"
	"atmcac/internal/overload"
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

// replicaNode is one member of the pair: a full wire server with its
// own durability files, replication listener and shipping primary; the
// standby role adds the consuming loop.
type replicaNode struct {
	rt     *rtnet.Network
	srv    *wire.Server
	dur    *wire.Durable
	client *wire.Client
	ln     net.Listener
	replLn net.Listener
	done   chan struct{}

	mu       sync.Mutex
	prim     *replica.Primary
	sb       *replica.Standby
	stopOnce sync.Once
}

// partitionDial is an injectable dialer whose link the harness can cut:
// cutting refuses new dials and severs every live connection.
type partitionDial struct {
	mu    sync.Mutex
	cut   bool
	conns map[net.Conn]struct{}
}

func newPartitionDial() *partitionDial {
	return &partitionDial{conns: make(map[net.Conn]struct{})}
}

func (p *partitionDial) dial(addr string) (net.Conn, error) {
	p.mu.Lock()
	cut := p.cut
	p.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("faultinject: replication link partitioned")
	}
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("faultinject: replication link partitioned")
	}
	p.conns[conn] = struct{}{}
	p.mu.Unlock()
	return conn, nil
}

// Cut severs the link; Heal restores it.
func (p *partitionDial) Cut() {
	p.mu.Lock()
	p.cut = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *partitionDial) Heal() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// bootNode builds one pair member on its own ephemeral ports. replLn
// is pre-created by the caller so the standby knows the primary's
// replication address before the primary boots.
func (h *ReplicaHarness) bootNode(statePath string, fsys journal.FS, replLn net.Listener, cp *wire.CrashPoints) (*replicaNode, error) {
	rt, err := rtnet.New(rtnet.Config{RingNodes: h.Ring, TerminalsPerNode: h.Terminals})
	if err != nil {
		return nil, err
	}
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath:      statePath,
		Mode:           wire.DurabilityJournalSync,
		FS:             fsys,
		CompactRecords: h.CompactRecords,
	})
	if err != nil {
		return nil, err
	}
	if _, err := dur.Recover(rt.Core()); err != nil {
		_ = dur.Close()
		return nil, err
	}
	srv := wire.NewServer(rt.Core())
	srv.SetDurable(dur)
	srv.SetCrashPoints(cp)
	eng := failover.New(rt, failover.Options{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	srv.SetFailoverHandler(func(from, to string, evicted []core.ConnRequest) []wire.ReadmitOutcome {
		node, nerr := rtnet.NodeIndex(from)
		outs := make([]wire.ReadmitOutcome, 0, len(evicted))
		if nerr != nil {
			for _, r := range evicted {
				outs = append(outs, wire.ReadmitOutcome{ID: r.ID, Error: nerr.Error()})
			}
			return outs
		}
		rep := eng.Readmit(evicted, node, core.Link{From: from, To: to})
		for _, o := range rep.Outcomes {
			out := wire.ReadmitOutcome{ID: o.ID, Readmitted: o.Readmitted, Attempts: o.Attempts}
			if o.Err != nil {
				out.Error = o.Err.Error()
			}
			outs = append(outs, out)
		}
		return outs
	})
	n := &replicaNode{rt: rt, srv: srv, dur: dur, replLn: replLn}
	n.prim = replica.NewPrimary(srv, replica.PrimaryConfig{
		Mode:           h.Mode,
		AckTimeout:     2 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	srv.SetShipper(n.prim)
	srv.SetReplicationStatus(func(rep *wire.ReplicationReport) {
		n.mu.Lock()
		prim, sb := n.prim, n.sb
		n.mu.Unlock()
		replica.Status(prim, sb)(rep)
	})
	if replLn != nil {
		go n.prim.Serve(replLn)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	n.ln = ln
	n.done = make(chan struct{})
	go func() { defer close(n.done); _ = srv.Serve(ln) }()
	client, err := wire.Dial(ln.Addr().String())
	if err != nil {
		n.stop()
		return nil, err
	}
	n.client = client
	return n, nil
}

// startStandby puts the node in the consuming role, following
// primaryAddr through the (cuttable) dialer.
func (n *replicaNode) startStandby(primaryAddr string, dial func(string) (net.Conn, error)) {
	n.srv.SetStandby(true)
	sb := replica.NewStandby(n.srv, replica.StandbyConfig{
		PrimaryAddr:      primaryAddr,
		Dial:             dial,
		ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	n.mu.Lock()
	n.sb = sb
	n.mu.Unlock()
	go sb.Run()
}

func (n *replicaNode) standby() *replica.Standby {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sb
}

// stop kills the node without a final snapshot — a crash, not a drain.
// Idempotent, so a mid-scenario stop and the deferred cleanup coexist.
func (n *replicaNode) stop() {
	n.stopOnce.Do(func() {
		if sb := n.standby(); sb != nil {
			_ = sb.Close()
		}
		if n.prim != nil {
			_ = n.prim.Close()
		}
		if n.client != nil {
			_ = n.client.Close()
		}
		_ = n.srv.Close()
		if n.done != nil {
			<-n.done
		}
		if n.replLn != nil {
			_ = n.replLn.Close()
		}
		_ = n.dur.Close()
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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
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
	if fault.Point == PointPartition {
		res, err := h.runPartition(fault)
		return res, nil, err
	}
	return h.runCrash(fault)
}

// runCrash kills the primary at the armed instant and fails over. With
// PointFSBoundary and Boundary -1 nothing is armed: the whole script
// runs clean and the failover is exercised fault-free — the dry run
// that also measures the scenario's boundary count.
func (h *ReplicaHarness) runCrash(fault ReplicaFault) (*ReplicaResult, *CrashFS, error) {
	pdir := filepath.Join(h.Dir, "primary")
	sdir := filepath.Join(h.Dir, "standby")
	for _, d := range []string{pdir, sdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, nil, err
		}
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	sReplLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		replLn.Close()
		return nil, nil, err
	}
	crashAt := -1
	if fault.Point == PointFSBoundary {
		crashAt = fault.Boundary
	}
	cfs := NewCrashFS(crashAt, h.Loss)

	// The standby boots first (with its own replication listener, which
	// it will serve from after promotion) so it is already dialing and
	// retrying when the primary comes up — including when the primary's
	// boot itself crashes.
	sn, err := h.bootNode(filepath.Join(sdir, "state.json"), journal.OSFS{}, sReplLn, nil)
	if err != nil {
		replLn.Close()
		sReplLn.Close()
		return nil, cfs, fmt.Errorf("faultinject: standby boot: %w", err)
	}
	defer sn.stop()
	pdial := newPartitionDial()
	sn.startStandby(replLn.Addr().String(), pdial.dial)

	res := &ReplicaResult{CrashedAtOp: -1}
	var opIndex atomic.Int32 // index of the journaled op currently executing
	opIndex.Store(-1)
	var crashTarget atomic.Pointer[replicaNode]
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

	pn, err := h.bootNode(filepath.Join(pdir, "state.json"), cfs, replLn, cp)
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
		defer pn.stop()
		if !waitFor(5*time.Second, func() bool {
			rep, rerr := pn.client.Replication(context.Background())
			return rerr == nil && rep.Connected
		}) {
			return nil, cfs, fmt.Errorf("faultinject: standby never connected")
		}
		failedFrom := -1
		for i, ev := range h.Script {
			preKey = stateKey(pn.rt.Core())
			_, aerr := h.apply(pn, ev, &failedFrom)
			postKey = stateKey(pn.rt.Core())
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
		pn.stop()
		if seq := postAppendSeq.Load(); seq != 0 {
			if err := requireOnDisk(filepath.Join(pdir, "state.json.journal"), seq); err != nil {
				return nil, cfs, err
			}
		}
	}

	// Failover: promote the standby and check the takeover oracle — its
	// state must be the serial replay of the acked operations, with only
	// the interrupted operation allowed to be in either state.
	epoch, err := sn.standby().Promote()
	if err != nil {
		return nil, cfs, fmt.Errorf("faultinject: promote: %w", err)
	}
	res.PromotedEpoch = epoch
	got := stateKey(sn.rt.Core())
	res.StandbyState = got
	if got != postKey && got != preKey {
		return nil, cfs, fmt.Errorf("faultinject: takeover state %s != acked state %s (nor pre-op %s)",
			got, postKey, preKey)
	}
	if v, aerr := sn.rt.Core().Audit(); aerr != nil || len(v) > 0 {
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
func (h *ReplicaHarness) rejoinAndVerify(exDir string, sn *replicaNode) error {
	rn, err := h.bootNode(filepath.Join(exDir, "state.json"), journal.OSFS{}, nil, nil)
	if err != nil {
		return fmt.Errorf("faultinject: ex-primary rejoin boot: %w", err)
	}
	defer rn.stop()
	rdial := newPartitionDial()
	rn.startStandby(sn.replLn.Addr().String(), rdial.dial)
	want := stateKey(sn.rt.Core())
	if !waitFor(5*time.Second, func() bool { return stateKey(rn.rt.Core()) == want }) {
		return fmt.Errorf("faultinject: rejoined ex-primary state %s never converged to %s",
			stateKey(rn.rt.Core()), want)
	}
	// Liveness: the promoted primary admits and replicates new work.
	failedFrom := -1
	for _, l := range sn.rt.Core().FailedLinks() {
		if node, nerr := rtnet.NodeIndex(l.From); nerr == nil {
			failedFrom = node
		}
	}
	ev := Event{Kind: KindSetup, ID: "post-failover", Origin: 0, PCR: 0.02}
	// A sync-mode refusal is clean (compensated, no mutation) and can
	// happen transiently if the freshly rejoined standby's session blips;
	// retry briefly before declaring the promoted primary dead.
	var ok bool
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, err = h.apply(sn, ev, &failedFrom); err != nil || ok || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil || !ok {
		return fmt.Errorf("faultinject: post-failover setup refused (ok=%v err=%v)", ok, err)
	}
	want = stateKey(sn.rt.Core())
	if !waitFor(5*time.Second, func() bool { return stateKey(rn.rt.Core()) == want }) {
		return fmt.Errorf("faultinject: post-failover setup did not replicate to the rejoined standby")
	}
	return nil
}

// runPartition cuts the replication link, verifies sync-mode refusal
// and rollback on the primary, promotes the standby, and verifies the
// old primary is fenced with the split-brain code — with no zombie
// mutation landing anywhere.
func (h *ReplicaHarness) runPartition(fault ReplicaFault) (*ReplicaResult, error) {
	pdir := filepath.Join(h.Dir, "primary")
	sdir := filepath.Join(h.Dir, "standby")
	for _, d := range []string{pdir, sdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sReplLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		replLn.Close()
		return nil, err
	}
	sn, err := h.bootNode(filepath.Join(sdir, "state.json"), journal.OSFS{}, sReplLn, nil)
	if err != nil {
		replLn.Close()
		sReplLn.Close()
		return nil, fmt.Errorf("faultinject: standby boot: %w", err)
	}
	defer sn.stop()
	pdial := newPartitionDial()
	sn.startStandby(replLn.Addr().String(), pdial.dial)
	pn, err := h.bootNode(filepath.Join(pdir, "state.json"), journal.OSFS{}, replLn, nil)
	if err != nil {
		return nil, fmt.Errorf("faultinject: primary boot: %w", err)
	}
	defer pn.stop()
	if !waitFor(5*time.Second, func() bool {
		rep, rerr := pn.client.Replication(context.Background())
		return rerr == nil && rep.Connected
	}) {
		return nil, fmt.Errorf("faultinject: standby never connected")
	}

	res := &ReplicaResult{CrashedAtOp: -1}
	failedFrom := -1
	cutAt := fault.OpIndex
	if cutAt > len(h.Script) {
		cutAt = len(h.Script)
	}
	for i := 0; i < cutAt; i++ {
		if ok, aerr := h.apply(pn, h.Script[i], &failedFrom); aerr != nil || !ok {
			return nil, fmt.Errorf("faultinject: pre-cut event %d failed (ok=%v err=%v)", i, ok, aerr)
		}
	}
	ackedKey := stateKey(pn.rt.Core())
	pdial.Cut()
	res.CrashedAtOp = cutAt

	// Every further sync-mode mutation must be refused — and rolled
	// back, so the primary's state stays exactly the acked set.
	refused := 0
	for i := cutAt; i < len(h.Script); i++ {
		ok, aerr := h.apply(pn, h.Script[i], &failedFrom)
		if aerr != nil {
			return nil, fmt.Errorf("faultinject: partitioned event %d errored: %v", i, aerr)
		}
		if ev := h.Script[i]; ev.Kind == KindSetup || ev.Kind == KindTeardown {
			if ok {
				return nil, fmt.Errorf("faultinject: partitioned %s %s was acked in %s mode",
					ev.Kind, ev.ID, h.Mode)
			}
			refused++
		}
	}
	if got := stateKey(pn.rt.Core()); got != ackedKey {
		return nil, fmt.Errorf("faultinject: partitioned primary state %s != acked state %s (rollback failed)",
			got, ackedKey)
	}

	// Fail over across the partition: heal the link just before the
	// promotion so the fence notification can reach the old primary.
	pdial.Heal()
	epoch, err := sn.standby().Promote()
	if err != nil {
		return nil, fmt.Errorf("faultinject: promote: %w", err)
	}
	res.PromotedEpoch = epoch
	got := stateKey(sn.rt.Core())
	res.StandbyState = got
	if got != ackedKey {
		return nil, fmt.Errorf("faultinject: takeover state %s != acked state %s", got, ackedKey)
	}

	// The old primary must fence itself and refuse writes with the
	// split-brain code; its state must not mutate (no zombie writes).
	if !waitFor(5*time.Second, func() bool {
		rep, rerr := pn.client.Replication(context.Background())
		return rerr == nil && rep.Role == "fenced"
	}) {
		return nil, fmt.Errorf("faultinject: ex-primary never fenced")
	}
	route, rerr := pn.rt.BroadcastRoute(0, 0)
	if rerr != nil {
		return nil, rerr
	}
	_, serr := pn.client.Setup(context.Background(), core.ConnRequest{ID: "zombie", Spec: traffic.CBR(0.02), Priority: 1, Route: route})
	var remote *wire.RemoteError
	if !errors.As(serr, &remote) || remote.Code != wire.CodeFenced {
		return nil, fmt.Errorf("faultinject: fenced ex-primary setup error = %v, want code %s", serr, wire.CodeFenced)
	}
	if gotP := stateKey(pn.rt.Core()); gotP != ackedKey {
		return nil, fmt.Errorf("faultinject: fenced ex-primary mutated: %s != %s", gotP, ackedKey)
	}

	// Rejoin and liveness, same contract as the crash path.
	pn.stop()
	return res, h.rejoinAndVerify(pdir, sn)
}

// apply executes one script event over the node's wire client. ok=false
// means the operation was refused or the connection died — not acked.
func (h *ReplicaHarness) apply(n *replicaNode, ev Event, failedFrom *int) (bool, error) {
	switch ev.Kind {
	case KindSetup:
		var route core.Route
		var err error
		if *failedFrom < 0 {
			route, err = n.rt.BroadcastRoute(ev.Origin, ev.Terminal)
		} else {
			route, err = n.rt.WrappedBroadcastRoute(ev.Origin, ev.Terminal, *failedFrom)
		}
		if err != nil {
			return false, fmt.Errorf("faultinject: route for %s: %w", ev.ID, err)
		}
		_, serr := n.client.Setup(context.Background(), core.ConnRequest{
			ID: ev.ID, Spec: traffic.CBR(ev.PCR), Priority: 1,
			Route: route, DelayBound: ev.DelayBound,
		})
		return serr == nil, nil
	case KindTeardown:
		return n.client.Teardown(context.Background(), ev.ID) == nil, nil
	case KindFail:
		if _, ferr := n.client.FailLink(context.Background(), rtnet.SwitchName(ev.Node), rtnet.SwitchName((ev.Node+1)%h.Ring)); ferr != nil {
			return false, nil
		}
		*failedFrom = ev.Node
		return true, nil
	case KindRestore:
		if rerr := n.client.RestoreLink(context.Background(), rtnet.SwitchName(ev.Node), rtnet.SwitchName((ev.Node+1)%h.Ring)); rerr != nil {
			return false, nil
		}
		*failedFrom = -1
		return true, nil
	default:
		return false, fmt.Errorf("%w: unknown kind %q", ErrScript, ev.Kind)
	}
}
