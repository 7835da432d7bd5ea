// HA shard chaos: the composed worst case of the shard and replica
// harnesses. Three shards, each a journaled replicated pair (sync-mode
// primary plus warm standby), fronted by a coordinator that is itself a
// replicated pair (active shipping its intent log to a tailing
// standby). The harness kills a shard primary — or the active
// coordinator — at every 2PC boundary, partitions a pair's primary
// away from the coordinator, or cuts a pair's replication link while
// its commit leg waits on the standby's ack, then asserts the combined
// oracle:
//
//   - no acked setup is lost: every connection acked before the fault
//     is admitted on each owning pair's surviving active member;
//   - no split-brain admission: the interrupted setup lands on ALL
//     active members or on NONE, and a partitioned ex-primary refuses
//     writes once superseded;
//   - zero residual holds after recovery, on every surviving member;
//   - no delay-bound violations on any surviving admission.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// HAFault arms one composed fault: the process named Victim (a shard ID
// whose pair primary dies, or VictimCoordinator for the active
// coordinator) fails at Point. Partition cuts the coordinator's link to
// the victim pair's primary instead of killing it. ReplCut kills no
// process either: armed at Point, it cuts the victim pair's replication
// link once the primary's next shard-commit record is durable, so the
// commit leg waits on an ack that never comes. Point must then precede
// the commit legs.
type HAFault struct {
	Point     ShardPoint
	Victim    string
	Partition bool
	ReplCut   bool
}

// HAResult reports one composed run.
type HAResult struct {
	// VictimAdmitted is the uniform post-fault outcome of the
	// interrupted setup across the pairs' active members.
	VictimAdmitted bool
	// CoordPromoted reports that the standby coordinator took over.
	CoordPromoted bool
	// ShardFailovers counts coordinator-driven shard failovers
	// (from the metrics registry).
	ShardFailovers uint64
	// Recovered summarizes the post-fault intent-log resolution.
	Recovered *shard.RecoverReport
}

// HAShardHarness drives one armed fault through three replicated shard
// pairs and a replicated coordinator pair.
type HAShardHarness struct {
	// Dir holds every member's durability files and both intent logs.
	Dir string
	// SwitchesPerShard shapes each shard's slice of the path (default 2).
	SwitchesPerShard int
	// PrepareTTL bounds the holds (default 5s).
	PrepareTTL time.Duration
	// CoordFailoverTimeout promotes the standby coordinator after this
	// much active-coordinator silence (default 400ms).
	CoordFailoverTimeout time.Duration
}

func (h *HAShardHarness) defaults() {
	if h.SwitchesPerShard == 0 {
		h.SwitchesPerShard = 2
	}
	if h.PrepareTTL == 0 {
		h.PrepareTTL = 5 * time.Second
	}
	if h.CoordFailoverTimeout == 0 {
		h.CoordFailoverTimeout = 400 * time.Millisecond
	}
}

// haMember is one member of a shard pair: a journaled wire server with
// replication attached on the appropriate side.
type haMember struct {
	id   string
	dir  string
	addr string

	network *core.Network
	dur     *wire.Durable
	srv     *wire.Server
	prim    *replica.Primary
	sb      *replica.Standby
	replLn  net.Listener
	obs     *procObs
	done    chan struct{}
	alive   bool
}

// bootHAMember builds one pair member. A primary gets a replication
// listener (replLn), sync-mode shipping and the crash points cp (may be
// nil); a standby follows primaryRepl and starts read-only.
func bootHAMember(id, dir string, switches []string, replLn net.Listener, cp *wire.CrashPoints, primaryRepl string) (*haMember, error) {
	network := core.NewNetwork(core.HardCDV{})
	for _, sw := range switches {
		if _, err := network.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath: filepath.Join(dir, "state.json"),
		Mode:      wire.DurabilityJournalSync,
	})
	if err != nil {
		return nil, err
	}
	if _, err := dur.Recover(network); err != nil {
		_ = dur.Close()
		return nil, err
	}
	srv := wire.NewServer(network)
	srv.SetShardID(id)
	srv.SetDurable(dur)
	srv.SetCrashPoints(cp)
	m := &haMember{id: id, dir: dir, network: network, dur: dur, srv: srv, replLn: replLn, obs: newProcObs()}
	if replLn != nil {
		m.prim = replica.NewPrimary(srv, replica.PrimaryConfig{
			Mode:           replica.ModeSync,
			AckTimeout:     2 * time.Second,
			HeartbeatEvery: 50 * time.Millisecond,
			Tracer:         m.obs.tracer,
		})
		srv.SetShipper(m.prim)
		m.prim.RegisterMetrics(m.obs.reg)
		go func() { _ = m.prim.Serve(replLn) }()
	}
	if primaryRepl != "" {
		srv.SetStandby(true)
		// FailoverTimeout stays zero: in this topology promotion is the
		// COORDINATOR's decision (shard-level failover), not the pair's.
		m.sb = replica.NewStandby(srv, replica.StandbyConfig{
			PrimaryAddr:      primaryRepl,
			ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		m.sb.RegisterMetrics(m.obs.reg)
		go func() { _ = m.sb.Run() }()
	}
	srv.SetReplicationStatus(replica.Status(m.prim, m.sb))
	srv.SetObservability(m.obs.reg, m.obs.tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.crash()
		return nil, err
	}
	m.addr = ln.Addr().String()
	m.done = make(chan struct{})
	go func() { defer close(m.done); _ = srv.Serve(ln) }()
	m.alive = true
	return m, nil
}

// crash kills the member without a final snapshot. Idempotent.
func (m *haMember) crash() {
	if !m.alive && m.done == nil {
		return
	}
	m.alive = false
	if m.sb != nil {
		_ = m.sb.Close()
	}
	if m.prim != nil {
		_ = m.prim.Close()
	}
	_ = m.srv.Close()
	if m.done != nil {
		<-m.done
		m.done = nil
	}
	if m.replLn != nil {
		_ = m.replLn.Close()
	}
	_ = m.dur.Close()
	m.obs.close()
}

// haPair is one replicated shard: primary behind a cuttable proxy,
// standby reachable directly.
type haPair struct {
	id        string
	switches  []string
	primary   *haMember
	standby   *haMember
	proxy     *tcpProxy // between the coordinator and the primary
	replProxy *tcpProxy // between the standby and the primary's replication listener
}

// activeAddr is where the coordinator's pool currently points.
func (p *haPair) activeMemberAddr(coord *shard.Coordinator) string {
	addr := coord.ActiveAddr(p.id)
	if addr == p.standby.addr {
		return p.standby.addr
	}
	// The pool drives the primary through the proxy; inspect it direct.
	return p.primary.addr
}

// standbyAttached reports whether the primary serving addr has a live
// replication session.
func standbyAttached(addr string) bool {
	cl, err := wire.Dial(addr)
	if err != nil {
		return false
	}
	defer cl.Close()
	rep, err := cl.Replication(context.Background())
	return err == nil && rep.Connected
}

// inspect lists one live member's state (reaping expired holds first so
// the residual-hold oracle is about leaks, not pending TTLs).
func inspectMember(addr string) (map[core.ConnID]bool, *wire.HealthReport, *wire.ShardStatusReport, error) {
	cl, err := wire.Dial(addr)
	if err != nil {
		return nil, nil, nil, err
	}
	defer cl.Close()
	ids, err := cl.List(context.Background())
	if err != nil {
		return nil, nil, nil, err
	}
	set := make(map[core.ConnID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	health, err := cl.Health(context.Background())
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := cl.ShardReap(context.Background()); err != nil {
		return nil, nil, nil, err
	}
	st, err := cl.ShardStatus(context.Background())
	if err != nil {
		return nil, nil, nil, err
	}
	return set, health, st, nil
}

// Run executes the armed fault end to end against the composed fleet.
func (h *HAShardHarness) Run(fault HAFault) (*HAResult, error) {
	h.defaults()
	if h.Dir == "" {
		return nil, fmt.Errorf("faultinject: HAShardHarness needs a Dir")
	}

	// Boot three replicated pairs.
	pairs := make([]*haPair, shardCount)
	spec := ""
	sw := 0
	var cutArmed atomic.Bool
	for i := range pairs {
		var owned []string
		for j := 0; j < h.SwitchesPerShard; j++ {
			owned = append(owned, fmt.Sprintf("sw%d", sw))
			sw++
		}
		id := fmt.Sprintf("s%d", i)
		replLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		replProxy, err := newTCPProxy(replLn.Addr().String())
		if err != nil {
			replLn.Close()
			return nil, err
		}
		defer replProxy.Close()
		var cp *wire.CrashPoints
		if fault.ReplCut && id == fault.Victim {
			cp = &wire.CrashPoints{PostAppend: func(op string, _ uint64) {
				if op == string(journal.OpShardCommit) && cutArmed.CompareAndSwap(true, false) {
					replProxy.Cut()
				}
			}}
		}
		prim, err := bootHAMember(id, filepath.Join(h.Dir, id+"-p"), owned, replLn, cp, "")
		if err != nil {
			replLn.Close()
			return nil, fmt.Errorf("faultinject: boot %s primary: %w", id, err)
		}
		defer prim.crash()
		sb, err := bootHAMember(id, filepath.Join(h.Dir, id+"-s"), owned, nil, nil, replProxy.addr())
		if err != nil {
			return nil, fmt.Errorf("faultinject: boot %s standby: %w", id, err)
		}
		defer sb.crash()
		proxy, err := newTCPProxy(prim.addr)
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		pairs[i] = &haPair{id: id, switches: owned, primary: prim, standby: sb, proxy: proxy, replProxy: replProxy}
		if spec != "" {
			spec += ";"
		}
		spec += fmt.Sprintf("%s@%s|%s=%s", id, proxy.addr(), sb.addr, joinComma(owned))
	}
	// Sync-mode shipping needs every standby attached before traffic.
	for _, p := range pairs {
		pp := p
		if !waitFor(5*time.Second, func() bool { return standbyAttached(pp.primary.addr) }) {
			return nil, fmt.Errorf("faultinject: %s standby never connected", p.id)
		}
	}
	m, err := shard.ParseMap(spec)
	if err != nil {
		return nil, err
	}

	// Boot the coordinator pair, two processes: active with a shipping
	// intent log, a standby coordinator tailing it, which becomes the
	// successor coordinator when it promotes.
	activeObs, standbyObs := newProcObs(), newProcObs()
	defer activeObs.close()
	defer standbyObs.close()
	activeLog := filepath.Join(h.Dir, "intent-active.log")
	standbyLog := filepath.Join(h.Dir, "intent-standby.log")
	newCoord := func(logPath string, o *procObs) (*shard.Coordinator, error) {
		c, err := shard.NewCoordinator(m, journal.OSFS{}, logPath)
		if err != nil {
			return nil, err
		}
		c.PrepareTTL = h.PrepareTTL
		c.OpTimeout = time.Second
		c.Retries = 2
		c.SetTracer(o.tracer)
		c.RegisterMetrics(o.reg)
		return c, nil
	}
	coord, err := newCoord(activeLog, activeObs)
	if err != nil {
		return nil, err
	}
	coordObs := activeObs
	defer func() { _ = coord.Close() }()
	intentPrim, err := shard.NewIntentPrimary(coord, replica.PrimaryConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		Tracer:         activeObs.tracer,
	})
	if err != nil {
		return nil, err
	}
	intentPrim.RegisterMetrics(activeObs.reg)
	intentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = intentPrim.Serve(intentLn) }()
	defer intentPrim.Close()
	sbLog, _, _, err := shard.OpenIntentLog(journal.OSFS{}, standbyLog)
	if err != nil {
		return nil, err
	}
	defer sbLog.Close() // a no-op once closed for the successor
	coordSb := shard.NewStandbyCoordinator(sbLog, replica.StandbyConfig{
		PrimaryAddr:     intentLn.Addr().String(),
		FailoverTimeout: h.CoordFailoverTimeout,
	})
	coordSb.RegisterMetrics(standbyObs.reg)
	sbDone := make(chan error, 1)
	go func() { sbDone <- coordSb.Run() }()
	defer coordSb.Close()
	if !waitFor(5*time.Second, intentPrim.Attached) {
		return nil, fmt.Errorf("faultinject: standby coordinator never attached")
	}
	ctx := context.Background()

	victimPair := -1
	for i, p := range pairs {
		if p.id == fault.Victim {
			victimPair = i
		}
	}
	if fault.Victim != VictimCoordinator && victimPair < 0 {
		return nil, fmt.Errorf("faultinject: unknown victim %q", fault.Victim)
	}
	if (fault.Partition || fault.ReplCut) && victimPair < 0 {
		return nil, fmt.Errorf("faultinject: partition needs a shard victim")
	}
	if fault.Point.pastAck() && fault.Victim != VictimCoordinator {
		return nil, fmt.Errorf("faultinject: a fault at %s needs the coordinator as victim", fault.Point)
	}

	// Acked background load: one local setup per pair plus one acked
	// cross-shard setup. Sync replication puts each on its standby
	// before the ack, so they must survive any single member's death.
	acked := make(map[core.ConnID][]int)
	port := core.PortID(1)
	for i, p := range pairs {
		id := core.ConnID(fmt.Sprintf("base-%s", p.id))
		req := core.ConnRequest{ID: id, Spec: traffic.CBR(0.05), Priority: 1,
			Route: routeOver(p.switches, port)}
		if _, err := coord.Setup(ctx, req); err != nil {
			return nil, fmt.Errorf("faultinject: background setup %s: %w", id, err)
		}
		acked[id] = []int{i}
	}
	port++
	baseX := core.ConnRequest{ID: "base-x", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(append(append([]string{}, pairs[0].switches...), pairs[1].switches...), port)}
	if _, err := coord.Setup(ctx, baseX); err != nil {
		return nil, fmt.Errorf("faultinject: background cross-shard setup: %w", err)
	}
	acked["base-x"] = []int{0, 1}

	// Arm the fault and fire the victim transaction across all shards.
	coord.SetTestHook(func(point, txn string) error {
		if ShardPoint(point) != fault.Point {
			return nil
		}
		coord.SetTestHook(nil)
		switch {
		case fault.Victim == VictimCoordinator:
			return errShardCrash
		case fault.ReplCut:
			cutArmed.Store(true)
		case fault.Partition:
			pairs[victimPair].proxy.Cut()
		default:
			pairs[victimPair].primary.crash()
		}
		return nil
	})
	port++
	var all []string
	for _, p := range pairs {
		all = append(all, p.switches...)
	}
	victimReq := core.ConnRequest{ID: "victim", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(all, port), DelayBound: float64(len(all)) * 40}
	_, setupErr := coord.Setup(ctx, victimReq)

	res := &HAResult{}
	if fault.Victim == VictimCoordinator {
		// The active coordinator dies mid-protocol; its standby must
		// promote, and the promoted log must drive recovery.
		if fault.Point.pastAck() {
			if err := checkPastAck(ctx, coord, fault.Point, setupErr); err != nil {
				return nil, err
			}
		} else if !errors.Is(setupErr, errShardCrash) {
			return nil, fmt.Errorf("faultinject: coordinator fault at %s never fired (err=%v)", fault.Point, setupErr)
		}
		intentPrim.Close()
		coord.Kill()
		select {
		case err := <-sbDone:
			if err != nil {
				return nil, fmt.Errorf("faultinject: standby coordinator run: %w", err)
			}
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("faultinject: standby coordinator never promoted")
		}
		res.CoordPromoted = true
		if err := sbLog.Close(); err != nil {
			return nil, err
		}
		succ, err := newCoord(standbyLog, standbyObs)
		if err != nil {
			return nil, err
		}
		standbyObs.tracer.Trace(obs.Event{Kind: obs.KindCoordPromote, Outcome: obs.OutcomeOK, Epoch: succ.Epoch()})
		coord, coordObs = succ, standbyObs
		defer func() { _ = succ.Close() }()
		if got, want := coord.Epoch(), uint64(2); got != want {
			return nil, fmt.Errorf("faultinject: promoted coordinator term = %d, want %d", got, want)
		}
	} else if fault.ReplCut {
		// The victim's commit record is durable on its primary but
		// unconfirmed by the standby: the commit is in doubt, not
		// refused. Recover must re-drive it once the link is back.
		if !errors.Is(setupErr, shard.ErrInDoubt) {
			return nil, fmt.Errorf("faultinject: setup across a replication cut at %s: want in doubt, got %v", fault.Point, setupErr)
		}
		p := pairs[victimPair]
		p.replProxy.Heal()
		if !waitFor(5*time.Second, func() bool { return standbyAttached(p.primary.addr) }) {
			return nil, fmt.Errorf("faultinject: %s standby never reattached after the cut", p.id)
		}
	} else if setupErr != nil && !errors.Is(setupErr, shard.ErrInDoubt) {
		// A single shard-pair fault must NOT lose the in-flight setup:
		// shard-level failover completes it on the survivor, or — when
		// the dying member's commit leg answered not-replicated — the
		// Recover below re-drives the in-doubt commit there.
		return nil, fmt.Errorf("faultinject: setup across %s fault did not survive failover: %v", fault.Point, setupErr)
	}

	res.Recovered, err = coord.Recover(ctx)
	if err != nil {
		return nil, fmt.Errorf("faultinject: recover: %w", err)
	}
	if remaining := coord.InDoubt(); len(remaining) != 0 {
		return nil, fmt.Errorf("faultinject: transactions still in doubt after recovery: %v", remaining)
	}
	if fault.Point.pastAck() {
		if err := checkPastAckRecovery(fault.Point, res.Recovered); err != nil {
			return nil, err
		}
	}
	// Liveness first: a fresh setup over the whole path must admit and
	// tear down cleanly on the surviving fleet. At a post-commit fault
	// nothing before this touches the dead member, so this is also what
	// forces the pool's failover to the survivor.
	var all2 []string
	for _, p := range pairs {
		all2 = append(all2, p.switches...)
	}
	probe := core.ConnRequest{ID: "probe", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(all2, port+1), DelayBound: float64(len(all2)) * 40}
	if _, err := coord.Setup(ctx, probe); err != nil {
		return nil, fmt.Errorf("faultinject: post-recovery probe setup refused: %w", err)
	}
	if err := coord.Teardown(ctx, "probe"); err != nil {
		return nil, fmt.Errorf("faultinject: probe teardown: %w", err)
	}
	res.ShardFailovers = coordObs.reg.Counter("atmcac_shard_failovers_total").Value()
	switch {
	case fault.ReplCut && res.ShardFailovers != 0:
		return nil, fmt.Errorf("faultinject: a replication cut (no process death) caused %d shard failovers", res.ShardFailovers)
	case fault.Victim != VictimCoordinator && !fault.ReplCut && res.ShardFailovers == 0:
		return nil, fmt.Errorf("faultinject: shard fault resolved without a recorded failover")
	}

	// Oracle. Inspect each pair's surviving active member.
	sets := make([]map[core.ConnID]bool, shardCount)
	for i, p := range pairs {
		addr := p.activeMemberAddr(coord)
		set, health, st, err := inspectMember(addr)
		if err != nil {
			return nil, fmt.Errorf("faultinject: inspect %s active member: %w", p.id, err)
		}
		if health.Violations != 0 {
			return nil, fmt.Errorf("faultinject: %s reports %d delay-bound violations", p.id, health.Violations)
		}
		if len(st.Prepared) != 0 {
			return nil, fmt.Errorf("faultinject: %s still holds %v after recovery", p.id, st.Prepared)
		}
		sets[i] = set
	}
	for id, owners := range acked {
		for _, i := range owners {
			if !sets[i][id] {
				return nil, fmt.Errorf("faultinject: acked connection %s lost on %s", id, pairs[i].id)
			}
		}
	}
	on := 0
	for i := range pairs {
		if sets[i]["victim"] {
			on++
		}
	}
	switch on {
	case 0:
		res.VictimAdmitted = false
	case shardCount:
		res.VictimAdmitted = true
	default:
		return nil, fmt.Errorf("faultinject: interrupted setup admitted on %d of %d pairs", on, shardCount)
	}
	if released := fault.Point == ShardPostAckTeardown; setupErr == nil && res.VictimAdmitted == released {
		return nil, fmt.Errorf("faultinject: acked victim setup (released=%v) admitted=%v after recovery", released, res.VictimAdmitted)
	}
	if fault.Victim != VictimCoordinator && !res.VictimAdmitted {
		return nil, fmt.Errorf("faultinject: shard failover failed to complete the in-flight setup")
	}
	if fault.ReplCut {
		// The re-driven commit was confirmed by the standby (sync mode),
		// so the standby must agree with its primary.
		cl, err := wire.Dial(pairs[victimPair].standby.addr)
		if err != nil {
			return nil, err
		}
		ids, err := cl.List(ctx)
		_ = cl.Close()
		if err != nil {
			return nil, err
		}
		if !slices.Contains(ids, "victim") {
			return nil, fmt.Errorf("faultinject: %s standby lacks the re-driven commit: %v", pairs[victimPair].id, ids)
		}
	}

	// A partitioned ex-primary, once superseded, must not accept writes:
	// its next replicated mutation is refused (the promoted standby
	// rejects its stale-epoch ship) and the refusal fences it.
	if fault.Partition {
		pairs[victimPair].proxy.Heal()
		zcl, err := wire.Dial(pairs[victimPair].primary.addr)
		if err != nil {
			return nil, fmt.Errorf("faultinject: redial partitioned ex-primary: %w", err)
		}
		zombie := core.ConnRequest{ID: "zombie", Spec: traffic.CBR(0.02), Priority: 1,
			Route: routeOver(pairs[victimPair].switches, port+5)}
		if _, zerr := zcl.Setup(context.Background(), zombie); zerr == nil {
			_ = zcl.Close()
			return nil, fmt.Errorf("faultinject: superseded ex-primary accepted a write")
		}
		fenced := waitFor(5*time.Second, func() bool {
			rep, rerr := zcl.Replication(context.Background())
			return rerr == nil && rep.Role == "fenced"
		})
		_ = zcl.Close()
		if !fenced {
			return nil, fmt.Errorf("faultinject: superseded ex-primary never fenced")
		}
	}
	return res, nil
}
