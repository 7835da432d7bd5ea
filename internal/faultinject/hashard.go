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
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
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

// haPair is one replicated shard: the primary behind a cuttable proxy
// to the coordinator, the standby reachable directly.
type haPair struct {
	primary   *node
	standby   *node
	proxy     *tcpProxy // between the coordinator and the primary
	replProxy *tcpProxy // between the standby and the primary's replication listener
}

// active is the member the coordinator's pool currently drives.
func (p *haPair) active(coord *shard.Coordinator, id string) *node {
	if coord.ActiveAddr(id) == p.standby.addr {
		return p.standby
	}
	return p.primary
}

// Run executes the armed fault end to end against the composed fleet.
func (h *HAShardHarness) Run(fault HAFault) (*HAResult, error) {
	h.defaults()
	if h.Dir == "" {
		return nil, fmt.Errorf("faultinject: HAShardHarness needs a Dir")
	}
	victim, err := victimIndex(fault.Victim, fault.Partition || fault.ReplCut, fault.Point)
	if err != nil {
		return nil, err
	}
	s := newShardScenario(h.SwitchesPerShard, h.PrepareTTL, time.Second)

	// Boot three replicated pairs.
	pairs := make([]*haPair, shardCount)
	var cutArmed atomic.Bool
	for i := range pairs {
		p := &haPair{}
		if p.replProxy, err = newTCPProxy(""); err != nil {
			return nil, err
		}
		defer p.replProxy.Close()
		var cp *wire.CrashPoints
		if fault.ReplCut && i == victim {
			cp = &wire.CrashPoints{PostAppend: func(op string, _ uint64) {
				if op == string(journal.OpShardCommit) && cutArmed.CompareAndSwap(true, false) {
					p.replProxy.Cut()
				}
			}}
		}
		member := func(suffix string) nodeConfig {
			return nodeConfig{
				state:    filepath.Join(h.Dir, shardID(i)+suffix, "state.json"),
				switches: s.slices[i],
				shardID:  shardID(i),
			}
		}
		cfg := member("-p")
		cfg.crash, cfg.ship = cp, replica.ModeSync
		if p.primary, err = boot(cfg); err != nil {
			return nil, fmt.Errorf("faultinject: boot %s primary: %w", shardID(i), err)
		}
		defer p.primary.crash()
		p.replProxy.point(p.primary.replAddr())
		cfg = member("-s")
		cfg.follow = p.replProxy.addr()
		if p.standby, err = boot(cfg); err != nil {
			return nil, fmt.Errorf("faultinject: boot %s standby: %w", shardID(i), err)
		}
		defer p.standby.crash()
		if p.proxy, err = newTCPProxy(p.primary.addr); err != nil {
			return nil, err
		}
		defer p.proxy.Close()
		pairs[i] = p
	}
	// Sync-mode shipping needs every standby attached before traffic.
	for i, p := range pairs {
		if !waitFor(5*time.Second, p.primary.attached) {
			return nil, fmt.Errorf("faultinject: %s standby never connected", shardID(i))
		}
	}
	if err := s.mapFleet(func(i int) string { return pairs[i].proxy.addr() + "|" + pairs[i].standby.addr }); err != nil {
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
	coord, err := s.newCoord(activeLog, activeObs)
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

	// Sync replication puts each acked setup on its standby before the
	// ack, so the load must survive any single member's death.
	if err := s.load(ctx, coord); err != nil {
		return nil, err
	}
	var hit func()
	switch {
	case victim < 0:
	case fault.ReplCut:
		hit = func() { cutArmed.Store(true) }
	case fault.Partition:
		hit = pairs[victim].proxy.Cut
	default:
		hit = pairs[victim].primary.crash
	}
	s.fire(ctx, coord, fault.Point, hit)

	res := &HAResult{}
	if victim < 0 {
		// The active coordinator dies mid-protocol; its standby must
		// promote, and the promoted log must drive recovery.
		if err := s.coordinatorFault(ctx, coord, fault.Point); err != nil {
			return nil, err
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
		succ, err := s.newCoord(standbyLog, standbyObs)
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
		if !errors.Is(s.setupErr, shard.ErrInDoubt) {
			return nil, fmt.Errorf("faultinject: setup across a replication cut at %s: want in doubt, got %v", fault.Point, s.setupErr)
		}
		p := pairs[victim]
		p.replProxy.Heal()
		if !waitFor(5*time.Second, p.primary.attached) {
			return nil, fmt.Errorf("faultinject: %s standby never reattached after the cut", fault.Victim)
		}
	} else if s.setupErr != nil && !errors.Is(s.setupErr, shard.ErrInDoubt) {
		// A single shard-pair fault must NOT lose the in-flight setup:
		// shard-level failover completes it on the survivor, or — when
		// the dying member's commit leg answered not-replicated — the
		// Recover below re-drives the in-doubt commit there.
		return nil, fmt.Errorf("faultinject: setup across %s fault did not survive failover: %v", fault.Point, s.setupErr)
	}

	// Liveness comes before the oracle: at a post-commit fault nothing
	// before the probe touches the dead member, so the probe is also
	// what forces the pool's failover to the survivor.
	if res.Recovered, err = s.settle(ctx, coord, fault.Point); err != nil {
		return nil, err
	}
	res.ShardFailovers = coordObs.reg.Counter("atmcac_shard_failovers_total").Value()
	switch {
	case fault.ReplCut && res.ShardFailovers != 0:
		return nil, fmt.Errorf("faultinject: a replication cut (no process death) caused %d shard failovers", res.ShardFailovers)
	case victim >= 0 && !fault.ReplCut && res.ShardFailovers == 0:
		return nil, fmt.Errorf("faultinject: shard fault resolved without a recorded failover")
	}

	// Oracle. Inspect each pair's surviving active member.
	active := make([]*node, shardCount)
	for i, p := range pairs {
		active[i] = p.active(coord, shardID(i))
	}
	if res.VictimAdmitted, err = s.verify(fault.Point, active); err != nil {
		return nil, err
	}
	if victim >= 0 && !res.VictimAdmitted {
		return nil, fmt.Errorf("faultinject: shard failover failed to complete the in-flight setup")
	}
	if fault.ReplCut {
		// The re-driven commit was confirmed by the standby (sync mode),
		// so the standby must agree with its primary.
		ids, err := pairs[victim].standby.client.List(ctx)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(ids, s.victim.ID) {
			return nil, fmt.Errorf("faultinject: %s standby lacks the re-driven commit: %v", fault.Victim, ids)
		}
	}

	// A partitioned ex-primary, once superseded, must not accept writes:
	// its next replicated mutation is refused (the promoted standby
	// rejects its stale-epoch ship) and the refusal fences it.
	if fault.Partition {
		p := pairs[victim]
		p.proxy.Heal()
		zombie := core.ConnRequest{ID: "zombie", Spec: traffic.CBR(0.02), Priority: 1,
			Route: routeOver(s.slices[victim], portZombie)}
		if _, zerr := p.primary.client.Setup(ctx, zombie); zerr == nil {
			return nil, fmt.Errorf("faultinject: superseded ex-primary accepted a write")
		}
		if !waitFor(5*time.Second, func() bool { return p.primary.role() == "fenced" }) {
			return nil, fmt.Errorf("faultinject: superseded ex-primary never fenced")
		}
	}
	return res, nil
}
