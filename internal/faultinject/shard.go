// Shard chaos: a deterministic harness for the cross-shard two-phase
// admission protocol. Three journaled shards (each a full wire server
// with its own durability files) and a coordinator with an intent log
// run over real TCP; the harness kills the coordinator or a shard at
// every protocol-critical instant — before any prepare, after all
// prepares, before the commit intent, after the first shard committed,
// after all shards committed, after the client's ack with the done
// record still unwritten — or partitions a shard away, then recovers
// and asserts the sharding oracle:
//
//   - no acked setup is lost: every connection acked before the fault is
//     admitted on its owning shards after recovery;
//   - no refused setup leaves residual bandwidth: an identical request
//     admits afterwards, and no prepared hold survives;
//   - the interrupted setup resolves uniformly: admitted on ALL its
//     owning shards or on NONE;
//   - delay bounds hold on every surviving admission (no shard reports
//     a guarantee violation).
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
)

// ShardPoint selects the protocol instant where the fault fires. The
// first five match the coordinator's boundary hooks, in protocol order;
// the last two lie past the client's ack and kill the coordinator only.
type ShardPoint string

const (
	// ShardPrePrepare fires after the begin intent, before any prepare.
	ShardPrePrepare ShardPoint = "pre-prepare"
	// ShardPostPrepare fires after every shard holds a reservation.
	ShardPostPrepare ShardPoint = "post-prepare"
	// ShardPreCommit fires just before the commit intent is appended —
	// the last instant where presumed abort still applies.
	ShardPreCommit ShardPoint = "pre-commit"
	// ShardMidCommit fires after the first shard committed, with the
	// rest still holding prepares — the classic 2PC window.
	ShardMidCommit ShardPoint = "mid-commit"
	// ShardPostCommit fires after every shard committed, before the done
	// record.
	ShardPostCommit ShardPoint = "post-commit"
	// ShardPostAck kills the coordinator right after the setup was acked,
	// its done record queued on the intent log but not yet written:
	// recovery finds a commit with no done and must re-drive it
	// idempotently ("commit already applied").
	ShardPostAck ShardPoint = "post-ack"
	// ShardPostAckTeardown is ShardPostAck with the client releasing the
	// connection before the kill: ack, teardown, crash. The teardown must
	// have made the done record durable first — a commit re-driven against
	// shards that no longer hold the connection re-admits it through full
	// CAC, resurrecting what the client released.
	ShardPostAckTeardown ShardPoint = "post-ack-teardown"
)

// pastAck reports whether the point lies after the client's ack, where
// only the coordinator can be the victim and no boundary hook fires.
func (p ShardPoint) pastAck() bool { return p == ShardPostAck || p == ShardPostAckTeardown }

// VictimCoordinator names the coordinator as the process to kill.
const VictimCoordinator = "coordinator"

// ShardFault arms one fault: the process named Victim (the coordinator
// or a shard ID) dies at Point; with Partition set, the victim shard is
// cut off instead of killed — it stays alive (its reaper keeps running)
// but unreachable until the harness heals the link.
type ShardFault struct {
	Point     ShardPoint
	Victim    string
	Partition bool
}

// ShardResult reports one harness run.
type ShardResult struct {
	// VictimAdmitted is the uniform post-recovery outcome of the
	// interrupted setup.
	VictimAdmitted bool
	// Recovered summarizes the intent-log resolution that healed the
	// fleet.
	Recovered *shard.RecoverReport
}

// ShardHarness drives one armed fault through a three-shard fleet.
type ShardHarness struct {
	// Dir holds the shards' durability files and the intent log.
	Dir string
	// SwitchesPerShard shapes each shard's slice of the path (default 2).
	SwitchesPerShard int
	// PrepareTTL bounds the holds (default 5s: recovery, not the reaper,
	// resolves them in these scenarios).
	PrepareTTL time.Duration
}

func (h *ShardHarness) defaults() {
	if h.SwitchesPerShard == 0 {
		h.SwitchesPerShard = 2
	}
	if h.PrepareTTL == 0 {
		h.PrepareTTL = 5 * time.Second
	}
}

const shardCount = 3

// Ports of the scenario's traffic: each connection class enters its
// queues on its own port, so no two classes are link-filtered together.
const (
	portLocal  core.PortID = 1 // one acked setup local to each shard
	portCross  core.PortID = 2 // the acked cross-shard setup
	portVictim core.PortID = 3 // the setup the fault interrupts
	portProbe  core.PortID = 4 // the post-recovery probe
	portZombie core.PortID = 8 // a write to a superseded ex-primary
)

// errShardCrash is the sentinel the boundary hook aborts the coordinator
// with when the coordinator itself is the victim.
var errShardCrash = errors.New("faultinject: injected coordinator crash")

// shardScenario is what the shard and HA-shard harnesses share: three
// shards owning contiguous switch slices, the coordinator wiring, the
// acked background load, the armed victim setup spanning every shard,
// and the oracle run after recovery.
type shardScenario struct {
	slices    [][]string // switches of shard i
	all       []string   // every switch, in path order
	m         *shard.Map
	ttl       time.Duration
	opTimeout time.Duration
	// acked maps each connection acked before the fault to its owning
	// shards.
	acked    map[core.ConnID][]int
	victim   core.ConnRequest
	setupErr error
}

func newShardScenario(perShard int, ttl, opTimeout time.Duration) *shardScenario {
	s := &shardScenario{ttl: ttl, opTimeout: opTimeout, acked: make(map[core.ConnID][]int)}
	for i := 0; i < shardCount; i++ {
		var owned []string
		for j := 0; j < perShard; j++ {
			owned = append(owned, fmt.Sprintf("sw%d", i*perShard+j))
		}
		s.slices = append(s.slices, owned)
		s.all = append(s.all, owned...)
	}
	s.victim = core.ConnRequest{ID: "victim", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(s.all, portVictim), DelayBound: float64(len(s.all)) * 40}
	return s
}

func shardID(i int) string { return fmt.Sprintf("s%d", i) }

// victimIndex validates a fault's victim and returns its shard index, -1
// for the coordinator. cut reports a fault that cuts a link instead of
// killing a process, which needs a shard victim.
func victimIndex(victim string, cut bool, point ShardPoint) (int, error) {
	i := -1
	for j := 0; j < shardCount; j++ {
		if shardID(j) == victim {
			i = j
		}
	}
	switch {
	case victim != VictimCoordinator && i < 0:
		return 0, fmt.Errorf("faultinject: unknown victim %q", victim)
	case cut && i < 0:
		return 0, fmt.Errorf("faultinject: partition needs a shard victim")
	case point.pastAck() && i >= 0:
		return 0, fmt.Errorf("faultinject: a fault at %s needs the coordinator as victim", point)
	}
	return i, nil
}

// mapFleet parses the shard map whose shard i is served at members(i).
func (s *shardScenario) mapFleet(members func(i int) string) error {
	entries := make([]string, len(s.slices))
	for i, owned := range s.slices {
		entries[i] = fmt.Sprintf("%s@%s=%s", shardID(i), members(i), strings.Join(owned, ","))
	}
	m, err := shard.ParseMap(strings.Join(entries, ";"))
	s.m = m
	return err
}

// newCoord opens one coordinator incarnation on the intent log at
// logPath, wired to its process's observability o.
func (s *shardScenario) newCoord(logPath string, o *procObs) (*shard.Coordinator, error) {
	c, err := shard.NewCoordinator(s.m, journal.OSFS{}, logPath)
	if err != nil {
		return nil, err
	}
	c.PrepareTTL = s.ttl
	c.OpTimeout = s.opTimeout
	c.Retries = 2
	c.SetTracer(o.tracer)
	c.RegisterMetrics(o.reg)
	return c, nil
}

// load runs the acked background load: one local setup per shard plus
// one cross-shard setup — the set that must survive whatever happens
// next.
func (s *shardScenario) load(ctx context.Context, coord *shard.Coordinator) error {
	for i, owned := range s.slices {
		id := core.ConnID("base-" + shardID(i))
		req := core.ConnRequest{ID: id, Spec: traffic.CBR(0.05), Priority: 1, Route: routeOver(owned, portLocal)}
		if _, err := coord.Setup(ctx, req); err != nil {
			return fmt.Errorf("faultinject: background setup %s: %w", id, err)
		}
		s.acked[id] = []int{i}
	}
	baseX := core.ConnRequest{ID: "base-x", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(append(append([]string{}, s.slices[0]...), s.slices[1]...), portCross)}
	if _, err := coord.Setup(ctx, baseX); err != nil {
		return fmt.Errorf("faultinject: background cross-shard setup: %w", err)
	}
	s.acked["base-x"] = []int{0, 1}
	return nil
}

// fire arms the fault at point and runs the victim setup. The hook
// aborts a coordinator victim at the point; for a shard victim it runs
// hit there and lets the protocol go on.
func (s *shardScenario) fire(ctx context.Context, coord *shard.Coordinator, point ShardPoint, hit func()) {
	coord.SetTestHook(func(p, txn string) error {
		if ShardPoint(p) != point {
			return nil
		}
		coord.SetTestHook(nil)
		if hit == nil {
			return errShardCrash
		}
		hit()
		return nil
	})
	_, s.setupErr = coord.Setup(ctx, s.victim)
}

// coordinatorFault checks that a coordinator victim's fault fired. Past
// the ack nothing fires: the setup must have been acked, and for
// ShardPostAckTeardown the client releases it before the kill.
func (s *shardScenario) coordinatorFault(ctx context.Context, coord *shard.Coordinator, point ShardPoint) error {
	if !point.pastAck() {
		if !errors.Is(s.setupErr, errShardCrash) {
			return fmt.Errorf("faultinject: coordinator fault at %s never fired (err=%v)", point, s.setupErr)
		}
		return nil
	}
	if s.setupErr != nil {
		return fmt.Errorf("faultinject: victim setup before the %s fault: %w", point, s.setupErr)
	}
	if point == ShardPostAckTeardown {
		if err := coord.Teardown(ctx, s.victim.ID); err != nil {
			return fmt.Errorf("faultinject: victim teardown before the %s fault: %w", point, err)
		}
	}
	return nil
}

// settle resolves the intent log on the surviving fleet and then requires
// liveness: a fresh setup over the whole path admits and tears down — no
// refused setup left residual bandwidth. Past the ack recovery must have
// re-driven the acked setup's commit once and nothing else, or — with the
// connection released before the kill — nothing at all.
func (s *shardScenario) settle(ctx context.Context, coord *shard.Coordinator, point ShardPoint) (*shard.RecoverReport, error) {
	rep, err := coord.Recover(ctx)
	if err != nil {
		return nil, fmt.Errorf("faultinject: recover: %w", err)
	}
	if remaining := coord.InDoubt(); len(remaining) != 0 {
		return nil, fmt.Errorf("faultinject: transactions still in doubt after recovery: %v", remaining)
	}
	if point.pastAck() {
		want := 0
		if point == ShardPostAck {
			want = 1
		}
		if len(rep.Committed) != want || len(rep.Aborted) != 0 {
			return nil, fmt.Errorf("faultinject: recovery after the %s fault re-drove %+v, want %d commits and no abort", point, rep, want)
		}
	}
	probe := s.victim
	probe.ID = "probe"
	probe.Route = routeOver(s.all, portProbe)
	if _, err := coord.Setup(ctx, probe); err != nil {
		return nil, fmt.Errorf("faultinject: post-recovery probe setup refused: %w", err)
	}
	if err := coord.Teardown(ctx, probe.ID); err != nil {
		return nil, fmt.Errorf("faultinject: probe teardown: %w", err)
	}
	return rep, nil
}

// verify inspects each shard's serving member and asserts the oracle: no
// delay-bound violation, no residual hold, no acked setup lost, and the
// interrupted setup on every shard or on none — admitted if the client
// heard it acked, unless the client released it. It returns whether the
// interrupted setup was admitted.
func (s *shardScenario) verify(point ShardPoint, members []*node) (bool, error) {
	sets := make([]map[core.ConnID]bool, len(members))
	for i, n := range members {
		set, health, st, err := n.inspect()
		if err != nil {
			return false, fmt.Errorf("faultinject: inspect %s: %w", shardID(i), err)
		}
		if health.Violations != 0 {
			return false, fmt.Errorf("faultinject: %s reports %d delay-bound violations", shardID(i), health.Violations)
		}
		if len(st.Prepared) != 0 {
			return false, fmt.Errorf("faultinject: %s still holds %v after recovery", shardID(i), st.Prepared)
		}
		sets[i] = set
	}
	for id, owners := range s.acked {
		for _, i := range owners {
			if !sets[i][id] {
				return false, fmt.Errorf("faultinject: acked connection %s lost on %s", id, shardID(i))
			}
		}
	}
	on := 0
	for _, set := range sets {
		if set[s.victim.ID] {
			on++
		}
	}
	if on != 0 && on != len(sets) {
		return false, fmt.Errorf("faultinject: interrupted setup admitted on %d of %d shards", on, len(sets))
	}
	admitted := on != 0
	if released := point == ShardPostAckTeardown; s.setupErr == nil && admitted == released {
		return false, fmt.Errorf("faultinject: acked victim setup (released=%v) admitted=%v after recovery", released, admitted)
	}
	return admitted, nil
}

// Run executes the armed fault end to end. See the package comment for
// the oracle it asserts.
func (h *ShardHarness) Run(fault ShardFault) (*ShardResult, error) {
	h.defaults()
	if h.Dir == "" {
		return nil, fmt.Errorf("faultinject: ShardHarness needs a Dir")
	}
	victim, err := victimIndex(fault.Victim, fault.Partition, fault.Point)
	if err != nil {
		return nil, err
	}
	s := newShardScenario(h.SwitchesPerShard, h.PrepareTTL, 500*time.Millisecond)

	// Boot the fleet, one proxy per shard so a partition is a link
	// property, not a process death.
	nodes := make([]*node, shardCount)
	proxies := make([]*tcpProxy, shardCount)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.crash()
			}
		}
	}()
	start := func(i int) (err error) {
		nodes[i], err = boot(nodeConfig{
			state:    filepath.Join(h.Dir, shardID(i), "state.json"),
			switches: s.slices[i],
			shardID:  shardID(i),
		})
		return err
	}
	for i := range nodes {
		if err := start(i); err != nil {
			return nil, fmt.Errorf("faultinject: boot %s: %w", shardID(i), err)
		}
		if proxies[i], err = newTCPProxy(nodes[i].addr); err != nil {
			return nil, err
		}
		defer proxies[i].Close()
	}
	if err := s.mapFleet(func(i int) string { return proxies[i].addr() }); err != nil {
		return nil, err
	}
	logPath := filepath.Join(h.Dir, "intent.log")
	// Each coordinator incarnation is a process with its own wiring.
	o := newProcObs()
	defer o.close()
	coord, err := s.newCoord(logPath, o)
	if err != nil {
		return nil, err
	}
	defer func() { _ = coord.Close() }()
	ctx := context.Background()
	if err := s.load(ctx, coord); err != nil {
		return nil, err
	}

	var hit func()
	switch {
	case victim < 0:
	case fault.Partition:
		hit = proxies[victim].Cut
	default:
		hit = nodes[victim].crash
	}
	s.fire(ctx, coord, fault.Point, hit)

	// Recovery: restart whatever died, then resolve the intent log.
	switch {
	case victim < 0:
		if err := s.coordinatorFault(ctx, coord, fault.Point); err != nil {
			return nil, err
		}
		coord.Kill()
		o2 := newProcObs()
		defer o2.close()
		if coord, err = s.newCoord(logPath, o2); err != nil {
			return nil, err
		}
	case fault.Partition:
		proxies[victim].Heal()
	default:
		// The shard that died mid-protocol replays its journal on boot:
		// commit records restored, bare prepares reaped — never admitted.
		if err := start(victim); err != nil {
			return nil, fmt.Errorf("faultinject: reboot %s: %w", fault.Victim, err)
		}
		proxies[victim].point(nodes[victim].addr)
	}
	res := &ShardResult{}
	if res.Recovered, err = s.settle(ctx, coord, fault.Point); err != nil {
		return nil, err
	}
	if res.VictimAdmitted, err = s.verify(fault.Point, nodes); err != nil {
		return nil, err
	}
	return res, nil
}

// routeOver builds one hop per switch, entering every queue at in.
func routeOver(switches []string, in core.PortID) core.Route {
	r := make(core.Route, len(switches))
	for i, sw := range switches {
		r[i] = core.Hop{Switch: sw, In: in, Out: 0}
	}
	return r
}
