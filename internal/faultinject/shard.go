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
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/shard"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
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

// checkPastAck validates a fault armed past the ack and, for
// ShardPostAckTeardown, releases the victim connection through coord —
// everything between the victim setup's return and the kill.
func checkPastAck(ctx context.Context, coord *shard.Coordinator, point ShardPoint, setupErr error) error {
	if setupErr != nil {
		return fmt.Errorf("faultinject: victim setup before the %s fault: %w", point, setupErr)
	}
	if point == ShardPostAckTeardown {
		if err := coord.Teardown(ctx, "victim"); err != nil {
			return fmt.Errorf("faultinject: victim teardown before the %s fault: %w", point, err)
		}
	}
	return nil
}

// checkPastAckRecovery asserts what recovery made of a fault past the
// ack: the acked setup's commit re-driven once and nothing else, or —
// with the connection released before the kill — nothing at all.
func checkPastAckRecovery(point ShardPoint, rep *shard.RecoverReport) error {
	want := 0
	if point == ShardPostAck {
		want = 1
	}
	if len(rep.Committed) != want || len(rep.Aborted) != 0 {
		return fmt.Errorf("faultinject: recovery after the %s fault re-drove %+v, want %d commits and no abort", point, rep, want)
	}
	return nil
}

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

// tcpProxy sits between the coordinator and one shard so the harness
// can partition the pair without killing either.
type tcpProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	cut   bool
	conns map[net.Conn]struct{}
}

func newTCPProxy(target string) (*tcpProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &tcpProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

func (p *tcpProxy) addr() string { return p.ln.Addr().String() }

func (p *tcpProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		cut := p.cut
		if !cut {
			p.conns[c] = struct{}{}
		}
		p.mu.Unlock()
		if cut {
			_ = c.Close()
			continue
		}
		go p.pipe(c)
	}
}

func (p *tcpProxy) pipe(c net.Conn) {
	up, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		_ = c.Close()
		return
	}
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		_ = c.Close()
		_ = up.Close()
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		_, _ = io.Copy(dst, src)
		_ = dst.Close()
		_ = src.Close()
		done <- struct{}{}
	}
	go cp(up, c)
	go cp(c, up)
	<-done
	<-done
	p.mu.Lock()
	delete(p.conns, c)
	delete(p.conns, up)
	p.mu.Unlock()
}

// Cut severs present and future connections; Heal restores the link.
func (p *tcpProxy) Cut() {
	p.mu.Lock()
	p.cut = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (p *tcpProxy) Heal() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

func (p *tcpProxy) Close() { _ = p.ln.Close(); p.Cut() }

// shardNode is one shard: a journaled wire server owning a slice of the
// switches, rebootable on a stable address.
type shardNode struct {
	id       string
	dir      string
	addr     string // stable across reboots (SO_REUSEADDR rebind)
	switches []string

	network *core.Network
	dur     *wire.Durable
	srv     *wire.Server
	done    chan struct{}
	alive   bool
}

// boot builds the network from the durable files and serves it. On the
// first boot addr is empty and an ephemeral port is chosen; reboots
// rebind the same address.
func (n *shardNode) boot() error {
	network := core.NewNetwork(core.HardCDV{})
	for _, sw := range n.switches {
		if _, err := network.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			return err
		}
	}
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath: filepath.Join(n.dir, "state.json"),
		Mode:      wire.DurabilityJournalSync,
	})
	if err != nil {
		return err
	}
	if _, err := dur.Recover(network); err != nil {
		_ = dur.Close()
		return err
	}
	srv := wire.NewServer(network)
	srv.SetShardID(n.id)
	srv.SetDurable(dur)
	listenAddr := n.addr
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", listenAddr)
		if err == nil {
			break
		}
		if attempt >= 20 {
			_ = dur.Close()
			return fmt.Errorf("faultinject: rebind %s: %w", listenAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n.addr = ln.Addr().String()
	n.network, n.dur, n.srv = network, dur, srv
	n.done = make(chan struct{})
	go func(done chan struct{}) { defer close(done); _ = srv.Serve(ln) }(n.done)
	n.alive = true
	return nil
}

// crash kills the shard without a final snapshot.
func (n *shardNode) crash() {
	if !n.alive {
		return
	}
	n.alive = false
	_ = n.srv.Close()
	<-n.done
	_ = n.dur.Close()
}

// list asks the live shard for its admitted connections.
func (n *shardNode) list() (map[core.ConnID]bool, *wire.HealthReport, *wire.ShardStatusReport, error) {
	cl, err := wire.Dial(n.addr)
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

// errShardCrash is the sentinel the boundary hook aborts the coordinator
// with when the coordinator itself is the victim.
var errShardCrash = errors.New("faultinject: injected coordinator crash")

// Run executes the armed fault end to end. See the package comment for
// the oracle it asserts.
func (h *ShardHarness) Run(fault ShardFault) (*ShardResult, error) {
	h.defaults()
	if h.Dir == "" {
		return nil, fmt.Errorf("faultinject: ShardHarness needs a Dir")
	}

	// Boot the fleet: contiguous switch slices, one proxy per shard so a
	// partition is a link property, not a process death.
	nodes := make([]*shardNode, shardCount)
	proxies := make([]*tcpProxy, shardCount)
	spec := ""
	sw := 0
	for i := range nodes {
		var owned []string
		for j := 0; j < h.SwitchesPerShard; j++ {
			owned = append(owned, fmt.Sprintf("sw%d", sw))
			sw++
		}
		n := &shardNode{id: fmt.Sprintf("s%d", i), dir: filepath.Join(h.Dir, fmt.Sprintf("s%d", i)), switches: owned}
		if err := os.MkdirAll(n.dir, 0o755); err != nil {
			return nil, err
		}
		if err := n.boot(); err != nil {
			return nil, fmt.Errorf("faultinject: boot %s: %w", n.id, err)
		}
		defer n.crash()
		p, err := newTCPProxy(n.addr)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		nodes[i], proxies[i] = n, p
		if spec != "" {
			spec += ";"
		}
		spec += fmt.Sprintf("%s@%s=%s", n.id, p.addr(), joinComma(owned))
	}
	m, err := shard.ParseMap(spec)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(h.Dir, "intent.log")
	newCoord := func() (*shard.Coordinator, error) {
		c, err := shard.NewCoordinator(m, journal.OSFS{}, logPath)
		if err != nil {
			return nil, err
		}
		c.PrepareTTL = h.PrepareTTL
		c.OpTimeout = 500 * time.Millisecond
		c.Retries = 2
		return c, nil
	}
	coord, err := newCoord()
	if err != nil {
		return nil, err
	}
	defer func() { _ = coord.Close() }()
	ctx := context.Background()

	victimShard := -1
	for i, n := range nodes {
		if n.id == fault.Victim {
			victimShard = i
		}
	}
	if fault.Victim != VictimCoordinator && victimShard < 0 {
		return nil, fmt.Errorf("faultinject: unknown victim %q", fault.Victim)
	}
	if fault.Partition && victimShard < 0 {
		return nil, fmt.Errorf("faultinject: partition needs a shard victim")
	}
	if fault.Point.pastAck() && fault.Victim != VictimCoordinator {
		return nil, fmt.Errorf("faultinject: a fault at %s needs the coordinator as victim", fault.Point)
	}

	// Acked background load: one local setup per shard plus one acked
	// cross-shard setup — the set that must survive whatever happens next.
	acked := make(map[core.ConnID][]int) // conn -> owning shard indexes
	port := core.PortID(1)
	for i, n := range nodes {
		id := core.ConnID(fmt.Sprintf("base-%s", n.id))
		req := core.ConnRequest{ID: id, Spec: traffic.CBR(0.05), Priority: 1,
			Route: routeOver(n.switches, port)}
		if _, err := coord.Setup(ctx, req); err != nil {
			return nil, fmt.Errorf("faultinject: background setup %s: %w", id, err)
		}
		acked[id] = []int{i}
	}
	port++
	baseX := core.ConnRequest{ID: "base-x", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(append(append([]string{}, nodes[0].switches...), nodes[1].switches...), port)}
	if _, err := coord.Setup(ctx, baseX); err != nil {
		return nil, fmt.Errorf("faultinject: background cross-shard setup: %w", err)
	}
	acked["base-x"] = []int{0, 1}

	// Arm the fault at the boundary and fire the victim transaction: a
	// setup spanning all three shards.
	coord.SetTestHook(func(point, txn string) error {
		if ShardPoint(point) != fault.Point {
			return nil
		}
		coord.SetTestHook(nil)
		switch {
		case fault.Victim == VictimCoordinator:
			return errShardCrash
		case fault.Partition:
			proxies[victimShard].Cut()
		default:
			nodes[victimShard].crash()
		}
		return nil
	})
	port++
	var all []string
	for _, n := range nodes {
		all = append(all, n.switches...)
	}
	victimReq := core.ConnRequest{ID: "victim", Spec: traffic.CBR(0.05), Priority: 1,
		Route: routeOver(all, port), DelayBound: float64(len(all)) * 40}
	_, setupErr := coord.Setup(ctx, victimReq)

	// Recovery: restart whatever died, then resolve the intent log.
	if fault.Victim == VictimCoordinator {
		if fault.Point.pastAck() {
			if err := checkPastAck(ctx, coord, fault.Point, setupErr); err != nil {
				return nil, err
			}
		} else if !errors.Is(setupErr, errShardCrash) {
			return nil, fmt.Errorf("faultinject: coordinator fault at %s never fired (err=%v)", fault.Point, setupErr)
		}
		coord.Kill()
		if coord, err = newCoord(); err != nil {
			return nil, err
		}
	} else {
		if fault.Partition {
			proxies[victimShard].Heal()
		} else if err := nodes[victimShard].boot(); err != nil {
			return nil, fmt.Errorf("faultinject: reboot %s: %w", fault.Victim, err)
		}
		// The shard that died mid-protocol replayed its journal on boot:
		// commit records restored, bare prepares reaped — never admitted.
	}
	res := &ShardResult{}
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

	// Oracle. Collect every shard's view once.
	sets := make([]map[core.ConnID]bool, shardCount)
	for i, n := range nodes {
		set, health, st, err := n.list()
		if err != nil {
			return nil, fmt.Errorf("faultinject: inspect %s: %w", n.id, err)
		}
		if health.Violations != 0 {
			return nil, fmt.Errorf("faultinject: %s reports %d delay-bound violations", n.id, health.Violations)
		}
		if len(st.Prepared) != 0 {
			return nil, fmt.Errorf("faultinject: %s still holds %v after recovery", n.id, st.Prepared)
		}
		sets[i] = set
	}
	// No acked setup lost.
	for id, owners := range acked {
		for _, i := range owners {
			if !sets[i][id] {
				return nil, fmt.Errorf("faultinject: acked connection %s lost on %s", id, nodes[i].id)
			}
		}
	}
	// The interrupted setup resolved uniformly.
	on := 0
	for i := range nodes {
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
		return nil, fmt.Errorf("faultinject: interrupted setup admitted on %d of %d shards", on, shardCount)
	}
	// The coordinator must agree with the shards: an acked victim setup
	// may not have vanished, a refused one may not have landed — and one
	// the client released may not have come back.
	if released := fault.Point == ShardPostAckTeardown; setupErr == nil && res.VictimAdmitted == released {
		return nil, fmt.Errorf("faultinject: acked victim setup (released=%v) admitted=%v after recovery", released, res.VictimAdmitted)
	}
	// No refused setup leaves residual bandwidth: the identical request
	// (fresh ID) admits cleanly after recovery.
	probe := victimReq
	probe.ID = "probe"
	probe.Route = routeOver(all, port+1)
	if _, err := coord.Setup(ctx, probe); err != nil {
		return nil, fmt.Errorf("faultinject: post-recovery probe setup refused: %w", err)
	}
	if err := coord.Teardown(ctx, "probe"); err != nil {
		return nil, fmt.Errorf("faultinject: probe teardown: %w", err)
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

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
