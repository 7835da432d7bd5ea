package faultinject

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
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

// nodeConfig shapes one in-process daemon.
type nodeConfig struct {
	// state is the snapshot path; the journal sits beside it.
	state string
	// fs carries the persistence (nil: the real filesystem).
	fs journal.FS
	// mode is the durability mode (default journal-sync).
	mode wire.DurabilityMode
	// compact is the compaction threshold in records (0: the default).
	compact int
	// ring shapes an RTnet ring served with the fail-link adapter; with
	// RingNodes zero the network is switches instead, each a 32-cell
	// priority-1 queue.
	ring     rtnet.Config
	switches []string
	shardID  string
	crash    *wire.CrashPoints
	// ship makes the node a primary in this mode, serving the stream on
	// its own replication listener.
	ship replica.Mode
	// follow makes the node a read-only standby of the primary at this
	// replication address.
	follow string
}

// node is one daemon as cacd runs it: a network recovered from its
// durable files, a wire server on an ephemeral port, the process's
// observability wiring, a shipping primary and/or a following standby by
// role, and a client connected to it.
type node struct {
	net    *core.Network
	ring   *rtnet.Network // nil for a switch slice
	srv    *wire.Server
	dur    *wire.Durable
	report *wire.RecoveryReport
	prim   *replica.Primary
	sb     *replica.Standby
	replLn net.Listener
	addr   string
	client *wire.Client
	obs    *procObs
	done   chan struct{}
	once   sync.Once
}

// boot recovers and serves one node. On error nothing of it is left
// running.
func boot(cfg nodeConfig) (*node, error) {
	n := &node{}
	if cfg.ring.RingNodes > 0 {
		rt, err := rtnet.New(cfg.ring)
		if err != nil {
			return nil, err
		}
		n.ring, n.net = rt, rt.Core()
	} else {
		n.net = core.NewNetwork(core.HardCDV{})
		for _, sw := range cfg.switches {
			if _, err := n.net.AddSwitch(core.SwitchConfig{
				Name: sw, QueueCells: map[core.Priority]float64{1: 32},
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(cfg.state), 0o755); err != nil {
		return nil, err
	}
	mode := cfg.mode
	if mode == "" {
		mode = wire.DurabilityJournalSync
	}
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath: cfg.state, Mode: mode, FS: cfg.fs, CompactRecords: cfg.compact,
	})
	if err != nil {
		return nil, err
	}
	if n.report, err = dur.Recover(n.net); err != nil {
		_ = dur.Close()
		return nil, err
	}
	n.dur = dur
	n.srv = wire.NewServer(n.net)
	n.srv.SetShardID(cfg.shardID)
	n.srv.SetDurable(dur)
	n.srv.SetCrashPoints(cfg.crash)
	if n.ring != nil {
		n.srv.SetFailoverHandler(failover.Handler(n.ring))
	}
	n.obs = newProcObs()
	if cfg.ship != "" {
		if n.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			n.crash()
			return nil, err
		}
		n.prim = replica.NewPrimary(n.srv, replica.PrimaryConfig{
			Mode:           cfg.ship,
			AckTimeout:     2 * time.Second,
			HeartbeatEvery: 50 * time.Millisecond,
			Tracer:         n.obs.tracer,
		})
		n.srv.SetShipper(n.prim)
		n.prim.RegisterMetrics(n.obs.reg)
		go func() { _ = n.prim.Serve(n.replLn) }()
	}
	if cfg.follow != "" {
		n.srv.SetStandby(true)
		// FailoverTimeout stays zero: promotion is the harness's or the
		// coordinator's decision, never the pair's own.
		n.sb = replica.NewStandby(n.srv, replica.StandbyConfig{
			PrimaryAddr:      cfg.follow,
			ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		})
		n.sb.RegisterMetrics(n.obs.reg)
		go func() { _ = n.sb.Run() }()
	}
	n.srv.SetReplicationStatus(replica.Status(n.prim, n.sb))
	n.srv.SetObservability(n.obs.reg, n.obs.tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.crash()
		return nil, err
	}
	n.addr = ln.Addr().String()
	n.done = make(chan struct{})
	go func() { defer close(n.done); _ = n.srv.Serve(ln) }()
	if n.client, err = wire.Dial(n.addr); err != nil {
		n.crash()
		return nil, err
	}
	return n, nil
}

// replAddr is the node's replication listener.
func (n *node) replAddr() string { return n.replLn.Addr().String() }

// crash kills the node without a final snapshot — a crash, not a drain.
// Idempotent, so a mid-scenario kill and the deferred cleanup coexist.
func (n *node) crash() {
	n.once.Do(func() {
		if n.sb != nil {
			_ = n.sb.Close()
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
		n.obs.close()
	})
}

// inspect lists the node's admitted connections, health and prepared
// holds, reaping expired holds first so the residual-hold oracle is about
// leaks, not pending TTLs.
func (n *node) inspect() (map[core.ConnID]bool, *wire.HealthReport, *wire.ShardStatusReport, error) {
	ctx := context.Background()
	ids, err := n.client.List(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	set := make(map[core.ConnID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	health, err := n.client.Health(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := n.client.ShardReap(ctx); err != nil {
		return nil, nil, nil, err
	}
	st, err := n.client.ShardStatus(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return set, health, st, nil
}

// attached reports whether the node's primary has a live replication
// session.
func (n *node) attached() bool {
	rep, err := n.client.Replication(context.Background())
	return err == nil && rep.Connected
}

// role is the node's replication role as it reports it.
func (n *node) role() string {
	rep, err := n.client.Replication(context.Background())
	if err != nil {
		return ""
	}
	return rep.Role
}

// failedFrom is the transmitting node of the ring's failed primary link,
// -1 when the ring is healthy.
func (n *node) failedFrom() int {
	for _, l := range n.net.FailedLinks() {
		if node, err := rtnet.NodeIndex(l.From); err == nil {
			return node
		}
	}
	return -1
}

// apply runs one ring script event over the node's client: a setup takes
// the healthy or wrapped broadcast route the ring's link state calls for.
// refused is the daemon's answer to an operation it did not ack; err is a
// harness error. rep is a fail-link's re-admission report.
func (n *node) apply(ev Event) (rep *wire.FailoverReport, refused, err error) {
	ctx := context.Background()
	switch ev.Kind {
	case KindSetup:
		var route core.Route
		if from := n.failedFrom(); from < 0 {
			route, err = n.ring.BroadcastRoute(ev.Origin, ev.Terminal)
		} else {
			route, err = n.ring.WrappedBroadcastRoute(ev.Origin, ev.Terminal, from)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("faultinject: route for %s: %w", ev.ID, err)
		}
		_, refused = n.client.Setup(ctx, core.ConnRequest{
			ID: ev.ID, Spec: traffic.CBR(ev.PCR), Priority: 1,
			Route: route, DelayBound: ev.DelayBound,
		})
		return nil, refused, nil
	case KindTeardown:
		return nil, n.client.Teardown(ctx, ev.ID), nil
	case KindFail, KindRestore:
		l, err := n.ring.PrimaryLink(ev.Node)
		if err != nil {
			return nil, nil, err
		}
		if ev.Kind == KindRestore {
			return nil, n.client.RestoreLink(ctx, l.From, l.To), nil
		}
		rep, refused = n.client.FailLink(ctx, l.From, l.To)
		return rep, refused, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown kind %q", ErrScript, ev.Kind)
	}
}

// tcpProxy is a cuttable link in front of one node: every partition a
// harness injects is a Cut here, and point re-aims it at a node rebooted
// on a new port.
type tcpProxy struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	cut    bool
	conns  map[net.Conn]struct{}
}

// newTCPProxy listens on an ephemeral port and forwards to target; an
// empty target refuses connections until point sets one.
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

// point forwards new connections to target.
func (p *tcpProxy) point(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

func (p *tcpProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		cut, target := p.cut, p.target
		if !cut {
			p.conns[c] = struct{}{}
		}
		p.mu.Unlock()
		if cut {
			_ = c.Close()
			continue
		}
		go p.pipe(c, target)
	}
}

func (p *tcpProxy) pipe(c net.Conn, target string) {
	up, err := net.DialTimeout("tcp", target, 2*time.Second)
	if err != nil {
		p.drop(c)
		return
	}
	p.mu.Lock()
	if p.cut {
		p.mu.Unlock()
		p.drop(c)
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
	p.drop(c, up)
}

// drop closes conns and forgets them.
func (p *tcpProxy) drop(conns ...net.Conn) {
	p.mu.Lock()
	for _, c := range conns {
		delete(p.conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
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
