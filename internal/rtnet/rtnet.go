// Package rtnet models RTnet, the ATM-based real-time industrial control
// network of the paper's Section 5: a star-ring of 155 Mbps ring nodes, each
// attaching up to 16 terminals, with a 32-cell highest-priority FIFO queue
// per ring node, supporting real-time "cyclic transmission" (a network-wide
// shared memory periodically broadcast by every terminal).
//
// The package builds the physical topology, derives broadcast routes,
// generates the symmetric and asymmetric cyclic workloads evaluated in the
// paper's Figures 10-13, and exposes Table 1's cyclic transmission classes.
package rtnet

import (
	"errors"
	"fmt"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/topology"
	"atmcac/internal/traffic"
)

// RTnet constants from the paper's Section 5.
const (
	// DefaultRingNodes is the ring size of the evaluated configuration.
	DefaultRingNodes = 16
	// MaxTerminalsPerNode is the attachment limit of a ring node.
	MaxTerminalsPerNode = 16
	// DefaultQueueCells is the highest-priority FIFO queue size per ring
	// node: 32 cells, i.e. 32 cell times (about 87 us) of CDV per hop.
	DefaultQueueCells = 32
	// RingInPort and RingOutPort are the ring-side ports of a ring node.
	// Terminal-side ports are numbered 1..N in both directions.
	RingInPort  core.PortID = 0
	RingOutPort core.PortID = 0
)

// ErrConfig reports an invalid RTnet configuration.
var ErrConfig = errors.New("rtnet: invalid configuration")

// Config describes an RTnet instance.
type Config struct {
	// RingNodes is the number of ring nodes (>= 2); default 16.
	RingNodes int
	// TerminalsPerNode is the number of terminals attached to each ring
	// node (1..16); default 1.
	TerminalsPerNode int
	// QueueCells configures the per-priority FIFO queues of every ring
	// node; default {1: 32}.
	QueueCells map[core.Priority]float64
	// Policy is the CDV accumulation policy; default hard.
	Policy core.CDVPolicy
}

func (c Config) withDefaults() Config {
	if c.RingNodes == 0 {
		c.RingNodes = DefaultRingNodes
	}
	if c.TerminalsPerNode == 0 {
		c.TerminalsPerNode = 1
	}
	if c.QueueCells == nil {
		c.QueueCells = map[core.Priority]float64{1: DefaultQueueCells}
	}
	if c.Policy == nil {
		c.Policy = core.HardCDV{}
	}
	return c
}

func (c Config) validate() error {
	if c.RingNodes < 2 {
		return fmt.Errorf("%w: %d ring nodes", ErrConfig, c.RingNodes)
	}
	if c.TerminalsPerNode < 1 || c.TerminalsPerNode > MaxTerminalsPerNode {
		return fmt.Errorf("%w: %d terminals per node (1..%d)",
			ErrConfig, c.TerminalsPerNode, MaxTerminalsPerNode)
	}
	return nil
}

// SwitchName returns the name of ring node i.
func SwitchName(i int) string { return fmt.Sprintf("ring%02d", i) }

// TerminalName returns the topology node ID of terminal t (0-based) on ring
// node i.
func TerminalName(i, t int) topology.NodeID {
	return topology.NodeID(fmt.Sprintf("term%02d-%02d", i, t))
}

// TerminalPort returns the ring-node port used by terminal t (0-based):
// terminal ports are 1..N, with 0 reserved for the ring.
func TerminalPort(t int) core.PortID { return core.PortID(t + 1) }

// Network is an RTnet instance: the physical topology plus the CAC state of
// its ring nodes.
type Network struct {
	cfg   Config
	coreN *core.Network
	graph *topology.Graph
}

// New builds an RTnet with the given configuration.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:   cfg,
		coreN: core.NewNetwork(cfg.Policy),
		graph: topology.New(),
	}
	// Teach the core CAC which links a ring route really crosses: the
	// consecutive queueing points plus the final delivery link, which the
	// hop sequence alone cannot show (the receiving node does not queue).
	// This makes link-failure handling — setup refusal, commit
	// re-validation, eviction — exact for ring routes.
	n.coreN.SetLinkMapper(n.RouteLinks)
	ringName := func(i int) topology.NodeID { return topology.NodeID(SwitchName(i)) }
	if err := topology.Ring(n.graph, cfg.RingNodes, ringName, int(RingOutPort), int(RingInPort)); err != nil {
		return nil, fmt.Errorf("rtnet: build ring: %w", err)
	}
	for i := 0; i < cfg.RingNodes; i++ {
		if _, err := n.coreN.AddSwitch(core.SwitchConfig{
			Name:       SwitchName(i),
			QueueCells: cfg.QueueCells,
		}); err != nil {
			return nil, fmt.Errorf("rtnet: add switch: %w", err)
		}
		for t := 0; t < cfg.TerminalsPerNode; t++ {
			term := TerminalName(i, t)
			if err := n.graph.AddNode(term, topology.KindHost); err != nil {
				return nil, fmt.Errorf("rtnet: add terminal: %w", err)
			}
			up := topology.Link{From: term, FromPort: 0, To: ringName(i), ToPort: int(TerminalPort(t))}
			down := topology.Link{From: ringName(i), FromPort: int(TerminalPort(t)), To: term, ToPort: 0}
			if err := n.graph.AddLink(up); err != nil {
				return nil, fmt.Errorf("rtnet: attach terminal: %w", err)
			}
			if err := n.graph.AddLink(down); err != nil {
				return nil, fmt.Errorf("rtnet: attach terminal: %w", err)
			}
		}
	}
	return n, nil
}

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// Core returns the CAC network.
func (n *Network) Core() *core.Network { return n.coreN }

// Graph returns the physical topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// SegmentRoute returns the route of a unicast connection entering the ring
// at terminal t of ring node origin and travelling hops ring hops
// downstream (1 <= hops <= RingNodes-1). Each hop is a queueing point at a
// ring node's ring output port. Point-to-point segments let concurrent
// setups touch disjoint parts of the ring, which is what the parallel
// admission path exploits.
func (n *Network) SegmentRoute(origin, t, hops int) (core.Route, error) {
	if origin < 0 || origin >= n.cfg.RingNodes {
		return nil, fmt.Errorf("%w: origin node %d", ErrConfig, origin)
	}
	if t < 0 || t >= n.cfg.TerminalsPerNode {
		return nil, fmt.Errorf("%w: terminal %d", ErrConfig, t)
	}
	if hops < 1 || hops > n.cfg.RingNodes-1 {
		return nil, fmt.Errorf("%w: %d hops (1..%d)", ErrConfig, hops, n.cfg.RingNodes-1)
	}
	route := make(core.Route, hops)
	for h := 0; h < hops; h++ {
		in := RingInPort
		if h == 0 {
			in = TerminalPort(t)
		}
		route[h] = core.Hop{
			Switch: SwitchName((origin + h) % n.cfg.RingNodes),
			In:     in,
			Out:    RingOutPort,
		}
	}
	return route, nil
}

// BroadcastRoute returns the route of a cyclic-transmission broadcast
// originating at terminal t of ring node origin: the cell enters the ring at
// the origin node and travels RingNodes-1 hops so every other node receives
// it. Each hop is a queueing point at a ring node's ring output port.
func (n *Network) BroadcastRoute(origin, t int) (core.Route, error) {
	return n.SegmentRoute(origin, t, n.cfg.RingNodes-1)
}

// ConnectionID names the broadcast connection of terminal t on node i.
func ConnectionID(i, t int) core.ConnID {
	return core.ConnID(fmt.Sprintf("bcast-%02d-%02d", i, t))
}

// BroadcastRequest builds the setup request for terminal t of node origin.
func (n *Network) BroadcastRequest(origin, t int, spec traffic.Spec, prio core.Priority) (core.ConnRequest, error) {
	route, err := n.BroadcastRoute(origin, t)
	if err != nil {
		return core.ConnRequest{}, err
	}
	return core.ConnRequest{
		ID:       ConnectionID(origin, t),
		Spec:     spec,
		Priority: prio,
		Route:    route,
	}, nil
}

// InstallAll bulk-loads a workload as one set (offline planning path). It
// returns the first request's error; every other request is installed.
func (n *Network) InstallAll(reqs []core.ConnRequest) error {
	for _, err := range n.coreN.InstallSet(reqs) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Audit validates every ring-node queue against its guarantee.
func (n *Network) Audit() ([]core.Violation, error) {
	return n.coreN.Audit()
}

// RingPortBounds returns the computed worst-case delay D'(ring out, p) of
// every ring node, indexed by node number.
func (n *Network) RingPortBounds(p core.Priority) ([]float64, error) {
	bounds := make([]float64, n.cfg.RingNodes)
	for i := range bounds {
		sw, ok := n.coreN.Switch(SwitchName(i))
		if !ok {
			return nil, fmt.Errorf("%w: missing switch %s", ErrConfig, SwitchName(i))
		}
		d, err := sw.ComputedBound(RingOutPort, p)
		if err != nil {
			return nil, fmt.Errorf("rtnet: bound at %s: %w", SwitchName(i), err)
		}
		bounds[i] = d
	}
	return bounds, nil
}

// MaxBroadcastBound returns the largest end-to-end computed queueing delay
// bound over all broadcast routes, at priority p: the worst connection's
// bound under the installed load (the paper's Figure 10 y-axis).
func (n *Network) MaxBroadcastBound(p core.Priority) (float64, error) {
	perNode, err := n.RingPortBounds(p)
	if err != nil {
		return 0, err
	}
	// The route from origin o sums nodes o..o+R-2; slide the window around
	// the ring.
	r := n.cfg.RingNodes
	worst := 0.0
	for o := 0; o < r; o++ {
		sum := 0.0
		for h := 0; h < r-1; h++ {
			sum += perNode[(o+h)%r]
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst, nil
}

// SymmetricWorkload builds the paper's symmetric cyclic traffic pattern:
// every terminal broadcasts a CBR connection with PCR = load/(R*N), where
// load is the total normalized traffic (B in Figure 10).
func (n *Network) SymmetricWorkload(load float64, prio core.Priority) ([]core.ConnRequest, error) {
	total := n.cfg.RingNodes * n.cfg.TerminalsPerNode
	if !(load > 0) || load > 1 {
		return nil, fmt.Errorf("%w: total load %g not in (0, 1]", ErrConfig, load)
	}
	pcr := load / float64(total)
	reqs := make([]core.ConnRequest, 0, total)
	for i := 0; i < n.cfg.RingNodes; i++ {
		for t := 0; t < n.cfg.TerminalsPerNode; t++ {
			req, err := n.BroadcastRequest(i, t, traffic.CBR(pcr), prio)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	return reqs, nil
}

// AsymmetricWorkload builds the paper's asymmetric pattern: terminal 0 of
// node 0 generates hotShare of the total load and the remaining traffic is
// divided equally among the other terminals. hotPrio and otherPrio assign
// priorities (equal for the single-priority experiments; Figure 12 gives the
// hot connection a lower priority with its own larger queue).
func (n *Network) AsymmetricWorkload(load, hotShare float64, hotPrio, otherPrio core.Priority) ([]core.ConnRequest, error) {
	total := n.cfg.RingNodes * n.cfg.TerminalsPerNode
	if !(load > 0) || load > 1 {
		return nil, fmt.Errorf("%w: total load %g not in (0, 1]", ErrConfig, load)
	}
	if hotShare < 0 || hotShare > 1 {
		return nil, fmt.Errorf("%w: hot share %g not in [0, 1]", ErrConfig, hotShare)
	}
	if total < 2 && hotShare < 1 {
		return nil, fmt.Errorf("%w: asymmetric pattern needs at least 2 terminals", ErrConfig)
	}
	hotPCR := load * hotShare
	var otherPCR float64
	if total > 1 {
		otherPCR = load * (1 - hotShare) / float64(total-1)
	}
	reqs := make([]core.ConnRequest, 0, total)
	for i := 0; i < n.cfg.RingNodes; i++ {
		for t := 0; t < n.cfg.TerminalsPerNode; t++ {
			pcr, prio := otherPCR, otherPrio
			if i == 0 && t == 0 {
				pcr, prio = hotPCR, hotPrio
			}
			if pcr <= 0 {
				continue // a zero share contributes no connection
			}
			req, err := n.BroadcastRequest(i, t, traffic.CBR(pcr), prio)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
	}
	return reqs, nil
}

// CyclicClass is one of RTnet's cyclic transmission service classes
// (Table 1 of the paper).
type CyclicClass struct {
	Name string
	// Period is the shared-memory update period.
	Period time.Duration
	// Delay is the maximum allowable update delay.
	Delay time.Duration
	// MemoryBytes is the maximum size of the shared memory segment.
	MemoryBytes int
}

// Classes are the three cyclic transmission types of Table 1.
func Classes() []CyclicClass {
	return []CyclicClass{
		{Name: "high speed", Period: time.Millisecond, Delay: time.Millisecond, MemoryBytes: 4 * 1024},
		{Name: "medium speed", Period: 30 * time.Millisecond, Delay: 30 * time.Millisecond, MemoryBytes: 64 * 1024},
		{Name: "low speed", Period: 150 * time.Millisecond, Delay: 150 * time.Millisecond, MemoryBytes: 128 * 1024},
	}
}

// Bandwidth returns the class's aggregate payload bandwidth in bits per
// second (the paper's Table 1 accounting: memory size over period).
func (c CyclicClass) Bandwidth() (float64, error) {
	return traffic.PayloadBandwidth(c.MemoryBytes, c.Period)
}

// NormalizedRate returns the class's aggregate cell rate normalized to an
// OC-3 link, including cell header overhead (what the CAC must reserve).
func (c CyclicClass) NormalizedRate() (float64, error) {
	wire, err := traffic.WireBandwidth(c.MemoryBytes, c.Period)
	if err != nil {
		return 0, err
	}
	return traffic.OC3.Normalize(wire), nil
}

// DelayCellTimes returns the class's delay budget in OC-3 cell times.
func (c CyclicClass) DelayCellTimes() float64 {
	return traffic.OC3.CellTimes(c.Delay)
}

// TerminalSpec returns the CBR descriptor of one terminal's share of the
// class, with the shared memory divided equally among total terminals.
func (c CyclicClass) TerminalSpec(totalTerminals int) (traffic.Spec, error) {
	if totalTerminals < 1 {
		return traffic.Spec{}, fmt.Errorf("%w: %d terminals", ErrConfig, totalTerminals)
	}
	rate, err := c.NormalizedRate()
	if err != nil {
		return traffic.Spec{}, err
	}
	return traffic.CBR(rate / float64(totalTerminals)), nil
}
