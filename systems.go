package atmcac

import (
	"atmcac/internal/experiments"
	"atmcac/internal/failover"
	"atmcac/internal/routing"
	"atmcac/internal/rtnet"
	"atmcac/internal/signaling"
	"atmcac/internal/sim"
	"atmcac/internal/topology"
	"atmcac/internal/wire"
)

// RTnetConfig describes an RTnet instance (paper Section 5): ring size,
// terminals per node, queue sizes, CDV policy.
type RTnetConfig = rtnet.Config

var (
	// NewRTnet builds an RTnet: topology plus per-ring-node CAC state.
	NewRTnet = rtnet.New
	// CyclicClasses returns the three cyclic transmission classes of
	// Table 1.
	CyclicClasses = rtnet.Classes
	// RTnetSwitchName names ring node i.
	RTnetSwitchName = rtnet.SwitchName
)

// NewSignalingFabric returns an empty fabric that runs the distributed
// SETUP/REJECT/CONNECTED protocol of Section 4.1 across per-node
// goroutines (nil policy means hard CDV).
var NewSignalingFabric = signaling.NewFabric

// Central CAC server over TCP (paper Section 4.3, discussion 3).
var (
	// NewCACServer wraps a Network in a TCP server.
	NewCACServer = wire.NewServer
	// DialCAC connects to a CAC server.
	DialCAC = wire.Dial
)

// Cell-level simulation source modes.
const (
	// SimGreedy emits at the earliest conforming instants (worst case).
	SimGreedy = sim.Greedy
	// SimRandom inserts random idle gaps while staying conforming.
	SimRandom = sim.Random
)

// ValidationConfig parameterizes a CAC-versus-simulation run.
type ValidationConfig = experiments.ValidationConfig

// ValidateRTnet runs the CAC-versus-simulation soundness experiment.
var ValidateRTnet = experiments.ValidateRTnet

// Topology modelling and route derivation for arbitrary networks.
type (
	// Topology is a directed multigraph of port-addressed nodes and links.
	Topology = topology.Graph
	// TopologyNodeID identifies a topology node.
	TopologyNodeID = topology.NodeID
	// TopologyLink is a directed link between two node ports.
	TopologyLink = topology.Link
)

// Topology node kinds.
const (
	// KindSwitch marks a queueing/forwarding node.
	KindSwitch = topology.KindSwitch
	// KindHost marks a connection endpoint.
	KindHost = topology.KindHost
)

var (
	// NewTopology returns an empty graph.
	NewTopology = topology.New
	// RouteBetween computes the minimum-hop CAC route between two hosts.
	RouteBetween = routing.Route
	// BuildNetworkFromTopology registers every switch of a graph on a
	// fresh CAC network.
	BuildNetworkFromTopology = routing.BuildNetwork
)

// FailoverOptions tunes the bounded retry behaviour of the Section 5
// degraded-mode engine.
type FailoverOptions = failover.Options

// NewFailoverEngine builds an engine that re-admits link-failure
// evictions over the wrapped ring through the full CAC check.
var NewFailoverEngine = failover.New
