package atmcac

import (
	"atmcac/internal/ablation"
	"atmcac/internal/experiments"
	"atmcac/internal/failover"
	"atmcac/internal/faultinject"
	"atmcac/internal/plan"
	"atmcac/internal/routing"
	"atmcac/internal/rtnet"
	"atmcac/internal/signaling"
	"atmcac/internal/sim"
	"atmcac/internal/topology"
	"atmcac/internal/wire"
)

// RTnet model (paper Section 5).
type (
	// RTnetConfig describes an RTnet instance (ring size, terminals per
	// node, queue sizes, CDV policy).
	RTnetConfig = rtnet.Config
	// RTnet is an RTnet instance: topology plus per-ring-node CAC state.
	RTnet = rtnet.Network
	// CyclicClass is one of RTnet's cyclic transmission service classes
	// (Table 1).
	CyclicClass = rtnet.CyclicClass
)

var (
	// NewRTnet builds an RTnet.
	NewRTnet = rtnet.New
	// CyclicClasses returns the three classes of Table 1.
	CyclicClasses = rtnet.Classes
	// RTnetSwitchName names ring node i.
	RTnetSwitchName = rtnet.SwitchName
)

// Distributed signaling (paper Section 4.1).
type (
	// SignalingFabric runs the distributed SETUP/REJECT/CONNECTED protocol
	// across per-node goroutines.
	SignalingFabric = signaling.Fabric
	// SignalingNode is one switching node of a fabric.
	SignalingNode = signaling.Node
	// SignalingResult is the outcome of a completed distributed setup:
	// the same Admission that Network.Setup returns.
	SignalingResult = signaling.Result
)

// NewSignalingFabric returns an empty fabric (nil policy means hard CDV).
var NewSignalingFabric = signaling.NewFabric

// Central CAC server over TCP (paper Section 4.3, discussion 3).
type (
	// CACServer serves admission requests against a Network.
	CACServer = wire.Server
	// CACClient is the matching TCP client.
	CACClient = wire.Client
)

var (
	// NewCACServer wraps a Network in a TCP server.
	NewCACServer = wire.NewServer
	// DialCAC connects to a CAC server.
	DialCAC = wire.Dial
)

// Cell-level simulation.
type (
	// SimNetwork is a cell-level discrete-time ATM network.
	SimNetwork = sim.Network
	// SimSwitch is a simulated priority-FIFO switch.
	SimSwitch = sim.Switch
	// SimSourceConfig describes a conforming traffic source.
	SimSourceConfig = sim.SourceConfig
	// SimStats is the result of a simulation run.
	SimStats = sim.Stats
)

// Simulation source modes.
const (
	// SimGreedy emits at the earliest conforming instants (worst case).
	SimGreedy = sim.Greedy
	// SimRandom inserts random idle gaps while staying conforming.
	SimRandom = sim.Random
)

// NewSimNetwork returns an empty simulated network.
var NewSimNetwork = sim.New

// Evaluation harness (paper Section 5).
type (
	// ExperimentSeries is one labelled curve of a figure.
	ExperimentSeries = experiments.Series
	// ValidationConfig parameterizes a CAC-versus-simulation run.
	ValidationConfig = experiments.ValidationConfig
	// ValidationResult reports the comparison.
	ValidationResult = experiments.ValidationResult
)

var (
	// Table1 computes the paper's Table 1 from first principles.
	Table1 = experiments.Table1
	// Failover runs the ring-wrap degraded-mode experiment.
	Failover = experiments.Failover
	// SoftRisk probes what the soft CAC risks relative to hard.
	SoftRisk = experiments.SoftRisk
	// Tightness sweeps analytic bounds against measured worst cases.
	Tightness = experiments.Tightness
	// Figure10 regenerates the symmetric delay-bound sweep.
	Figure10 = experiments.Figure10
	// Figure11 regenerates the asymmetric capacity sweep.
	Figure11 = experiments.Figure11
	// Figure12 regenerates the one-versus-two-priorities comparison.
	Figure12 = experiments.Figure12
	// Figure13 regenerates the soft-versus-hard CAC comparison.
	Figure13 = experiments.Figure13
	// ValidateRTnet runs the CAC-versus-simulation soundness experiment.
	ValidateRTnet = experiments.ValidateRTnet
	// WriteSeriesTSV renders figure series as gnuplot-friendly TSV.
	WriteSeriesTSV = experiments.WriteTSV
)

// Offline planning (the current RTnet's permanent-connection workflow).
type (
	// PlanScenario is a JSON-serializable offline planning problem in
	// physical units (Mbps, microseconds).
	PlanScenario = plan.Scenario
	// PlanReport is the outcome of running a scenario.
	PlanReport = plan.Report
)

var (
	// LoadPlan parses and validates a scenario document.
	LoadPlan = plan.Load
	// ExamplePlan returns a documented sample scenario.
	ExamplePlan = plan.Example
)

// Design-choice ablations (the paper's claimed refinements over prior
// maximum-rate-function CAC schemes).
type (
	// AblationVariant selects the modelling scheme under test.
	AblationVariant = ablation.Variant
	// AblationComparison reports the admissible-load gap per variant.
	AblationComparison = ablation.Comparison
)

// Ablation variants.
const (
	// AblationExact is the paper's full scheme.
	AblationExact = ablation.Exact
	// AblationNoFiltering disables the link filtering effect.
	AblationNoFiltering = ablation.NoFiltering
	// AblationCrudeDistortion replaces Algorithm 3.1 by a conservative
	// jitter-burst bound.
	AblationCrudeDistortion = ablation.CrudeDistortion
)

// CompareAblations runs every variant on one configuration.
var CompareAblations = ablation.Compare

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

// Live failure handling (paper Section 5 degraded mode).
type (
	// FailoverEngine re-admits link-failure evictions over the wrapped
	// ring through the full CAC check.
	FailoverEngine = failover.Engine
	// FailoverOptions tunes the engine's bounded retry behaviour.
	FailoverOptions = failover.Options
	// FailoverReport is the outcome of handling one link failure.
	FailoverReport = failover.Report
	// FailoverOutcome is one connection's re-admission result.
	FailoverOutcome = failover.Outcome
	// FaultScript is a deterministic scripted failure/restore scenario.
	FaultScript = faultinject.Script
	// FaultEvent is one step of a fault script.
	FaultEvent = faultinject.Event
	// FaultHarness executes fault scripts and checks safety invariants.
	FaultHarness = faultinject.Harness
)

var (
	// NewFailoverEngine builds a wrapped-ring re-admission engine.
	NewFailoverEngine = failover.New
	// NewFaultHarness builds a fault-injection harness on a fresh RTnet.
	NewFaultHarness = faultinject.New
	// FaultReplayAgrees checks a script is deterministic across replicas.
	FaultReplayAgrees = faultinject.ReplayAgrees
)

// Persistence for the central CAC server.
type (
	// CACStateStore is the snapshot file of established connections.
	CACStateStore = wire.StateStore
	// CACDurable journals every admission before its ack and recovers
	// the established connections across restarts.
	CACDurable = wire.Durable
	// CACDurableConfig configures OpenCACDurable.
	CACDurableConfig = wire.DurableConfig
)

var (
	// NewCACStateStore returns a store backed by a JSON file.
	NewCACStateStore = wire.NewStateStore
	// OpenCACDurable opens the snapshot and journal; its Recover
	// re-establishes the stored connections on a network.
	OpenCACDurable = wire.OpenDurable
)
