package atmcac

import (
	"atmcac/internal/bitstream"
	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// Bit-stream traffic model (paper Sections 2-3 and 4.2).
type (
	// Stream is a worst-case traffic envelope: a monotone non-increasing
	// step function of rate over time (rates normalized to the link, time
	// in cell times).
	Stream = bitstream.Stream
	// Segment is one step of a Stream.
	Segment = bitstream.Segment
)

// Bit-stream constructors and algebra (Algorithms 2.1 and 3.1-3.4).
var (
	// NewStream validates and canonicalizes segments into a Stream.
	NewStream = bitstream.New
	// FromVBR is Algorithm 2.1: the envelope of a (PCR, SCR, MBS) source.
	FromVBR = bitstream.FromVBR
	// ZeroStream returns the empty stream.
	ZeroStream = bitstream.Zero
	// SumStreams multiplexes any number of streams in one pass
	// (Algorithm 3.2).
	SumStreams = bitstream.Sum
	// DelayBound is Algorithm 4.1: the worst-case queueing delay of an
	// aggregate at a static-priority FIFO queueing point.
	DelayBound = bitstream.DelayBound
)

// TrafficSpec is the (PCR, SCR, MBS) descriptor of a connection (paper
// Section 2).
type TrafficSpec = traffic.Spec

// Traffic descriptors and units (paper Section 2 and the RTnet evaluation).
var (
	// CBR returns a constant-bit-rate descriptor.
	CBR = traffic.CBR
	// VBR returns a variable-bit-rate descriptor.
	VBR = traffic.VBR
	// NewPacer returns a conforming source pacer.
	NewPacer = traffic.NewPacer
	// OC3 is the 155.52 Mbps link of RTnet (one cell time is about 2.7us).
	OC3 = traffic.OC3
)

// CAC engine (paper Section 4.3).
type (
	// Priority is a static transmission priority; 1 is highest.
	Priority = core.Priority
	// PortID identifies a switch port.
	PortID = core.PortID
	// ConnID identifies a connection network-wide.
	ConnID = core.ConnID
	// SwitchConfig configures a switch's real-time FIFO queues.
	SwitchConfig = core.SwitchConfig
	// Switch holds one switching node's admission state.
	Switch = core.Switch
	// HopRequest is a per-switch admission request.
	HopRequest = core.HopRequest
	// Hop is one queueing point of a route.
	Hop = core.Hop
	// Route is an ordered list of queueing points.
	Route = core.Route
	// ConnRequest is a network-level setup request: the paper's
	// (PCR, SCR, MBS, D) plus route and priority.
	ConnRequest = core.ConnRequest
	// Network is a set of CAC switches with a CDV policy.
	Network = core.Network
	// CDVPolicy accumulates upstream delay bounds into a CDV.
	CDVPolicy = core.CDVPolicy
	// HardCDV is the worst-case (sum) accumulation policy.
	HardCDV = core.HardCDV
	// SoftCDV is the square-root-sum accumulation policy for soft
	// real-time connections.
	SoftCDV = core.SoftCDV
	// RejectionError explains a CAC rejection.
	RejectionError = core.RejectionError
)

var (
	// NewSwitch returns a CAC switch.
	NewSwitch = core.NewSwitch
	// NewNetwork returns an empty CAC network (nil policy means hard).
	NewNetwork = core.NewNetwork
	// ErrRejected reports a connection that failed the CAC check.
	ErrRejected = core.ErrRejected
)
