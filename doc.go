// Package atmcac is a connection admission control (CAC) library for hard
// real-time communication in ATM networks, reproducing Zheng, Yokotani,
// Ichihashi and Nemoto, "Connection Admission Control for Hard Real-Time
// Communication in ATM Networks" (MERL TR-96-21 / ICDCS 1997).
//
// The library provides, over plain static-priority FIFO switches:
//
//   - the bit-stream traffic model and its manipulation algebra
//     (Algorithms 2.1 and 3.1-3.4 of the paper): worst-case envelopes of
//     CBR/VBR connections, delay/jitter clumping, multiplexing,
//     demultiplexing, and link filtering;
//   - worst-case queueing analysis (Algorithm 4.1): exact delay and backlog
//     bounds at static-priority FIFO queueing points;
//   - the CAC engine (Section 4.3): per-switch admission state, the
//     six-step admission check, fixed per-hop delay guarantees, hard
//     (worst-case sum) and soft (square-root sum) CDV accumulation, and
//     network-level setup with rollback;
//   - distributed SETUP/REJECT/CONNECTED signaling and a TCP-based central
//     CAC server;
//   - a cell-level simulator of priority-FIFO ATM switches used to validate
//     the analytic bounds;
//   - the RTnet plant-control network model of the paper's evaluation,
//     including its cyclic transmission classes and the workloads of
//     Figures 10-13.
//
// # Quick start
//
// Build a switch, admit connections, observe the worst-case delay bound:
//
//	sw, _ := atmcac.NewSwitch(atmcac.SwitchConfig{
//		Name:       "node0",
//		QueueCells: map[atmcac.Priority]float64{1: 32},
//	})
//	res, err := sw.Admit(atmcac.HopRequest{
//		Conn: "sensor-1", Spec: atmcac.CBR(0.05),
//		In: 1, Out: 0, Priority: 1,
//	})
//
// The runnable programs under examples/ and the cmd/rtnet-figures tool
// regenerate every table and figure of the paper's evaluation; see
// EXPERIMENTS.md for the reproduction record.
//
// # Concurrency
//
// All CAC types are safe for concurrent use. A switch keeps the paper's
// Sia/Sif/Soa/Sof aggregates per port as immutable cells and publishes
// them through an atomic pointer: queries never block and find the streams
// they need already summed. There is one writer per switch: Admit holds the
// switch's lock while it copies the one cell it touches,
// evaluates the Algorithm 4.1 bounds on that successor state and publishes
// it, so a connection is only ever committed against the exact state its
// bounds were computed on, and concurrent setups on a Network yield the
// same admit/reject decisions as some serial ordering of the same requests
// — the hard real-time guarantees of admitted connections are never
// weakened by races. Admit adds a connection's stream to its cell's Sia
// and release subtracts it, as the paper does; every rate lies on a 2⁻³²
// grid where that arithmetic is exact, so two switches carrying the same
// connections hold bit-identical state however they got there.
// Setups on disjoint routes proceed in parallel without shared locks.
// See DESIGN.md §4a for the locking model.
package atmcac
