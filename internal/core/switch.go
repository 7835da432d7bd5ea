// Package core implements the paper's Connection Admission Control engine
// (Section 4.3): per-switch admission state over the bit-stream algebra, the
// six-step delay-bound check for static-priority FIFO switches, hard and
// soft CDV accumulation policies, and network-level connection setup with
// commit/rollback semantics.
//
// Each switch guarantees a fixed queueing delay bound D(j,p) per output
// port j and priority p — the size, in cells, of the priority-p FIFO queue
// (a bound of D cell times also bounds the backlog by D cells, so the queue
// never overflows). A connection is admitted at a switch if and only if,
// with the connection included, the computed worst-case delay D'(j,p) stays
// within D(j,p) for the connection's priority and for every lower priority
// carrying real-time traffic.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"atmcac/internal/bitstream"
	"atmcac/internal/traffic"
)

// Priority is a static transmission priority level; 1 is the highest.
type Priority int

// PortID identifies a switch port. Incoming and outgoing port spaces are
// separate: a PortID is interpreted relative to its direction.
type PortID int

// ConnID identifies a connection network-wide.
type ConnID string

var (
	// ErrRejected reports a connection that failed the CAC check.
	ErrRejected = errors.New("core: connection rejected")
	// ErrUnknownConn reports an operation on a connection the switch or
	// network does not carry.
	ErrUnknownConn = errors.New("core: unknown connection")
	// ErrDuplicateConn reports an admission for an already-admitted ID.
	ErrDuplicateConn = errors.New("core: duplicate connection")
	// ErrBadConfig reports an invalid switch or network configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
	// ErrUnknownSwitch reports a route hop through a switch the network
	// does not contain.
	ErrUnknownSwitch = errors.New("core: unknown switch")
)

// RejectionError describes why a CAC check failed at a switch.
type RejectionError struct {
	Switch   string
	Out      PortID
	Priority Priority
	Bound    float64 // computed worst-case delay D'(j,p); +Inf if unstable
	Limit    float64 // guaranteed bound D(j,p)
	Reason   string
	// Kind is the stable taxonomy code of this rejection flavor (one of
	// CodeQueueUnstable, CodeQueueBudget, CodeDelayBound, CodeNoPriority);
	// ErrorCode surfaces it through arbitrary wrapping.
	Kind string
}

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("core: connection rejected at switch %q out port %d priority %d: %s (bound %.4g, limit %.4g)",
		e.Switch, e.Out, e.Priority, e.Reason, e.Bound, e.Limit)
}

// Unwrap lets callers match with errors.Is(err, ErrRejected).
func (e *RejectionError) Unwrap() error { return ErrRejected }

// SwitchConfig configures a switch's real-time queues.
type SwitchConfig struct {
	// Name identifies the switch within a Network.
	Name string
	// QueueCells maps each real-time priority level to the size (in cells)
	// of its per-output-port FIFO queue. The size doubles as the fixed
	// queueing delay bound D(j,p), in cell times, that the switch
	// guarantees regardless of load.
	QueueCells map[Priority]float64
	// PortQueueCells optionally overrides QueueCells for specific output
	// ports — the paper's D(j,p) is per port j, so e.g. an uplink can
	// carry a larger FIFO than edge ports. Override keys must be a subset
	// of the priorities in QueueCells.
	PortQueueCells map[PortID]map[Priority]float64
}

func (c SwitchConfig) validate() error {
	if len(c.QueueCells) == 0 {
		return fmt.Errorf("%w: switch %q has no real-time priority queues", ErrBadConfig, c.Name)
	}
	for p, cells := range c.QueueCells {
		if p < 1 {
			return fmt.Errorf("%w: switch %q priority %d (priorities start at 1)", ErrBadConfig, c.Name, p)
		}
		if !(cells > 0) || math.IsInf(cells, 0) || math.IsNaN(cells) {
			return fmt.Errorf("%w: switch %q priority %d queue size %g", ErrBadConfig, c.Name, p, cells)
		}
	}
	for port, queues := range c.PortQueueCells {
		for p, cells := range queues {
			if _, ok := c.QueueCells[p]; !ok {
				return fmt.Errorf("%w: switch %q port %d overrides unconfigured priority %d",
					ErrBadConfig, c.Name, port, p)
			}
			if !(cells > 0) || math.IsInf(cells, 0) || math.IsNaN(cells) {
				return fmt.Errorf("%w: switch %q port %d priority %d queue size %g",
					ErrBadConfig, c.Name, port, p, cells)
			}
		}
	}
	return nil
}

// boundFor returns the fixed delay bound D(j,p) of an output port,
// honouring per-port overrides.
func (c SwitchConfig) boundFor(out PortID, p Priority) (float64, bool) {
	if queues, ok := c.PortQueueCells[out]; ok {
		if d, ok := queues[p]; ok {
			return d, true
		}
	}
	d, ok := c.QueueCells[p]
	return d, ok
}

// HopRequest is the per-switch admission request for one connection.
type HopRequest struct {
	Conn     ConnID
	Spec     traffic.Spec
	In       PortID
	Out      PortID
	Priority Priority
	// CDV is the accumulated maximum cell delay variation over upstream
	// queueing points, in cell times (Section 4.3).
	CDV float64
}

// HopResult reports the outcome of a successful check or admission.
type HopResult struct {
	// Bounds maps the connection's priority, and every lower configured
	// priority carrying traffic, to the computed worst-case queueing delay
	// D'(out, p) with the new connection included.
	Bounds map[Priority]float64
	// Guaranteed is the switch's fixed bound D(out, priority) for the new
	// connection's priority: its contribution to downstream CDV.
	Guaranteed float64
}

// Switch holds the CAC state of one switching node. All methods are safe
// for concurrent use.
//
// Concurrency model: the admitted set lives in an immutable switchState —
// the paper's Sia/Sif/Soa/Sof kept per port as immutable cells — published
// through an atomic pointer. Readers (bound queries, envelopes, audits,
// Check) load it and never block. Writers (Admit, Install, Release)
// take mu for check + commit: one writer per switch copies the cell it
// touches, adds the hop's arrival to that cell's Sia (Algorithm 3.2) or
// subtracts it (Algorithm 3.3), swaps the cell's old Sif and shares for
// the new ones in the port's aggregates, shares the rest and publishes the
// successor. Rates lie on the bitstream rate grid, where every update is
// exact, so switches holding the same connections hold bit-identical state
// whatever history built it.
//
// A connection may traverse the same switch more than once — a wrapped
// RTnet ring routes traffic through each node in both directions — so a
// connection maps to a list of hop entries, each with its own port pair
// and arrival envelope.
type Switch struct {
	cfg   SwitchConfig
	prios []Priority // configured levels, highest (1) first

	// mu serializes writers and guards index; readers go through state.
	mu    sync.Mutex
	index map[ConnID]hops
	state atomic.Pointer[switchState]
}

// switchState is one immutable version of a switch's admitted set; nothing
// reachable from it is written after publication.
type switchState struct {
	conns int       // keys in Switch.index
	ports []outPort // ascending out; only ports carrying connections
}

// entry is one hop of an admitted connection: its cell and its envelope.
type entry struct {
	in, out PortID
	prio    int              // index into Switch.prios
	arrival bitstream.Stream // worst-case arrival after upstream CDV
}

// hops is the index's value; a slice in it is never written once stored.
type hops []entry

// outPort is the state of one output port j.
type outPort struct {
	out    PortID
	links  []inLink // ascending in; only links carrying connections
	queues []queue  // per priority index
}

// queue holds what Algorithm 4.1 consumes for one (out, priority): Soa(j,p),
// the sum of the links' Sif, and Sof(j)(p), the sum of the links'
// higher-priority shares, higher, filtered by the outgoing link.
type queue struct {
	soa, higher, sof bitstream.Stream
	members          int // connections of this priority leaving via the port
}

// inLink groups the cells (out, in, ·) of one incoming link.
type inLink struct {
	in    PortID
	cells []cell // per priority index
}

// cell is the paper's per-(in, out, priority) state: sia is Sia(i,j,p),
// the sum of its members' arrivals, sif is Sia filtered by the incoming
// link, and higher is the link's more urgent traffic, summed and filtered
// by the incoming link: its share of Sof(j)(p).
type cell struct {
	sia    bitstream.Stream
	sif    bitstream.Stream
	higher bitstream.Stream
}

// maxCellMembers is the exactness ceiling: a cell's Sia stays exact while
// its peak rate is below 2²¹ link rates, and every arrival starts at the
// link rate 1, so the peak is the member count.
const maxCellMembers = 1 << 21

// NewSwitch returns a switch with the given queue configuration.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.QueueCells = maps.Clone(cfg.QueueCells)
	if len(cfg.PortQueueCells) > 0 {
		overrides := make(map[PortID]map[Priority]float64, len(cfg.PortQueueCells))
		for port, qs := range cfg.PortQueueCells {
			overrides[port] = maps.Clone(qs)
		}
		cfg.PortQueueCells = overrides
	}
	sw := &Switch{cfg: cfg, index: make(map[ConnID]hops)}
	for p := range cfg.QueueCells {
		sw.prios = append(sw.prios, p)
	}
	slices.Sort(sw.prios)
	sw.state.Store(&switchState{})
	return sw, nil
}

// Name returns the switch name.
func (sw *Switch) Name() string { return sw.cfg.Name }

// GuaranteedBound returns the switch's base fixed delay bound for priority
// p (before per-port overrides), and whether the priority is configured.
func (sw *Switch) GuaranteedBound(p Priority) (float64, bool) {
	d, ok := sw.cfg.QueueCells[p]
	return d, ok
}

// GuaranteedBoundAt returns the fixed delay bound D(j,p) of output port
// out at priority p, honouring per-port overrides.
func (sw *Switch) GuaranteedBoundAt(out PortID, p Priority) (float64, bool) {
	return sw.cfg.boundFor(out, p)
}

// ConnectionCount returns the number of admitted connections.
func (sw *Switch) ConnectionCount() int {
	return sw.state.Load().conns
}

// Has reports whether the switch carries the connection.
func (sw *Switch) Has(id ConnID) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	_, ok := sw.index[id]
	return ok
}

// Priorities returns the configured priority levels, highest first.
func (sw *Switch) Priorities() []Priority {
	return slices.Clone(sw.prios)
}

// OutPorts returns the output ports that currently carry connections, in
// ascending order.
func (sw *Switch) OutPorts() []PortID {
	st := sw.state.Load()
	out := make([]PortID, len(st.ports))
	for i, p := range st.ports {
		out[i] = p.out
	}
	return out
}

// prioIndex maps a configured priority to its index in sw.prios.
func (sw *Switch) prioIndex(p Priority) (int, error) {
	k, ok := slices.BinarySearch(sw.prios, p)
	if !ok {
		return 0, fmt.Errorf("%w: switch %q has no priority %d queue", ErrBadConfig, sw.cfg.Name, p)
	}
	return k, nil
}

// Check runs the CAC check of Section 4.3 for a new connection without
// committing it. It takes the writer lock only to read the connection's
// admitted hops and the state they belong to, and evaluates without it. It
// returns a *RejectionError (wrapping ErrRejected) if the connection cannot
// be accommodated.
func (sw *Switch) Check(req HopRequest) (HopResult, error) {
	sw.mu.Lock()
	st, hs := sw.state.Load(), sw.index[req.Conn]
	sw.mu.Unlock()
	next, e, err := sw.propose(st, hs, req)
	if err != nil {
		return HopResult{}, err
	}
	var buf [stackPrios]float64
	bounds := sw.levels(&buf)
	if _, err := sw.verify(next, e, bounds); err != nil {
		return HopResult{}, err
	}
	return sw.result(req, bounds), nil
}

// Admit runs the CAC check and, on success, commits the connection. Check
// and commit happen under the writer lock against the state they extend, so
// the decision is always valid for the state it is committed into.
func (sw *Switch) Admit(req HopRequest) (HopResult, error) {
	var buf [stackPrios]float64
	bounds := sw.levels(&buf)
	if _, err := sw.admit(req, bounds); err != nil {
		return HopResult{}, err
	}
	return sw.result(req, bounds), nil
}

// Install commits the connection without running the CAC check. It is used
// for offline planning (the paper's permanent-connection mode), where a
// whole connection set is loaded and then validated once with Audit.
func (sw *Switch) Install(req HopRequest) error {
	_, err := sw.admit(req, nil)
	return err
}

// admit is the writer of Admit and Install: under mu it extends the
// current state by req, runs the CAC check into bounds unless bounds is nil,
// and publishes the successor and indexes the hop only if both pass. It
// returns D'(out, p) at req's priority, 0 when unchecked.
func (sw *Switch) admit(req HopRequest, bounds []float64) (float64, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	hs := sw.index[req.Conn]
	next, e, err := sw.propose(sw.state.Load(), hs, req)
	if err != nil {
		return 0, err
	}
	d := 0.0
	if bounds != nil {
		if d, err = sw.verify(next, e, bounds); err != nil {
			return 0, err
		}
	}
	sw.index[req.Conn] = append(slices.Clip(hs), e)
	sw.state.Store(next)
	return d, nil
}

// Release removes every hop entry of an admitted connection at this
// switch (a wrapped route may have several). Its error, other than an
// unknown id, is a cell whose Sia did not hold the connection's arrival:
// corrupted state, which is never published.
func (sw *Switch) Release(id ConnID) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	hs, ok := sw.index[id]
	if !ok {
		return fmt.Errorf("%w: %q at switch %q", ErrUnknownConn, id, sw.cfg.Name)
	}
	st := sw.state.Load()
	next := &switchState{conns: st.conns - 1, ports: st.ports}
	for _, e := range hs {
		var err error
		if next.ports, err = sw.editCell(next.ports, e, false); err != nil {
			return fmt.Errorf("core: releasing %q at switch %q: %w", id, sw.cfg.Name, err)
		}
	}
	delete(sw.index, id)
	sw.state.Store(next)
	return nil
}

// propose validates req and returns the successor of st that carries it,
// with the hop entry it added: the source envelope of Algorithm 2.1 clumped
// by the accumulated upstream CDV (Algorithm 3.1). hs are the hops st
// already holds for req.Conn. Only an entry with the same port pair is a
// duplicate; a second traversal of the switch via different ports (a
// wrapped ring) is legitimate.
func (sw *Switch) propose(st *switchState, hs hops, req HopRequest) (*switchState, entry, error) {
	if req.Conn == "" {
		return nil, entry{}, fmt.Errorf("%w: empty connection ID", ErrBadConfig)
	}
	k, err := sw.prioIndex(req.Priority)
	if err != nil {
		return nil, entry{}, err
	}
	// Note: incoming and outgoing port ID spaces are independent (a hop may
	// legitimately use ring-in 0 and ring-out 0), so In == Out is allowed.
	src, err := req.Spec.Stream()
	if err != nil {
		return nil, entry{}, err
	}
	arr, err := src.Delayed(req.CDV)
	if err != nil {
		return nil, entry{}, err
	}
	for _, h := range hs {
		if h.in == req.In && h.out == req.Out {
			return nil, entry{}, fmt.Errorf("%w: %q at switch %q ports %d->%d",
				ErrDuplicateConn, req.Conn, sw.cfg.Name, req.In, req.Out)
		}
	}
	e := entry{in: req.In, out: req.Out, prio: k, arrival: arr}
	ports, err := sw.editCell(st.ports, e, true)
	if err != nil {
		return nil, entry{}, err
	}
	next := &switchState{conns: st.conns, ports: ports}
	if len(hs) == 0 {
		next.conns++
	}
	return next, e, nil
}

// stackPrios is how many priority levels fit the stack arrays that editCell
// gathers the Sia above a cell in and that verify's bounds are written to;
// more levels cost one allocation each.
const stackPrios = 4

// editCell returns a successor of ports in which hop e has joined e's cell,
// its arrival added to Sia (Algorithm 3.2), or left it, its arrival
// subtracted (Algorithm 3.3, the paper's §4.3 update). What is derived from
// Sia follows: the cell's Sif and the link's higher-priority shares below
// e's priority are recomputed from the link's cells, and each is swapped
// for its old value in the port's aggregate, Soa of e's queue and the raw
// higher-priority sums of the lower queues, whose Sof is that sum filtered.
// One port and one link are copied; the rest is shared. A link or port left
// without connections is dropped, so the result is a function of the
// member set. A join that would take the cell to maxCellMembers is refused
// before any sum.
func (sw *Switch) editCell(ports []outPort, e entry, join bool) ([]outPort, error) {
	nprio, k := len(sw.prios), e.prio
	pi, ok := slices.BinarySearchFunc(ports, e.out, func(p outPort, out PortID) int { return cmp.Compare(p.out, out) })
	if ok {
		ports = slices.Clone(ports)
		ports[pi].queues = slices.Clone(ports[pi].queues)
	} else {
		ports = slices.Insert(slices.Clip(ports), pi, outPort{out: e.out, queues: make([]queue, nprio)})
	}
	port := &ports[pi]
	li, ok := slices.BinarySearchFunc(port.links, e.in, func(l inLink, in PortID) int { return cmp.Compare(l.in, in) })
	var cells []cell
	if ok {
		port.links = slices.Clone(port.links)
		cells = slices.Clone(port.links[li].cells)
	} else {
		port.links = slices.Insert(slices.Clip(port.links), li, inLink{in: e.in})
		cells = make([]cell, nprio)
	}
	port.links[li].cells = cells

	if join {
		if cells[k].sia.PeakRate()+e.arrival.PeakRate() >= maxCellMembers {
			return nil, fmt.Errorf("%w: cell (in %d, out %d, priority %d) at switch %q would reach %d connections, past exact rate arithmetic",
				ErrBadConfig, e.in, e.out, sw.prios[k], sw.cfg.Name, maxCellMembers)
		}
		cells[k].sia = bitstream.Sum(cells[k].sia, e.arrival)
		port.queues[k].members++
	} else {
		sia, err := bitstream.Sub(cells[k].sia, e.arrival)
		if err != nil {
			return nil, err
		}
		cells[k].sia = sia
		port.queues[k].members--
	}
	oldSif := cells[k].sif
	cells[k].sif = cells[k].sia.Filtered()
	var err error
	if port.queues[k].soa, err = bitstream.Replace(port.queues[k].soa, oldSif, cells[k].sif); err != nil {
		return nil, err
	}
	// Sia of the priorities above m, most urgent first.
	var aboveBuf [stackPrios]bitstream.Stream
	above := aboveBuf[:0]
	empty := true
	for m := range cells {
		if m > k {
			oldHigher := cells[m].higher
			cells[m].higher = bitstream.Sum(above...).Filtered()
			q := &port.queues[m]
			if q.higher, err = bitstream.Replace(q.higher, oldHigher, cells[m].higher); err != nil {
				return nil, err
			}
			q.sof = q.higher.Filtered()
		}
		above = append(above, cells[m].sia)
		empty = empty && cells[m].sia.IsZero()
	}
	if empty {
		port.links = slices.Delete(port.links, li, li+1)
	}
	if len(port.links) == 0 {
		ports = slices.Delete(ports, pi, pi+1)
	}
	return ports, nil
}

// queue returns the queue of priority index k at an output port; a port
// that carries nothing has empty queues.
func (st *switchState) queue(out PortID, k int) queue {
	i, ok := slices.BinarySearchFunc(st.ports, out, func(p outPort, out PortID) int { return cmp.Compare(p.out, out) })
	if !ok {
		return queue{}
	}
	return st.ports[i].queues[k]
}

// bound computes D'(j,p) by Algorithm 4.1; an unstable queueing point has
// the bound +Inf.
func (q queue) bound() (float64, error) {
	d, err := bitstream.DelayBound(q.soa, q.sof)
	if errors.Is(err, bitstream.ErrUnstable) {
		return math.Inf(1), nil
	}
	return d, err
}

// verify performs Steps 1-6 of Section 4.3 on a state that already holds
// the candidate hop e: Algorithm 4.1 for e's priority and for every lower
// priority carrying traffic at e's output port (higher priorities are
// unaffected by the new connection). It writes each D'(out, p) into
// bounds[k], p's index, and NaN where no bound was computed, and returns
// the one at e's priority. It takes no locks.
func (sw *Switch) verify(next *switchState, e entry, bounds []float64) (float64, error) {
	for k := range bounds {
		bounds[k] = math.NaN()
	}
	for k := e.prio; k < len(sw.prios); k++ {
		q := next.queue(e.out, k)
		if q.members == 0 {
			// Lower priority with no real-time traffic: nothing to protect.
			continue
		}
		p := sw.prios[k]
		limit, _ := sw.cfg.boundFor(e.out, p)
		d, err := q.bound()
		if err != nil {
			return 0, err
		}
		if d > limit+bitstream.Eps {
			rej := &RejectionError{
				Switch: sw.cfg.Name, Out: e.out, Priority: p, Bound: d, Limit: limit,
				Reason: "worst-case queueing delay exceeds the FIFO budget",
				Kind:   CodeQueueBudget,
			}
			if math.IsInf(d, 1) {
				rej.Reason, rej.Kind = "queueing point would become unstable", CodeQueueUnstable
			}
			return 0, rej
		}
		bounds[k] = d
	}
	return bounds[e.prio], nil
}

// levels returns one bound slot per configured priority, in buf when the
// levels fit.
func (sw *Switch) levels(buf *[stackPrios]float64) []float64 {
	if len(sw.prios) <= stackPrios {
		return buf[:len(sw.prios)]
	}
	return make([]float64, len(sw.prios))
}

// result is the HopResult of a checked req whose bounds verify wrote.
func (sw *Switch) result(req HopRequest, bounds []float64) HopResult {
	res := HopResult{Bounds: make(map[Priority]float64)}
	for k, d := range bounds {
		if !math.IsNaN(d) {
			res.Bounds[sw.prios[k]] = d
		}
	}
	res.Guaranteed, _ = sw.cfg.boundFor(req.Out, req.Priority)
	return res
}

// ComputedBound returns the current worst-case queueing delay D'(out, p)
// with the present connection set (no candidate).
func (sw *Switch) ComputedBound(out PortID, p Priority) (float64, error) {
	soa, sof, err := sw.PortEnvelope(out, p)
	if err != nil {
		return 0, err
	}
	return bitstream.DelayBound(soa, sof)
}

// MaxBacklog returns the worst-case backlog (cells) of the priority-p queue
// at the given output port with the present connection set.
func (sw *Switch) MaxBacklog(out PortID, p Priority) (float64, error) {
	soa, sof, err := sw.PortEnvelope(out, p)
	if err != nil {
		return 0, err
	}
	return bitstream.MaxBacklog(soa, sof)
}

// PortEnvelope returns the assembled worst-case streams at an output port
// for priority p: the same-priority aggregate Soa(j,p) and the filtered
// higher-priority aggregate Sof(j)(p) that Algorithm 4.1 consumes. It is
// an observability hook for tooling; the streams are immutable and safe to
// retain.
func (sw *Switch) PortEnvelope(out PortID, p Priority) (soa, sof bitstream.Stream, err error) {
	k, err := sw.prioIndex(p)
	if err != nil {
		return bitstream.Stream{}, bitstream.Stream{}, err
	}
	q := sw.state.Load().queue(out, k)
	return q.soa, q.sof, nil
}
