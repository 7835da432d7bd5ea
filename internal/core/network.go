package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"atmcac/internal/bitstream"
	"atmcac/internal/obs"
	"atmcac/internal/traffic"
)

// CDVPolicy accumulates upstream per-hop delay bounds into the cell delay
// variation used to clump a connection's arrival envelope at the next hop
// (Section 4.3, discussion 1).
type CDVPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Accumulate combines the guaranteed delay bounds of the upstream
	// queueing points into a CDV, in cell times.
	Accumulate(upstreamBounds []float64) float64
}

// HardCDV is the hard real-time policy: the CDV is the plain sum of the
// upstream maximum queueing delays — the true worst case.
type HardCDV struct{}

// Name implements CDVPolicy.
func (HardCDV) Name() string { return "hard" }

// Accumulate implements CDVPolicy.
func (HardCDV) Accumulate(upstreamBounds []float64) float64 {
	sum := 0.0
	for _, d := range upstreamBounds {
		sum += d
	}
	return sum
}

// SoftCDV is the soft real-time policy the paper suggests: a square-root
// summation of upstream bounds, exploiting that a cell is very unlikely to
// suffer the maximum queueing delay at every hop simultaneously.
type SoftCDV struct{}

// Name implements CDVPolicy.
func (SoftCDV) Name() string { return "soft" }

// Accumulate implements CDVPolicy.
func (SoftCDV) Accumulate(upstreamBounds []float64) float64 {
	sum := 0.0
	for _, d := range upstreamBounds {
		sum += d * d
	}
	return math.Sqrt(sum)
}

var (
	_ CDVPolicy = HardCDV{}
	_ CDVPolicy = SoftCDV{}
)

// Hop is one queueing point on a connection's route.
type Hop struct {
	Switch string `json:"switch"`
	In     PortID `json:"in"`
	Out    PortID `json:"out"`
}

// Route is the ordered list of queueing points a connection traverses.
type Route []Hop

// ConnRequest is a network-level connection setup request, carrying the
// paper's (PCR, SCR, MBS, D) parameters plus the route and priority.
type ConnRequest struct {
	ID       ConnID       `json:"id"`
	Spec     traffic.Spec `json:"spec"`
	Priority Priority     `json:"priority"`
	Route    Route        `json:"route"`
	// DelayBound is the requested end-to-end queueing delay bound D in
	// cell times; 0 means no end-to-end requirement (per-hop guarantees
	// still apply).
	DelayBound float64 `json:"delayBound,omitempty"`
	// SourceCDV is the delay variation already accumulated before the
	// first hop (e.g. at the sending terminal), in cell times.
	SourceCDV float64 `json:"sourceCDV,omitempty"`
}

func (r ConnRequest) validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty connection ID", ErrBadConfig)
	}
	if err := r.Spec.Validate(); err != nil {
		return err
	}
	if len(r.Route) == 0 {
		return fmt.Errorf("%w: connection %q has an empty route", ErrBadConfig, r.ID)
	}
	if r.DelayBound < 0 || r.SourceCDV < 0 {
		return fmt.Errorf("%w: connection %q has negative delay parameters", ErrBadConfig, r.ID)
	}
	return nil
}

// Admission summarizes a successful end-to-end connection setup.
type Admission struct {
	ID ConnID
	// PerHopGuaranteed are the fixed bounds D(j,p) of each hop: what the
	// network contractually guarantees and what feeds CDV accumulation.
	PerHopGuaranteed []float64
	// PerHopComputed are the load-dependent computed bounds D'(j,p) at
	// admission time — the quantity the paper's Figure 10 plots.
	PerHopComputed []float64
	// EndToEndGuaranteed is the sum of the fixed per-hop bounds.
	EndToEndGuaranteed float64
	// EndToEndComputed is the sum of the computed per-hop bounds.
	EndToEndComputed float64
}

// Violation reports a queue whose computed bound exceeds its guarantee,
// found by Network.Audit.
type Violation struct {
	Switch   string
	Out      PortID
	Priority Priority
	Bound    float64 // +Inf when the queueing point is unstable
	Limit    float64
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("switch %q out %d priority %d: bound %.4g > limit %.4g",
		v.Switch, v.Out, v.Priority, v.Bound, v.Limit)
}

// Network is a set of CAC switches with a shared CDV accumulation policy.
// It performs end-to-end connection setup (sequential hop-by-hop admission
// with rollback, mirroring the SETUP/REJECT signaling of Section 4.1) and
// offline planning (bulk install + audit, the mode the current RTnet uses
// for permanent connections).
//
// There is no network-wide admission lock: the switch registry is guarded
// by a read-write lock (reads are the hot path; switches are added at
// startup), connection bookkeeping by its own mutex, and all per-hop CAC
// state by each switch's own writer lock, so concurrent setups on
// disjoint routes proceed fully in parallel and setups on overlapping
// routes serialize only inside each shared switch's check + commit.
type Network struct {
	policy CDVPolicy

	// switchMu guards the switch registry only.
	switchMu sync.RWMutex
	switches map[string]*Switch

	// connMu guards admitted and pending. A setup in flight reserves its
	// ID in pending so concurrent setups of the same ID are rejected as
	// duplicates instead of racing hop commits.
	connMu   sync.Mutex
	admitted map[ConnID]ConnRequest
	pending  map[ConnID]struct{}

	// linkMu guards downLinks, the set of failed inter-switch links, and
	// linkMapper, the topology-provided route link enumerator. FailLink
	// publishes the mark here before scanning admitted, and commitID
	// re-reads it under connMu, which closes the race between a link
	// failing and a setup over it committing (see FailLink).
	linkMu     sync.RWMutex
	downLinks  map[Link]struct{}
	linkMapper LinkMapper

	// trMu guards tracer, the network-wide trace sink installed with
	// SetTracer.
	trMu   sync.RWMutex
	tracer obs.Tracer
}

// NewNetwork returns an empty network using the given CDV policy.
func NewNetwork(policy CDVPolicy) *Network {
	if policy == nil {
		policy = HardCDV{}
	}
	return &Network{
		policy:    policy,
		switches:  make(map[string]*Switch),
		admitted:  make(map[ConnID]ConnRequest),
		pending:   make(map[ConnID]struct{}),
		downLinks: make(map[Link]struct{}),
	}
}

// Policy returns the network's CDV accumulation policy.
func (n *Network) Policy() CDVPolicy { return n.policy }

// SetTracer installs t as the network-wide trace sink: every Setup,
// Teardown, FailLink, RestoreLink and Audit emits structured obs events
// into it. nil disables tracing. Safe to call concurrently with admissions,
// though the intended use is once at startup.
func (n *Network) SetTracer(t obs.Tracer) {
	n.trMu.Lock()
	n.tracer = t
	n.trMu.Unlock()
}

// getTracer returns the installed network-wide sink (nil when tracing is
// off — emitters keep a fast-path nil check).
func (n *Network) getTracer() obs.Tracer {
	n.trMu.RLock()
	t := n.tracer
	n.trMu.RUnlock()
	return t
}

// AddSwitch creates and registers a switch.
func (n *Network) AddSwitch(cfg SwitchConfig) (*Switch, error) {
	sw, err := NewSwitch(cfg)
	if err != nil {
		return nil, err
	}
	n.switchMu.Lock()
	defer n.switchMu.Unlock()
	if _, ok := n.switches[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: switch %q already exists", ErrBadConfig, cfg.Name)
	}
	n.switches[cfg.Name] = sw
	return sw, nil
}

// Switch returns a registered switch by name.
func (n *Network) Switch(name string) (*Switch, bool) {
	n.switchMu.RLock()
	defer n.switchMu.RUnlock()
	sw, ok := n.switches[name]
	return sw, ok
}

// SwitchNames returns the registered switch names in sorted order.
func (n *Network) SwitchNames() []string {
	n.switchMu.RLock()
	defer n.switchMu.RUnlock()
	names := make([]string, 0, len(n.switches))
	for name := range n.switches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Connections returns the IDs of admitted connections in sorted order.
// The IDs are copied under the lock and sorted after it, so a long list
// does not hold up admissions.
func (n *Network) Connections() []ConnID {
	n.connMu.Lock()
	ids := make([]ConnID, 0, len(n.admitted))
	for id := range n.admitted {
		ids = append(ids, id)
	}
	n.connMu.Unlock()
	slices.Sort(ids)
	return ids
}

// AdmittedRequests returns copies of the admitted connection requests in
// ID order — the network's durable state, used for persistence. Like
// Connections it sorts after releasing the lock.
func (n *Network) AdmittedRequests() []ConnRequest {
	n.connMu.Lock()
	reqs := make([]ConnRequest, 0, len(n.admitted))
	for _, req := range n.admitted {
		reqs = append(reqs, req)
	}
	n.connMu.Unlock()
	for i := range reqs {
		reqs[i].Route = slices.Clone(reqs[i].Route)
	}
	slices.SortFunc(reqs, func(a, b ConnRequest) int { return cmp.Compare(a.ID, b.ID) })
	return reqs
}

// AdmittedRequest returns a copy of one admitted connection request.
func (n *Network) AdmittedRequest(id ConnID) (ConnRequest, bool) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	req, ok := n.admitted[id]
	if !ok {
		return ConnRequest{}, false
	}
	cp := req
	cp.Route = append(Route(nil), req.Route...)
	return cp, true
}

// reserveID claims req.ID for an in-flight setup; the caller must resolve
// the reservation with commitID or abandonID.
func (n *Network) reserveID(id ConnID) error {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if _, ok := n.admitted[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateConn, id)
	}
	if _, ok := n.pending[id]; ok {
		return fmt.Errorf("%w: %q (setup in progress)", ErrDuplicateConn, id)
	}
	n.pending[id] = struct{}{}
	return nil
}

// commitID turns a reservation into an admission. It re-validates the
// route's link state inside the critical section: a link that failed after
// the pre-setup check must abort the commit (the caller rolls the hop
// reservations back), otherwise a connection over a dead link could slip
// past FailLink's eviction scan.
func (n *Network) commitID(req ConnRequest) error {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.commitLocked(req)
}

// commitLocked is commitID's body; the caller holds connMu.
func (n *Network) commitLocked(req ConnRequest) error {
	delete(n.pending, req.ID)
	if err := n.routeLinkDown(req.Route); err != nil {
		return fmt.Errorf("%w (failed during setup of %q)", err, req.ID)
	}
	n.admitted[req.ID] = req
	return nil
}

// abandonID drops a reservation after a failed setup.
func (n *Network) abandonID(id ConnID) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	delete(n.pending, id)
}

// resolveRoute maps a route onto switches and collects their fixed bounds.
func (n *Network) resolveRoute(req ConnRequest) ([]*Switch, []float64, error) {
	n.switchMu.RLock()
	defer n.switchMu.RUnlock()
	switches := make([]*Switch, len(req.Route))
	guaranteed := make([]float64, len(req.Route))
	for i, hop := range req.Route {
		sw, ok := n.switches[hop.Switch]
		if !ok {
			return nil, nil, fmt.Errorf("%w: %q (hop %d of connection %q)",
				ErrUnknownSwitch, hop.Switch, i, req.ID)
		}
		d, ok := sw.GuaranteedBoundAt(hop.Out, req.Priority)
		if !ok {
			return nil, nil, fmt.Errorf("%w: switch %q has no priority %d queue",
				ErrBadConfig, hop.Switch, req.Priority)
		}
		switches[i] = sw
		guaranteed[i] = d
	}
	return switches, guaranteed, nil
}

// Setup establishes a connection hop by hop, mirroring the distributed
// SETUP procedure: each switch on the route runs the CAC check; the first
// rejection rolls back all upstream commitments and the error (wrapping
// ErrRejected for CAC failures) is returned.
//
// Each hop's admission checks and commits under that switch's writer lock
// (see Switch.Admit), so concurrent setups serialize only at the switches
// they actually share, for a cost that does not grow with what is resident.
//
// The context bounds the whole setup: the deadline is checked before each
// hop's admission, and an expired context rolls every upstream reservation
// back and returns the context error — a setup abandoned by its deadline
// never leaves partial reservations behind. An admitted connection is
// never evicted by a late cancellation: once the last hop commits, the
// setup completes. This is the one instrumented admission path — every
// other entry point (wire, failover, planning) funnels through it.
func (n *Network) Setup(ctx context.Context, req ConnRequest) (*Admission, error) {
	tr := n.getTracer()
	start := time.Now()
	adm, err := n.setup(ctx, req, tr)
	if tr != nil {
		tr.Trace(setupEvent(req, err, time.Since(start)))
	}
	return adm, err
}

// setupEvent is the trace of one setup decision.
func setupEvent(req ConnRequest, err error, dur time.Duration) obs.Event {
	ev := obs.Event{
		Kind:     obs.KindSetup,
		Conn:     string(req.ID),
		Hops:     len(req.Route),
		Duration: dur,
	}
	switch {
	case err == nil:
		ev.Outcome = obs.OutcomeAccepted
	case errors.Is(err, ErrRejected):
		ev.Outcome = obs.OutcomeRejected
		ev.Code = ErrorCode(err)
	default:
		ev.Outcome = obs.OutcomeError
		ev.Code = ErrorCode(err)
	}
	return ev
}

// setup runs the walk of req: admitted hop by hop and committed.
func (n *Network) setup(ctx context.Context, req ConnRequest, tr obs.Tracer) (*Admission, error) {
	w, err := n.Begin(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := w.admitAll(ctx, tr); err != nil {
		return nil, err
	}
	return w.Finish()
}

// Teardown releases a connection at every hop of its route.
func (n *Network) Teardown(id ConnID) error {
	start := time.Now()
	err := n.teardown(id)
	if tr := n.getTracer(); tr != nil {
		ev := obs.Event{
			Kind:     obs.KindTeardown,
			Conn:     string(id),
			Outcome:  obs.OutcomeOK,
			Duration: time.Since(start),
		}
		if err != nil {
			ev.Outcome = obs.OutcomeError
			ev.Code = ErrorCode(err)
		}
		tr.Trace(ev)
	}
	return err
}

func (n *Network) teardown(id ConnID) error {
	n.connMu.Lock()
	req, ok := n.admitted[id]
	if ok {
		delete(n.admitted, id)
	}
	n.connMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownConn, id)
	}
	return n.releaseRoute(id, req.Route)
}

// releaseRoute releases the connection's reservations at every switch of
// the route. A wrapped route may visit the same switch twice; Release
// removes all of the connection's hop entries at once, so each switch is
// released exactly once, at the first hop that visits it.
func (n *Network) releaseRoute(id ConnID, route Route) error {
	for i, hop := range route {
		if slices.ContainsFunc(route[:i], func(h Hop) bool { return h.Switch == hop.Switch }) {
			continue
		}
		sw, swOK := n.Switch(hop.Switch)
		if !swOK {
			return fmt.Errorf("%w: %q while tearing down %q", ErrUnknownSwitch, hop.Switch, id)
		}
		if err := sw.Release(id); err != nil {
			return fmt.Errorf("teardown %q: %w", id, err)
		}
	}
	return nil
}

// Install loads a connection at every hop without running CAC checks. It is
// the offline-planning path: with fixed per-switch bounds, admissibility of
// a connection set is order-independent, so a whole set can be installed
// and then validated once with Audit.
func (n *Network) Install(req ConnRequest) error {
	// Planning is never abandoned midway, so the walk gets no deadline.
	var w Walk
	if err := n.begin(context.Background(), req, &w); err != nil {
		return err
	}
	for i, sw := range w.switches {
		if err := sw.Install(w.hop(i)); err != nil {
			w.Abort()
			return err
		}
		w.held++
	}
	return n.CommitPrepared(req)
}

// Audit recomputes the worst-case delay bound of every (switch, output
// port, priority) queue carrying traffic and returns the queues whose bound
// exceeds their guarantee. An empty result means the installed connection
// set is admissible. Each switch is audited against one published state;
// admissions committing concurrently are seen entirely or not at all per
// switch.
func (n *Network) Audit() ([]Violation, error) {
	start := time.Now()
	violations, err := n.audit()
	if tr := n.getTracer(); err == nil && tr != nil {
		tr.Trace(obs.Event{
			Kind:       obs.KindAudit,
			Violations: len(violations),
			Duration:   time.Since(start),
		})
	}
	return violations, err
}

func (n *Network) audit() ([]Violation, error) {
	var violations []Violation
	for _, name := range n.SwitchNames() {
		sw, _ := n.Switch(name)
		for _, port := range sw.state.Load().ports {
			for k, q := range port.queues {
				if q.members == 0 {
					continue
				}
				p := sw.prios[k]
				limit, _ := sw.cfg.boundFor(port.out, p)
				d, err := q.bound()
				if err != nil {
					return nil, err
				}
				if d > limit+bitstream.Eps {
					violations = append(violations, Violation{
						Switch: sw.Name(), Out: port.out, Priority: p,
						Bound: d, Limit: limit,
					})
				}
			}
		}
	}
	return violations, nil
}

// AssignPriority picks the least urgent (numerically largest) priority of
// the ladder whose contractual end-to-end guarantee along the route still
// meets the requested budget — the paper's guidance that "connections
// requesting large delay bounds can be assigned low priority levels", made
// mechanical. The guarantee is the hard (sum) accumulation of the per-hop
// bounds of the candidate priority. It returns ErrRejected when even the
// highest priority cannot meet the budget.
func (n *Network) AssignPriority(route Route, budget float64) (Priority, error) {
	if len(route) == 0 || !(budget > 0) {
		return 0, fmt.Errorf("%w: AssignPriority needs a route and a positive budget", ErrBadConfig)
	}
	// Candidate priorities: those configured at every hop.
	first, ok := n.Switch(route[0].Switch)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownSwitch, route[0].Switch)
	}
	var best Priority
	found := false
	for _, p := range first.prios {
		total := 0.0
		feasible := true
		for _, hop := range route {
			sw, ok := n.Switch(hop.Switch)
			if !ok {
				return 0, fmt.Errorf("%w: %q", ErrUnknownSwitch, hop.Switch)
			}
			d, ok := sw.GuaranteedBoundAt(hop.Out, p)
			if !ok {
				feasible = false
				break
			}
			total += d
		}
		if !feasible || total > budget {
			continue
		}
		if !found || p > best {
			best = p
			found = true
		}
	}
	if !found {
		return 0, &RejectionError{
			Switch:   "(end-to-end)",
			Bound:    math.Inf(1),
			Limit:    budget,
			Reason:   "no priority level's guarantee meets the requested budget",
			Priority: 0,
			Kind:     CodeNoPriority,
		}
	}
	return best, nil
}

// RouteBound sums the current computed per-hop bounds D'(j,p) along a route
// for a given priority: the end-to-end worst-case queueing delay of a
// connection following that route under the present load (the quantity
// plotted in the paper's Figure 10).
func (n *Network) RouteBound(route Route, p Priority) (float64, error) {
	total := 0.0
	for i, hop := range route {
		sw, ok := n.Switch(hop.Switch)
		if !ok {
			return 0, fmt.Errorf("%w: %q (hop %d)", ErrUnknownSwitch, hop.Switch, i)
		}
		d, err := sw.ComputedBound(hop.Out, p)
		if err != nil {
			return 0, fmt.Errorf("route bound at switch %q hop %d: %w", hop.Switch, i, err)
		}
		total += d
	}
	return total, nil
}
