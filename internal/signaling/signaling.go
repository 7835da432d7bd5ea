// Package signaling implements the distributed connection setup procedure
// of the paper's Section 4.1 over an in-process message fabric: a source
// sends a SETUP message carrying (PCR, SCR, MBS, D) along a preselected
// route; every switch runs the CAC check and forwards the SETUP downstream
// on success or sends a REJECT back upstream (releasing reservations hop by
// hop) on failure; the destination's CONNECTED message completes the setup.
//
// Each switching node runs one goroutine draining an unbounded mailbox, so
// the protocol is deadlock-free on cyclic (ring) topologies and processes
// admissions serially per node, exactly like a switch control processor.
//
// The fabric drives a core.Network: the SETUP message carries the
// network's core.Walk, so each node charges and admits its hop exactly as
// the central server's Network.Setup does, and the origin commits the
// walk on CONNECTED. The established set, failed links and teardown are
// the network's.
package signaling

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"atmcac/internal/core"
	"atmcac/internal/overload"
)

var (
	// ErrClosed reports use of a closed fabric.
	ErrClosed = errors.New("signaling: fabric closed")
	// ErrUnknownNode reports a route hop through an unregistered node.
	ErrUnknownNode = core.ErrUnknownSwitch
	// ErrDuplicate reports a connection ID already in use.
	ErrDuplicate = core.ErrDuplicateConn
	// ErrUnknownConn reports a disconnect for an unknown connection.
	ErrUnknownConn = core.ErrUnknownConn
	// ErrSuppressed reports a setup whose every candidate route is
	// currently suppressed by the per-route circuit breaker — the caller
	// should back off instead of probing dead routes.
	ErrSuppressed = errors.New("signaling: all candidate routes suppressed by circuit breaker")
)

// Result is the outcome of a completed setup: the network's admission.
type Result = core.Admission

// kind enumerates protocol messages. CONNECTED is not a message between
// nodes: the destination resolves the setup at the origin directly.
type kind int

const (
	kindSetup kind = iota + 1
	kindReject
)

// message is one protocol PDU. The walk travels with it, and so does its
// ownership: only the node holding the message touches the walk.
type message struct {
	kind kind
	walk *core.Walk
	hop  int // index into the walk's route this message is addressed to
	// err carries a REJECT's downstream refusal back upstream.
	err error
	// done resolves the setup at the origin: nil on CONNECTED, the
	// refusal once a REJECT has unwound every hop.
	done chan<- error
}

// Node is one switching node of the fabric: a CAC switch plus its control
// goroutine.
type Node struct {
	sw     *core.Switch
	fabric *Fabric
	mb     *mailbox
	done   chan struct{}
}

// Name returns the node name.
func (n *Node) Name() string { return n.sw.Name() }

// Switch exposes the node's CAC state (for inspection in tests and tools).
func (n *Node) Switch() *core.Switch { return n.sw }

// Fabric is a set of signaling nodes driving the distributed setup over
// one core.Network.
type Fabric struct {
	net *core.Network

	mu     sync.Mutex
	nodes  map[string]*Node
	closed bool
	// stopped closes once Close has stopped every node goroutine; an
	// origin still waiting then aborts its walk with ErrClosed.
	stopped chan struct{}
}

// NewFabric returns an empty fabric with the given CDV policy (nil means
// hard).
func NewFabric(policy core.CDVPolicy) *Fabric {
	return &Fabric{
		net:     core.NewNetwork(policy),
		nodes:   make(map[string]*Node),
		stopped: make(chan struct{}),
	}
}

// AddNode registers a switching node and starts its control goroutine.
func (f *Fabric) AddNode(cfg core.SwitchConfig) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	sw, err := f.net.AddSwitch(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{sw: sw, fabric: f, mb: newMailbox(), done: make(chan struct{})}
	f.nodes[cfg.Name] = n
	go n.run()
	return n, nil
}

// Node returns a registered node.
func (f *Fabric) Node(name string) (*Node, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[name]
	return n, ok
}

// open returns ErrClosed once Close has begun.
func (f *Fabric) open() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Close stops every node goroutine and waits for them to exit. In-flight
// setups receive ErrClosed.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	nodes := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()

	for _, n := range nodes {
		n.mb.close()
	}
	for _, n := range nodes {
		<-n.done
	}
	close(f.stopped)
}

// deliver routes a message to the node owning its hop. Every switch of
// the network is a node, and nodes are never removed.
func (f *Fabric) deliver(msg message) {
	name := msg.walk.Request().Route[msg.hop].Switch
	f.mu.Lock()
	n := f.nodes[name]
	f.mu.Unlock()
	n.mb.put(msg)
}

// Connect runs the distributed setup for req and blocks until CONNECTED,
// REJECT, or context cancellation. On success the connection is established
// at every hop; on rejection all upstream reservations have been released.
//
// Cancelling the context abandons the wait but does not abort the protocol:
// an eventually-successful setup stays established (call Disconnect to
// release it).
func (f *Fabric) Connect(ctx context.Context, req core.ConnRequest) (*Result, error) {
	w, err := f.run(ctx, req, func(w *core.Walk) { _, _ = w.Finish() })
	if err != nil {
		return nil, err
	}
	return w.Finish()
}

// run begins req's walk at the origin, sends its SETUP down the route and
// waits for CONNECTED or REJECT. It returns the CONNECTED walk for the
// caller to finish or abort; a refused walk is aborted. The context bounds
// only the wait: a walk whose wait was abandoned still runs to completion
// and is then handed to late, or aborted if it was refused.
func (f *Fabric) run(ctx context.Context, req core.ConnRequest, late func(*core.Walk)) (*core.Walk, error) {
	if err := f.open(); err != nil {
		return nil, err
	}
	// The fabric owns the walk's lifetime: the SETUP runs to completion
	// whatever ctx does, so ctx is not the walk's.
	w, err := f.net.Begin(context.Background(), req)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	f.deliver(message{kind: kindSetup, walk: w, done: done})
	// An already-ended context abandons the wait before any outcome can
	// race it.
	if ctx.Err() == nil {
		select {
		case err := <-done:
			return settle(w, err)
		case <-f.stopped:
			return settle(w, ErrClosed)
		case <-ctx.Done():
		}
	}
	go func() {
		select {
		case err := <-done:
			if err == nil {
				late(w)
				return
			}
		case <-f.stopped:
		}
		w.Abort()
	}()
	return nil, ctx.Err()
}

// settle aborts a refused walk and hands back a CONNECTED one.
func settle(w *core.Walk, err error) (*core.Walk, error) {
	if err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

// SetupOptions tunes ConnectAnyOpts with the overload-control policy of
// one setup attempt.
type SetupOptions struct {
	// RetryBudget caps the total number of route attempts (parallel
	// probes plus serial crankback retries) one setup may spend. Zero
	// means the classic behaviour: one probe per candidate plus one
	// serial pass when every probe was rejected.
	RetryBudget int
	// Breaker, when non-nil, suppresses candidate routes whose breaker
	// is open and records each attempt's outcome, so routes behind a
	// failed link stop being probed after a few rejections instead of
	// feeding a crankback storm.
	Breaker *overload.RouteBreaker
}

// RouteKey derives the circuit-breaker key of a route: the ordered switch
// names. Port detail is deliberately dropped — what fails together (a
// link, a saturated switch) is shared by every port-level variant.
func RouteKey(route core.Route) string {
	names := make([]string, len(route))
	for i, hop := range route {
		names[i] = hop.Switch
	}
	return strings.Join(names, ">")
}

// candidate is one breaker-approved route with its caller-visible index.
type candidate struct {
	idx   int
	route core.Route
}

// record feeds one attempt outcome to the breaker: successes close the
// route, CAC rejections and dead links count toward opening it; errors
// that say nothing about the route (cancellation, closed fabric) are not
// recorded.
func (o SetupOptions) record(route core.Route, err error) {
	if o.Breaker == nil {
		return
	}
	switch {
	case err == nil:
		o.Breaker.RecordSuccess(RouteKey(route))
	case crankbackErr(err):
		o.Breaker.RecordFailure(RouteKey(route))
	}
}

// ConnectAny attempts the setup over the candidate routes and returns a
// success together with the index of the route that carried it — the
// crankback behaviour of ATM signaling: a REJECT releases every upstream
// reservation and the source retries over an alternate route.
//
// With more than one candidate the routes are evaluated in parallel: each
// candidate runs a full distributed setup under a hidden probe ID, the
// lowest-indexed viable outcome wins (mirroring the serial preference
// order), surplus successes are released, and the winner's walk is
// re-labelled to req.ID (core.Walk.Rename) and committed. Probes briefly
// reserve capacity on every candidate simultaneously, so if all of them
// are rejected — which can be an artifact of the probes contending with
// each other — the candidates are retried serially before the rejection
// is final. Decisions are therefore never more conservative than the
// serial crankback.
//
// Non-CAC errors abort the setup; if every route is rejected, the last
// rejection is returned. Like Connect, cancelling the context abandons the
// wait but does not abort the protocol; a parallel probe whose wait was
// abandoned releases its reservations when it completes. Connection IDs
// containing a NUL byte are reserved for probe attempts.
func (f *Fabric) ConnectAny(ctx context.Context, req core.ConnRequest, routes []core.Route) (*Result, int, error) {
	return f.ConnectAnyOpts(ctx, req, routes, SetupOptions{})
}

// ConnectAnyOpts is ConnectAny under an explicit overload-control policy:
// candidate routes suppressed by the circuit breaker are skipped (every
// candidate suppressed yields ErrSuppressed), attempt outcomes are
// recorded, and the crankback retry budget bounds how many route attempts
// the setup may spend before the last rejection becomes final.
func (f *Fabric) ConnectAnyOpts(ctx context.Context, req core.ConnRequest, routes []core.Route, opts SetupOptions) (*Result, int, error) {
	if len(routes) == 0 {
		return nil, -1, fmt.Errorf("%w: no candidate routes for %q", core.ErrBadConfig, req.ID)
	}
	cands := make([]candidate, 0, len(routes))
	for i, route := range routes {
		if opts.Breaker != nil && !opts.Breaker.Allow(RouteKey(route)) {
			continue
		}
		cands = append(cands, candidate{idx: i, route: route})
	}
	if len(cands) == 0 {
		return nil, -1, fmt.Errorf("%w: all %d candidates of %q", ErrSuppressed, len(routes), req.ID)
	}
	// The classic behaviour spends one probe per candidate plus one
	// serial pass to rule out probe self-contention.
	budget := opts.RetryBudget
	if budget <= 0 {
		budget = 2 * len(cands)
	}
	if len(cands) > budget {
		cands = cands[:budget]
	}
	if len(cands) == 1 {
		return f.connectAnySerial(ctx, req, cands, opts)
	}

	results := make([]struct {
		walk *core.Walk
		err  error
	}, len(cands))
	var wg sync.WaitGroup
	for i, cand := range cands {
		wg.Add(1)
		go func(i int, route core.Route) {
			defer wg.Done()
			probe := req
			probe.ID = probeID(req.ID, i)
			probe.Route = route
			results[i].walk, results[i].err = f.run(ctx, probe, (*core.Walk).Abort)
		}(i, cand.route)
	}
	wg.Wait()

	// Select exactly as the serial loop would: scan in candidate order and
	// let the first non-rejection outcome decide.
	winner := -1
	var abortErr, lastReject error
	for i, r := range results {
		opts.record(cands[i].route, r.err)
		if r.err == nil {
			if winner < 0 && abortErr == nil {
				winner = i
			} else {
				// Surplus success (or success after a fatal error): release.
				r.walk.Abort()
			}
			continue
		}
		if crankbackErr(r.err) {
			lastReject = r.err
		} else if winner < 0 && abortErr == nil {
			abortErr = r.err
		}
	}
	if abortErr != nil {
		return nil, -1, abortErr
	}
	if winner < 0 {
		// Every probe was rejected; rule out probe self-contention with the
		// classic serial crankback before reporting the rejection — unless
		// the retry budget is already spent.
		remaining := budget - len(cands)
		if remaining <= 0 {
			return nil, -1, lastReject
		}
		if remaining < len(cands) {
			cands = cands[:remaining]
		}
		return f.connectAnySerial(ctx, req, cands, opts)
	}
	// Promote the winning probe to the caller's ID and commit it.
	w := results[winner].walk
	if err := w.Rename(req.ID); err != nil {
		w.Abort()
		return nil, -1, err
	}
	res, err := w.Finish()
	if err != nil {
		return nil, -1, err
	}
	return res, cands[winner].idx, nil
}

// crankbackErr reports whether a setup failure permits trying the next
// candidate route: CAC rejections and routes over failed links crank back;
// everything else aborts the setup.
func crankbackErr(err error) bool {
	return errors.Is(err, core.ErrRejected) || errors.Is(err, core.ErrLinkDown)
}

// connectAnySerial is the classic sequential crankback loop over
// breaker-approved, budget-trimmed candidates.
func (f *Fabric) connectAnySerial(ctx context.Context, req core.ConnRequest, cands []candidate, opts SetupOptions) (*Result, int, error) {
	var lastErr error
	for _, cand := range cands {
		attempt := req
		attempt.Route = cand.route
		res, err := f.Connect(ctx, attempt)
		opts.record(cand.route, err)
		if err == nil {
			return res, cand.idx, nil
		}
		if !crankbackErr(err) {
			return nil, -1, err
		}
		lastErr = err
	}
	return nil, -1, lastErr
}

// probeID derives the hidden attempt ID of candidate route i. The NUL byte
// keeps probes out of the caller-visible ID space.
func probeID(id core.ConnID, i int) core.ConnID {
	return core.ConnID(fmt.Sprintf("%s\x00alt%d", id, i))
}

// Disconnect releases an established connection at every hop. The release
// is the network's teardown, so it completes before Disconnect returns.
func (f *Fabric) Disconnect(_ context.Context, id core.ConnID) error {
	if err := f.open(); err != nil {
		return err
	}
	return f.net.Teardown(id)
}

// Established returns the IDs of established connections in sorted order.
func (f *Fabric) Established() []core.ConnID { return f.net.Connections() }

// FailLink marks the directed link from -> to as failed and disconnects
// every established connection whose route traverses it, returning their
// requests in ID order. A setup in flight across the link is refused when
// its walk commits, so once FailLink returns no connection is, or will
// become, established over the link. Failing an already-failed link is a
// no-op returning no evictions.
func (f *Fabric) FailLink(from, to string) ([]core.ConnRequest, error) {
	if err := f.open(); err != nil {
		return nil, err
	}
	return f.net.FailLink(from, to)
}

// RestoreLink clears the failure mark of the directed link from -> to.
func (f *Fabric) RestoreLink(from, to string) error {
	if err := f.open(); err != nil {
		return err
	}
	return f.net.RestoreLink(from, to)
}

// FailedLinks returns the currently failed links in deterministic order.
func (f *Fabric) FailedLinks() []core.Link { return f.net.FailedLinks() }

// run is the node's control loop.
func (n *Node) run() {
	defer close(n.done)
	for {
		msg, ok := n.mb.get()
		if !ok {
			return
		}
		switch msg.kind {
		case kindSetup:
			n.handleSetup(msg)
		case kindReject:
			msg.walk.Unwind()
			n.fabric.reject(msg)
		}
	}
}

// handleSetup admits the walk's hop at this node's switch and forwards
// the SETUP, resolves CONNECTED at the last hop, or originates a REJECT.
func (n *Node) handleSetup(msg message) {
	if _, err := msg.walk.Admit(); err != nil {
		msg.err = err
		n.fabric.reject(msg)
		return
	}
	if msg.hop == len(msg.walk.Request().Route)-1 {
		msg.done <- nil
		return
	}
	msg.hop++
	n.fabric.deliver(msg)
}

// reject sends a REJECT to the hop upstream of msg's, or resolves it at
// the origin once no upstream hop is left.
func (f *Fabric) reject(msg message) {
	if msg.hop == 0 {
		msg.done <- msg.err
		return
	}
	msg.kind = kindReject
	msg.hop--
	f.deliver(msg)
}
