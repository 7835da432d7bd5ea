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
	"sync"

	"atmcac/internal/core"
)

// ErrClosed reports use of a closed fabric.
var ErrClosed = errors.New("signaling: fabric closed")

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
			_, _ = settle(w, err)
		case <-f.stopped:
			w.Abort()
		}
	}()
	return nil, ctx.Err()
}

// settle commits a CONNECTED walk and aborts a refused one.
func settle(w *core.Walk, err error) (*Result, error) {
	if err != nil {
		w.Abort()
		return nil, err
	}
	return w.Finish()
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
