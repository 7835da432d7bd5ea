// Pool hands out client connections to one address. A binary-negotiated
// Client is tagged and pipelined — any number of callers can share it —
// so the pool dials one, once, and gives the same connection to every
// caller: a caller never pays for a dial the caller beside it is already
// paying for. Only a JSON-negotiated client, which serializes its round
// trips and cannot be shared, is checked out exclusively and parked
// between uses. Either way a connection that sat idle long enough to be
// suspect is pinged before it is handed out, so a silently dead peer
// costs a health round trip instead of a failed operation.
package wire

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by Get after Close.
var ErrPoolClosed = errors.New("wire: pool closed")

// PoolConfig configures a Pool. Addr is required.
type PoolConfig struct {
	Addr string
	// Dial opens a client; nil means Dial (binary negotiation with JSON
	// fallback).
	Dial func(addr string) (*Client, error)
	// DialGate, when set, runs before every fresh dial; an error aborts
	// the dial. Handing out a live connection never consults it — the
	// gate exists so a caller can suppress dial storms at a dead peer (the
	// coordinator's reconnect backoff window) without giving up
	// connections it already holds.
	DialGate func() error
	// MaxIdle bounds the parked idle JSON connections; surplus returns
	// are closed. Defaults to 2. A shared binary connection is not
	// parked and is not counted.
	MaxIdle int
	// HealthAfter is the idle age beyond which checkout health-checks a
	// connection before reuse. Zero defaults to 30s; negative disables
	// the check.
	HealthAfter time.Duration
	// HealthTimeout bounds the health ping. Defaults to 1s.
	HealthTimeout time.Duration
}

// Pool pools client connections to one address. All methods are safe
// for concurrent use; a client obtained from Get must come back through
// exactly one of Put (healthy) or Discard (broken).
type Pool struct {
	cfg PoolConfig
	mu  sync.Mutex
	// shared is the one multiplexed binary connection, nil until dialled
	// and again after a Discard; sharedLast is when it was last handed
	// out or returned.
	shared     *Client
	sharedLast time.Time
	// dialing is the single-flight dial in progress while no shared
	// connection exists. Callers arriving meanwhile wait for it instead
	// of dialling beside it.
	dialing *poolDial
	// exclusive records that the peer last negotiated JSON: its
	// connections cannot be shared, so dials are not single-flighted.
	exclusive bool
	idle      []pooledClient
	closed    bool
}

// poolDial is one in-flight dial other callers wait on.
type poolDial struct {
	done chan struct{}
	err  error
}

type pooledClient struct {
	cl   *Client
	last time.Time
}

// NewPool returns a pool over cfg; no connection is dialed until the
// first Get.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = 2
	}
	if cfg.HealthAfter == 0 {
		cfg.HealthAfter = 30 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	return &Pool{cfg: cfg}
}

// Addr returns the address the pool is pinned to.
func (p *Pool) Addr() string { return p.cfg.Addr }

// stale reports whether a connection last used at last is due a health
// ping before reuse.
func (p *Pool) stale(last time.Time) bool {
	return p.cfg.HealthAfter >= 0 && time.Since(last) > p.cfg.HealthAfter
}

// healthy pings cl, bounded by the health timeout.
func (p *Pool) healthy(ctx context.Context, cl *Client) bool {
	hctx, cancel := context.WithTimeout(ctx, p.cfg.HealthTimeout)
	defer cancel()
	_, err := cl.Health(hctx)
	return err == nil
}

// Get returns a connection: the shared binary one when it exists, else
// the most recently parked idle JSON one, else a fresh dial — each
// health-checked first when stale. While no shared connection exists
// dials are single-flight: one caller dials, the rest wait and then share
// what it got, or fail with its error. ctx bounds the health ping and the
// wait; the dial uses the Dial function's own behavior.
func (p *Pool) Get(ctx context.Context) (*Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if cl := p.shared; cl != nil {
			stale := p.stale(p.sharedLast)
			p.sharedLast = time.Now() // concurrent callers skip the ping this one is about to make
			p.mu.Unlock()
			if stale && !p.healthy(ctx, cl) {
				p.Discard(cl)
				continue
			}
			return cl, nil
		}
		if n := len(p.idle); n > 0 {
			pc := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			if p.stale(pc.last) && !p.healthy(ctx, pc.cl) {
				_ = pc.cl.Close()
				continue // a stale dead entry; try the next one
			}
			return pc.cl, nil
		}
		if d := p.dialing; d != nil {
			p.mu.Unlock()
			select {
			case <-d.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if d.err != nil {
				return nil, d.err
			}
			continue
		}
		var d *poolDial
		if !p.exclusive {
			d = &poolDial{done: make(chan struct{})}
			p.dialing = d
		}
		p.mu.Unlock()
		cl, err := p.dial()
		p.mu.Lock()
		if err == nil {
			p.exclusive = cl.Proto() != ProtoBinary
			if !p.exclusive && !p.closed && p.shared == nil {
				p.shared, p.sharedLast = cl, time.Now()
			}
		}
		if d != nil {
			d.err = err
			p.dialing = nil
			close(d.done)
		}
		p.mu.Unlock()
		return cl, err
	}
}

// dial opens a fresh connection, gate permitting.
func (p *Pool) dial() (*Client, error) {
	if p.cfg.DialGate != nil {
		if err := p.cfg.DialGate(); err != nil {
			return nil, err
		}
	}
	return p.cfg.Dial(p.cfg.Addr)
}

// Put returns a healthy connection. For the shared connection that is a
// no-op beyond noting the use. A live binary connection the pool did not
// dial becomes the shared one if there is none (how a failover seeds a
// fresh pool with the connection it probed the survivor over). A JSON
// connection goes back to the idle set, or is closed when the set is full
// or the pool closed.
func (p *Pool) Put(cl *Client) {
	if cl == nil {
		return
	}
	p.mu.Lock()
	keep := false
	switch {
	case cl == p.shared:
		p.sharedLast, keep = time.Now(), true
	case p.closed || cl.dead():
		// dead: the shared connection another caller already discarded.
	case cl.Proto() == ProtoBinary:
		if keep = p.shared == nil; keep {
			p.shared, p.sharedLast, p.exclusive = cl, time.Now(), false
		}
	case len(p.idle) < p.cfg.MaxIdle:
		p.idle, keep = append(p.idle, pooledClient{cl: cl, last: time.Now()}), true
	}
	p.mu.Unlock()
	if !keep {
		_ = cl.Close()
	}
}

// Discard closes a connection after a transport error. Discarding the
// shared connection drops it for everyone: calls in flight on it fail
// with transport errors and the next Get redials. Discarding a connection
// that was already replaced leaves its replacement alone, so however many
// callers report one drop, it costs one redial.
func (p *Pool) Discard(cl *Client) {
	if cl == nil {
		return
	}
	p.mu.Lock()
	if cl == p.shared {
		p.shared = nil
	}
	p.mu.Unlock()
	_ = cl.Close()
}

// Close closes the shared and every idle connection and makes future
// Gets fail; checked-out JSON connections close when they come back.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	shared, idle := p.shared, p.idle
	p.shared, p.idle = nil, nil
	p.mu.Unlock()
	if shared != nil {
		_ = shared.Close()
	}
	for _, pc := range idle {
		_ = pc.cl.Close()
	}
}
