// Pool hands out the client connection to one address. A Client is
// tagged and pipelined — any number of callers can share it — so the pool
// dials one, once, and gives the same connection to every caller: a
// caller never pays for a dial the caller beside it is already paying
// for. A connection that sat idle long enough to be suspect is pinged
// before it is handed out, so a silently dead peer costs a health round
// trip instead of a failed operation.
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
	// Dial opens a client; nil means Dial.
	Dial func(addr string) (*Client, error)
	// DialGate, when set, runs before every fresh dial; an error aborts
	// the dial. Handing out a live connection never consults it — the
	// gate exists so a caller can suppress dial storms at a dead peer (the
	// coordinator's reconnect backoff window) without giving up
	// connections it already holds.
	DialGate func() error
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
	// shared is the one multiplexed connection, nil until dialled
	// and again after a Discard; sharedLast is when it was last handed
	// out or returned.
	shared     *Client
	sharedLast time.Time
	// dialing is the single-flight dial in progress while no shared
	// connection exists. Callers arriving meanwhile wait for it instead
	// of dialling beside it.
	dialing *poolDial
	closed  bool
}

// poolDial is one in-flight dial other callers wait on.
type poolDial struct {
	done chan struct{}
	err  error
}

// NewPool returns a pool over cfg; no connection is dialed until the
// first Get.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Dial == nil {
		cfg.Dial = Dial
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

// Get returns the shared connection, health-checked first when stale, or
// else a fresh dial. While no shared connection exists dials are
// single-flight: one caller dials, the rest wait and then share what it
// got, or fail with its error. ctx bounds the health ping and the wait;
// the dial uses the Dial function's own behavior.
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
		d := &poolDial{done: make(chan struct{})}
		p.dialing = d
		p.mu.Unlock()
		cl, err := p.dial()
		p.mu.Lock()
		if err == nil && !p.closed && p.shared == nil {
			p.shared, p.sharedLast = cl, time.Now()
		}
		d.err = err
		p.dialing = nil
		close(d.done)
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
// no-op beyond noting the use. A live connection the pool did not dial
// becomes the shared one if there is none (how a failover seeds a fresh
// pool with the connection it probed the survivor over); any other is
// closed.
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
	case p.shared == nil:
		p.shared, p.sharedLast, keep = cl, time.Now(), true
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

// Close closes the shared connection and makes future Gets fail.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	shared := p.shared
	p.shared = nil
	p.mu.Unlock()
	if shared != nil {
		_ = shared.Close()
	}
}
