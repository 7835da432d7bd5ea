package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"atmcac/internal/obs"
	"atmcac/internal/wire"
)

// ErrNoStandby reports a sync or semi-sync Ship with no standby attached.
// A shipper that may proceed unreplicated maps it to nil.
var ErrNoStandby = errors.New("replica: no standby attached")

// PrimaryConfig tunes the shipping side of replication.
type PrimaryConfig struct {
	// Mode is the acknowledgement discipline (async, semi-sync, sync).
	Mode Mode
	// MaxLag bounds lastShipped-acked for semi-sync mode, in records.
	// Defaults to 64.
	MaxLag uint64
	// AckTimeout bounds how long a sync or semi-sync Ship waits for the
	// standby before giving up: the Ship fails and the session is dropped,
	// so the standby reconnects and catches up. Defaults to 5s.
	AckTimeout time.Duration
	// HeartbeatEvery is the keepalive interval feeding the standby's
	// failover timer. Defaults to 1s.
	HeartbeatEvery time.Duration
	// Tracer receives repl-ship and repl-ack events; nil disables.
	Tracer obs.Tracer
}

func (c *PrimaryConfig) fill() {
	if c.Mode == "" {
		c.Mode = ModeAsync
	}
	if c.MaxLag == 0 {
		c.MaxLag = 64
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
}

// Source is the log a Primary ships: a wire.Server's admission journal
// or a coordinator's intent log. The stream carries its sequences and
// its frame payloads verbatim.
type Source interface {
	// Epoch returns the source's term. It must never block: the ack
	// reader calls it while a Ship waits for that very ack.
	Epoch() uint64
	// Fence takes the source out of the write path: a peer runs at
	// epoch, a term above the source's own.
	Fence(epoch uint64)
	// Fenced reports whether the source was fenced, and by which term.
	Fenced() (bool, uint64)
	// Watermark returns the highest sequence written to the log.
	Watermark() uint64
	// CatchUp feeds a joining standby every record past afterSeq through
	// record — or, when full is set or those records are gone, the whole
	// state through state, if the source has a state form — and then runs
	// attach, all between the log's group commits: every record reaches
	// the standby exactly once, in the catch-up or on the live stream.
	CatchUp(afterSeq uint64, full bool, record, state func(seq, epoch uint64, payload []byte) error, attach func()) error
}

// Primary accepts standby sessions, feeds each one its catch-up delta,
// and ships every subsequent record per the configured mode. One standby
// session is live at a time — a newer handshake supersedes the old
// stream (the standby that lost reconnects and catches up).
type Primary struct {
	src Source
	cfg PrimaryConfig

	mu          sync.Mutex
	cond        *sync.Cond
	ln          net.Listener
	sess        *session // the live session; nil when none is attached
	acked       uint64   // highest sequence a live session acknowledged
	lastShipped uint64
	shippedAt   map[uint64]time.Time
	closed      bool
}

// session is one standby connection, from its hello on.
type session struct {
	conn net.Conn
	wmu  sync.Mutex // serializes whole frames on conn

	// Guarded by Primary.mu. acked counts from the hello's watermark, so
	// the acks of a catch-up still streaming are not lost.
	acked uint64
	dead  bool
}

// write sends one framed message under the write deadline.
func (s *session) write(m Msg) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := WriteMsg(s.conn, m)
	s.conn.SetWriteDeadline(time.Time{})
	return err
}

// NewPrimary wires a shipping primary to srv's admission journal. The
// caller still must srv.SetShipper(p) and run Serve on a listener.
func NewPrimary(srv *wire.Server, cfg PrimaryConfig) *Primary {
	return NewPrimaryFrom(wireSource{srv}, cfg)
}

// NewPrimaryFrom returns a primary shipping src. The caller routes every
// durable record of src's log through Ship, in log order, and runs Serve
// on a listener.
func NewPrimaryFrom(src Source, cfg PrimaryConfig) *Primary {
	cfg.fill()
	p := &Primary{src: src, cfg: cfg, shippedAt: make(map[uint64]time.Time)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Serve accepts standby connections until the listener closes.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("replica: primary is closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go p.handshake(&session{conn: conn})
	}
}

// Close stops accepting and drops the live session. Ships after Close
// behave as if no standby were attached.
func (p *Primary) Close() error {
	p.mu.Lock()
	p.closed = true
	ln := p.ln
	if p.sess != nil {
		p.dropLocked(p.sess)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return nil
}

// handshake validates a standby's hello, streams its catch-up delta and
// atomically activates the live session. Epoch conflicts resolve here:
// a standby from a higher term means this node was superseded, so it
// fences itself instead of feeding anyone. A fence message in place of
// the hello is a promoted standby telling this node its term is over.
func (p *Primary) handshake(s *session) {
	s.conn.SetReadDeadline(time.Now().Add(writeTimeout))
	hello, err := ReadMsg(s.conn)
	if err != nil {
		s.conn.Close()
		return
	}
	s.conn.SetReadDeadline(time.Time{})
	local := p.src.Epoch()
	var reply *Msg // answers the first message and ends the connection
	switch fenced, by := p.src.Fenced(); {
	case hello.Type == MsgFence:
		if hello.Epoch > local {
			p.src.Fence(hello.Epoch)
		}
		reply = &Msg{Type: MsgAck, Epoch: hello.Epoch}
	case hello.Type != MsgHello:
		reply = &Msg{Type: MsgReject, Code: CodeCatchUp, Text: fmt.Sprintf("expected hello, got %s", hello.Type)}
	case hello.Epoch > local:
		// The dialer lived through a later term than ours: a newer
		// primary exists (or existed). Fence before it can be fed.
		p.src.Fence(hello.Epoch)
		reply = &Msg{Type: MsgReject, Code: wire.CodeFenced, Epoch: hello.Epoch,
			Text: fmt.Sprintf("hello epoch %d above local term %d", hello.Epoch, local)}
	case fenced:
		reply = &Msg{Type: MsgReject, Code: wire.CodeFenced, Epoch: by,
			Text: "node is a fenced ex-primary; resync from the current primary"}
	}
	if reply != nil {
		s.write(*reply)
		s.conn.Close()
		return
	}
	// The standby acks the catch-up as it lands, so its acks are read
	// from now on: unread, a large backlog fills both TCP buffers and
	// wedges the catch-up — and the log's writers behind it.
	s.acked = hello.Seq
	go p.readLoop(s)
	// A standby from an older term may hold records the new term never
	// saw (its stint as primary); its delta is not trusted.
	full := hello.Code == "full" || hello.Epoch < local
	lastSent := hello.Seq
	send := func(typ string) func(seq, epoch uint64, payload []byte) error {
		return func(seq, epoch uint64, payload []byte) error {
			if err := s.write(Msg{Type: typ, Epoch: epoch, Seq: seq, Payload: payload}); err != nil {
				return err
			}
			lastSent = seq
			return nil
		}
	}
	err = p.src.CatchUp(hello.Seq, full, send(MsgRecord), send(MsgState), func() { p.attach(s, lastSent) })
	if err != nil {
		s.write(Msg{Type: MsgReject, Code: CodeCatchUp, Text: err.Error()})
		p.drop(s)
		return
	}
	go p.heartbeatLoop(s)
}

// attach makes s the live session, superseding any previous one. Runs
// inside CatchUp, between the log's group commits, so no record can slip
// between the catch-up batch and the live stream.
func (p *Primary) attach(s *session, lastSent uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.dropLocked(s) // Close raced the catch-up: end this session too
	}
	if s.dead {
		return
	}
	if p.sess != nil {
		p.dropLocked(p.sess)
	}
	p.sess = s
	p.acked = s.acked
	p.lastShipped = lastSent
	clear(p.shippedAt)
	p.cond.Broadcast()
}

// readLoop consumes acks (and rejections) from one standby session.
func (p *Primary) readLoop(s *session) {
	defer p.drop(s)
	for {
		msg, err := ReadMsg(s.conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgAck:
			p.onAck(s, msg.Seq)
		case MsgReject, MsgFence:
			// A fence, or a fence-coded reject, means the standby is past
			// our term: it was promoted. Any reject (divergence resync,
			// decode failure) ends the session; the standby reconnects with
			// a fresh hello.
			fenced := msg.Type == MsgFence || msg.Code == wire.CodeFenced
			if fenced && msg.Epoch > p.src.Epoch() {
				p.src.Fence(msg.Epoch)
			}
			return
		}
	}
}

func (p *Primary) onAck(s *session, seq uint64) {
	now := time.Now()
	p.mu.Lock()
	s.acked = max(s.acked, seq)
	var acked []time.Duration
	if p.sess == s {
		p.acked = s.acked
		for sq, at := range p.shippedAt {
			if sq <= seq {
				acked = append(acked, now.Sub(at))
				delete(p.shippedAt, sq)
			}
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if tr := p.cfg.Tracer; tr != nil {
		epoch := p.src.Epoch()
		for _, d := range acked {
			tr.Trace(obs.Event{Kind: obs.KindReplAck, Outcome: obs.OutcomeOK, Duration: d, Epoch: epoch})
		}
	}
}

// heartbeatLoop keeps the standby's failover timer fed while the
// session is live.
func (p *Primary) heartbeatLoop(s *session) {
	tick := time.NewTicker(p.cfg.HeartbeatEvery)
	defer tick.Stop()
	for range tick.C {
		p.mu.Lock()
		live := p.sess == s
		p.mu.Unlock()
		if !live {
			return
		}
		if err := s.write(Msg{Type: MsgHeartbeat, Epoch: p.src.Epoch()}); err != nil {
			p.drop(s)
			return
		}
	}
}

// drop closes s and, if it was the live session, detaches it and wakes
// every Ship blocked on its acks.
func (p *Primary) drop(s *session) {
	p.mu.Lock()
	p.dropLocked(s)
	p.mu.Unlock()
}

func (p *Primary) dropLocked(s *session) {
	s.dead = true
	if p.sess == s {
		p.sess = nil
		p.cond.Broadcast()
	}
	s.conn.Close()
}

// Ship implements wire.Shipper: forward one record and block per the
// configured mode. Called in log order once the record is durable — so
// stream order equals log order, and a refusal here happens before the
// client ack (the wire layer then compensates the append). With no
// standby attached, async returns nil and the other modes ErrNoStandby.
func (p *Primary) Ship(seq, epoch uint64, payload []byte) error {
	start := time.Now()
	err := p.ship(seq, epoch, payload, start)
	if tr := p.cfg.Tracer; tr != nil {
		outcome := obs.OutcomeOK
		if err != nil {
			outcome = obs.OutcomeError
		}
		tr.Trace(obs.Event{Kind: obs.KindReplShip, Outcome: outcome,
			Duration: time.Since(start), Bytes: int64(len(payload)), Epoch: epoch})
	}
	return err
}

func (p *Primary) ship(seq, epoch uint64, payload []byte, start time.Time) error {
	s, err := p.send(seq, epoch, payload)
	if p.cfg.Mode == ModeAsync {
		// Whatever did not reach the standby, catch-up heals.
		return nil
	}
	if err != nil {
		return fmt.Errorf("replica: %s replication: ship seq %d: %w", p.cfg.Mode, seq, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.shippedAt) < 1<<16 {
		p.shippedAt[seq] = start
	}
	if p.cfg.Mode == ModeSemiSync {
		if p.waitLocked(s, func() bool { return p.lastShipped-p.acked <= p.cfg.MaxLag }) {
			return nil
		}
		err = fmt.Errorf("replica: semi-sync replication: standby lag %d exceeds %d after %v",
			p.lastShipped-p.acked, p.cfg.MaxLag, p.cfg.AckTimeout)
	} else {
		if p.waitLocked(s, func() bool { return p.acked >= seq }) {
			return nil
		}
		err = fmt.Errorf("replica: sync replication: seq %d unacknowledged after %v", seq, p.cfg.AckTimeout)
	}
	// A standby that stays silent past the timeout gets a fresh session.
	p.dropLocked(s)
	return err
}

// ShipBestEffort implements wire.Shipper for warning-only records and
// compensations: one write attempt, no wait, no failure.
func (p *Primary) ShipBestEffort(seq, epoch uint64, payload []byte) {
	p.send(seq, epoch, payload)
}

// send writes one record to the live session and returns that session.
func (p *Primary) send(seq, epoch uint64, payload []byte) (*session, error) {
	p.mu.Lock()
	s := p.sess
	p.mu.Unlock()
	if s == nil {
		return nil, ErrNoStandby
	}
	if err := s.write(Msg{Type: MsgRecord, Epoch: epoch, Seq: seq, Payload: payload}); err != nil {
		p.drop(s)
		return nil, err
	}
	p.mu.Lock()
	p.lastShipped = max(p.lastShipped, seq)
	p.mu.Unlock()
	return s, nil
}

// waitLocked blocks on the session condition until pred holds, s stops
// being the live session, or the ack timeout passes. Caller holds p.mu.
func (p *Primary) waitLocked(s *session, pred func() bool) bool {
	deadline := time.Now().Add(p.cfg.AckTimeout)
	timer := time.AfterFunc(p.cfg.AckTimeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	for {
		if pred() {
			return true
		}
		if p.sess != s || !time.Now().Before(deadline) {
			return false
		}
		p.cond.Wait()
	}
}

// Attached reports whether a standby session is live.
func (p *Primary) Attached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sess != nil
}

// Lag returns how many records the log holds past the standby's last
// acknowledgement. It reads the source's watermark before taking p.mu:
// the log's flush calls Ship, which takes p.mu, so nothing may wait on
// the log while holding it.
func (p *Primary) Lag() uint64 {
	last := p.src.Watermark()
	p.mu.Lock()
	defer p.mu.Unlock()
	if last <= p.acked {
		return 0
	}
	return last - p.acked
}

// Unacked returns how many records the live standby was shipped and has
// not acknowledged; unlike Lag, it leaves out the unshipped tail.
func (p *Primary) Unacked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sess == nil || p.lastShipped <= p.acked {
		return 0
	}
	return p.lastShipped - p.acked
}

// decorate fills the stream-level fields of a replication report.
func (p *Primary) decorate(rep *wire.ReplicationReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep.Mode = string(p.cfg.Mode)
	rep.Connected = p.sess != nil
	rep.AckedSeq = p.acked
	if rep.LastSeq > p.acked {
		rep.Lag = rep.LastSeq - p.acked
	}
}

// RegisterMetrics exposes the primary's stream gauges on reg.
func (p *Primary) RegisterMetrics(reg *obs.Registry) {
	role := obs.L("role", "primary")
	reg.GaugeFunc("atmcac_repl_connected", func() float64 {
		if p.Attached() {
			return 1
		}
		return 0
	}, role)
	reg.Help("atmcac_repl_connected", "Whether a live replication stream is attached (by role).")
	reg.GaugeFunc("atmcac_repl_lag_records", func() float64 { return float64(p.Lag()) }, role)
	reg.Help("atmcac_repl_lag_records", "Records not yet acknowledged by the standby.")
}
