package replica

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/wire"
)

// PrimaryConfig tunes the shipping side of replication.
type PrimaryConfig struct {
	// Mode is the acknowledgement discipline (async, semi-sync, sync).
	Mode Mode
	// MaxLag bounds lastShipped-acked for semi-sync mode, in records.
	// Defaults to 64.
	MaxLag uint64
	// AckTimeout bounds how long a sync or semi-sync Ship waits for the
	// standby before giving up (the operation is then compensated and
	// refused). Defaults to 5s.
	AckTimeout time.Duration
	// HeartbeatEvery is the keepalive interval feeding the standby's
	// failover timer. Defaults to 1s.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds a single stream write. Defaults to 5s.
	WriteTimeout time.Duration
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
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
}

// Primary accepts standby sessions, feeds each one its catch-up delta,
// and ships every subsequent journal record per the configured mode. It
// implements wire.Shipper; install it with Server.SetShipper. One
// standby session is live at a time — a newer handshake supersedes the
// old stream (the standby that lost reconnects and catches up).
type Primary struct {
	srv *wire.Server
	cfg PrimaryConfig

	mu          sync.Mutex
	cond        *sync.Cond
	ln          net.Listener
	conn        net.Conn
	ackedSeq    uint64
	lastShipped uint64
	shippedAt   map[uint64]time.Time
	closed      bool
}

// NewPrimary wires a shipping primary to srv. The caller still must
// srv.SetShipper(p) and run Serve on a listener.
func NewPrimary(srv *wire.Server, cfg PrimaryConfig) *Primary {
	cfg.fill()
	p := &Primary{srv: srv, cfg: cfg, shippedAt: make(map[uint64]time.Time)}
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
		go p.handshake(conn)
	}
}

// Close stops accepting and drops the live session. Ships after Close
// behave as if no standby were connected.
func (p *Primary) Close() error {
	p.mu.Lock()
	p.closed = true
	ln, conn := p.ln, p.conn
	p.conn = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if conn != nil {
		conn.Close()
	}
	return nil
}

// handshake validates a standby's hello, streams its catch-up delta and
// atomically activates the live session. Epoch conflicts resolve here:
// a standby from a higher term means this node was superseded, so it
// fences itself instead of feeding anyone.
func (p *Primary) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(p.cfg.WriteTimeout))
	hello, err := ReadMsg(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Type == MsgFence {
		// A promoted standby is telling us our term is over.
		if hello.Epoch > p.srv.Epoch() {
			p.srv.Fence(hello.Epoch)
		}
		p.writeTo(conn, Msg{Type: MsgAck, Epoch: hello.Epoch})
		conn.Close()
		return
	}
	if hello.Type != MsgHello {
		p.writeTo(conn, Msg{Type: MsgReject, Code: CodeCatchUp, Text: fmt.Sprintf("expected hello, got %s", hello.Type)})
		conn.Close()
		return
	}
	localEpoch := p.srv.Epoch()
	if hello.Epoch > localEpoch {
		// The dialer lived through a later term than ours: a newer
		// primary exists (or existed). Fence before it can be fed.
		p.srv.Fence(hello.Epoch)
		p.writeTo(conn, Msg{Type: MsgReject, Code: wire.CodeFenced, Epoch: hello.Epoch,
			Text: fmt.Sprintf("hello epoch %d above local term %d", hello.Epoch, localEpoch)})
		conn.Close()
		return
	}
	if fenced, by := p.srv.Fenced(); fenced {
		p.writeTo(conn, Msg{Type: MsgReject, Code: wire.CodeFenced, Epoch: by,
			Text: "node is a fenced ex-primary; resync from the current primary"})
		conn.Close()
		return
	}
	// A standby from an older term may hold journal records the new
	// term never saw (its stint as primary); its delta is not trusted —
	// force the full state.
	force := hello.Code == "full" || hello.Epoch < localEpoch
	lastSent := hello.Seq
	err = p.srv.CatchUp(hello.Seq, force,
		func(st wire.PersistentState) error {
			data, err := json.Marshal(st)
			if err != nil {
				return err
			}
			lastSent = st.LastSeq
			return p.writeTo(conn, Msg{Type: MsgState, Epoch: st.Epoch, Seq: st.LastSeq, Payload: data})
		},
		func(entries []journal.Entry) error {
			for _, e := range entries {
				if err := p.writeTo(conn, Msg{Type: MsgRecord, Epoch: e.Rec.Epoch, Seq: e.Seq, Payload: e.Payload}); err != nil {
					return err
				}
				lastSent = e.Seq
			}
			return nil
		},
		func() { p.attach(conn, hello.Seq, lastSent) },
	)
	if err != nil {
		p.writeTo(conn, Msg{Type: MsgReject, Code: CodeCatchUp, Text: err.Error()})
		conn.Close()
		return
	}
	go p.readLoop(conn)
	go p.heartbeatLoop(conn)
}

// attach makes conn the live session, superseding any previous one.
// Runs inside CatchUp, between the journal's group commits, so no record
// can slip between the catch-up batch and the live stream.
func (p *Primary) attach(conn net.Conn, acked, lastSent uint64) {
	p.mu.Lock()
	old := p.conn
	p.conn = conn
	p.ackedSeq = acked
	p.lastShipped = lastSent
	for seq := range p.shippedAt {
		delete(p.shippedAt, seq)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// readLoop consumes acks (and rejections) from the live standby.
func (p *Primary) readLoop(conn net.Conn) {
	defer p.drop(conn)
	for {
		msg, err := ReadMsg(conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case MsgAck:
			p.onAck(msg.Seq)
		case MsgReject:
			if msg.Code == wire.CodeFenced && msg.Epoch > p.srv.Epoch() {
				// The standby is past our term: it was promoted. Fence.
				p.srv.Fence(msg.Epoch)
			}
			// Any reject (divergence resync, decode failure) ends the
			// session; the standby reconnects with a fresh hello.
			return
		case MsgFence:
			if msg.Epoch > p.srv.Epoch() {
				p.srv.Fence(msg.Epoch)
			}
			return
		}
	}
}

func (p *Primary) onAck(seq uint64) {
	now := time.Now()
	p.mu.Lock()
	if seq > p.ackedSeq {
		p.ackedSeq = seq
	}
	var acked []time.Duration
	for s, at := range p.shippedAt {
		if s <= seq {
			acked = append(acked, now.Sub(at))
			delete(p.shippedAt, s)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if tr := p.cfg.Tracer; tr != nil {
		epoch := p.srv.Epoch()
		for _, d := range acked {
			tr.Trace(obs.Event{Kind: obs.KindReplAck, Outcome: obs.OutcomeOK, Duration: d, Epoch: epoch})
		}
	}
}

// heartbeatLoop keeps the standby's failover timer fed while the
// session is live.
func (p *Primary) heartbeatLoop(conn net.Conn) {
	tick := time.NewTicker(p.cfg.HeartbeatEvery)
	defer tick.Stop()
	for range tick.C {
		p.mu.Lock()
		live := p.conn == conn
		p.mu.Unlock()
		if !live {
			return
		}
		if err := p.writeTo(conn, Msg{Type: MsgHeartbeat, Epoch: p.srv.Epoch()}); err != nil {
			p.drop(conn)
			return
		}
	}
}

// writeTo writes one framed message with the write deadline applied.
// Serialized with p.mu so ship, catch-up and heartbeat frames never
// interleave on the wire.
func (p *Primary) writeTo(conn net.Conn, m Msg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	err := WriteMsg(conn, m)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// drop closes conn and, if it was the live session, detaches it and
// wakes every Ship blocked on its acks.
func (p *Primary) drop(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	conn.Close()
}

// Ship implements wire.Shipper: forward one record and block per the
// configured mode. Called from the journal's group commit once the
// record is durable, in journal order — so stream order equals journal
// order, and a refusal here happens before the client ack (the wire
// layer then compensates the append).
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
	p.mu.Lock()
	defer p.mu.Unlock()
	conn := p.conn
	if conn == nil {
		if p.cfg.Mode == ModeAsync {
			// No standby right now: catch-up heals the gap on reconnect.
			return nil
		}
		return fmt.Errorf("replica: %s replication: no standby connected", p.cfg.Mode)
	}
	conn.SetWriteDeadline(start.Add(p.cfg.WriteTimeout))
	err := WriteMsg(conn, Msg{Type: MsgRecord, Epoch: epoch, Seq: seq, Payload: payload})
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		if p.conn == conn {
			p.conn = nil
			p.cond.Broadcast()
		}
		conn.Close()
		if p.cfg.Mode == ModeAsync {
			return nil
		}
		return fmt.Errorf("replica: %s replication: ship seq %d: %w", p.cfg.Mode, seq, err)
	}
	p.lastShipped = seq
	if len(p.shippedAt) < 1<<16 {
		p.shippedAt[seq] = start
	}
	switch p.cfg.Mode {
	case ModeAsync:
		return nil
	case ModeSemiSync:
		if !p.waitLocked(func() bool { return p.lastShipped-p.ackedSeq <= p.cfg.MaxLag }, p.cfg.AckTimeout) {
			return fmt.Errorf("replica: semi-sync replication: standby lag %d exceeds %d after %v",
				p.lastShipped-p.ackedSeq, p.cfg.MaxLag, p.cfg.AckTimeout)
		}
	case ModeSync:
		if !p.waitLocked(func() bool { return p.ackedSeq >= seq }, p.cfg.AckTimeout) {
			return fmt.Errorf("replica: sync replication: seq %d unacknowledged after %v", seq, p.cfg.AckTimeout)
		}
	}
	return nil
}

// ShipBestEffort implements wire.Shipper for warning-only records and
// compensations: one write attempt, no wait, no failure.
func (p *Primary) ShipBestEffort(seq, epoch uint64, payload []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conn := p.conn
	if conn == nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	err := WriteMsg(conn, Msg{Type: MsgRecord, Epoch: epoch, Seq: seq, Payload: payload})
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		if p.conn == conn {
			p.conn = nil
			p.cond.Broadcast()
		}
		conn.Close()
		return
	}
	if seq > p.lastShipped {
		p.lastShipped = seq
	}
}

// waitLocked blocks on the session condition until pred holds, the
// session drops, or timeout passes. Caller holds p.mu.
func (p *Primary) waitLocked(pred func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	for {
		if pred() {
			return true
		}
		if p.conn == nil || !time.Now().Before(deadline) {
			return false
		}
		p.cond.Wait()
	}
}

// decorate fills the stream-level fields of a replication report.
func (p *Primary) decorate(rep *wire.ReplicationReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep.Mode = string(p.cfg.Mode)
	rep.Connected = p.conn != nil
	rep.AckedSeq = p.ackedSeq
	if rep.LastSeq > p.ackedSeq {
		rep.Lag = rep.LastSeq - p.ackedSeq
	}
}

// RegisterMetrics exposes the primary's stream gauges on reg.
func (p *Primary) RegisterMetrics(reg *obs.Registry) {
	role := obs.L("role", "primary")
	reg.GaugeFunc("atmcac_repl_connected", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.conn != nil {
			return 1
		}
		return 0
	}, role)
	reg.Help("atmcac_repl_connected", "Whether a live replication stream is attached (by role).")
	reg.GaugeFunc("atmcac_repl_lag_records", func() float64 {
		last := p.srv.JournalWatermark()
		p.mu.Lock()
		acked := p.ackedSeq
		p.mu.Unlock()
		if last > acked {
			return float64(last - acked)
		}
		return 0
	}, role)
	reg.Help("atmcac_repl_lag_records", "Journal records not yet acknowledged by the standby.")
}
