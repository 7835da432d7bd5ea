package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/replica"
)

// Coordinator HA: the active coordinator ships every intent-log frame
// to a standby coordinator over the same framed message stream the
// journal replication uses (replica.Msg over journal frames), and the
// standby tails it into its own intent log. Shipping is synchronous
// while a standby is attached: an intent that the standby has not
// acknowledged is an intent the coordinator must not act on, because a
// takeover that misses a commit decision would resolve the transaction
// divergently (presumed abort on the standby, committed on a shard).
// With no standby attached the coordinator proceeds unreplicated —
// availability over replication, exactly like replica.ModeAsync — which
// stays consistent because a lost commit intent can only exist for a
// transaction whose commit never reached phase 2 acknowledgement.
//
// On primary silence the standby promotes: it appends an IntentEpoch
// record bumping the coordinator term, best-effort fences the old
// active over the replication stream, and the caller re-opens the log
// as a full Coordinator and runs Recover. Every shard 2PC operation is
// stamped with the term (wire.Request.CoordEpoch), so the shards'
// ratchets shut the superseded coordinator out even when the fence
// message never arrived.

// ErrSuperseded reports that another coordinator was promoted at a
// higher term while this one ran; the receiver must stop serving.
var ErrSuperseded = errors.New("shard: coordinator superseded by a higher term")

// IntentPrimary serves the coordinator replication stream: it accepts
// one standby coordinator, catches it up from the intent log, ships
// every subsequent append synchronously and feeds the standby's
// failover timer with heartbeats.
type IntentPrimary struct {
	coord  *Coordinator
	tracer obs.Tracer

	// AckTimeout bounds how long an append waits for the standby's
	// acknowledgement before the session is declared dead and the append
	// refused. Defaults to 2s.
	AckTimeout time.Duration
	// HeartbeatEvery is the keepalive interval feeding the standby's
	// failover timer. Defaults to 1s (matching replica.Primary).
	HeartbeatEvery time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	sess    *intentSession
	shipped uint64 // highest intent seq written to the log (see Lag)
	ln      net.Listener
	closed  bool
	wg      sync.WaitGroup
}

// intentSession is one attached standby.
type intentSession struct {
	conn  net.Conn
	acked uint64
	dead  bool
}

// NewIntentPrimary wires the coordinator's intent log to a replication
// shipper and returns the stream server. Call Serve with a listener.
func NewIntentPrimary(coord *Coordinator, tracer obs.Tracer) *IntentPrimary {
	p := &IntentPrimary{
		coord: coord, tracer: tracer,
		AckTimeout:     2 * time.Second,
		HeartbeatEvery: time.Second,
	}
	p.cond = sync.NewCond(&p.mu)
	p.shipped = coord.log.LastSeq()
	coord.log.SetShipper(p.ship)
	return p
}

// Attached reports whether a standby coordinator session is live.
// Until one is, intents are acted on unreplicated — the coordinator
// keeps serving, but a takeover would lose decisions made meanwhile.
func (p *IntentPrimary) Attached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sess != nil && !p.sess.dead
}

// Lag returns how many records the attached standby trails the log by
// (zero when none is attached — nothing is owed to nobody). It reads
// the shipped watermark p tracks itself rather than the log's LastSeq,
// which counts records still queued: p.mu is taken inside the log's
// flush (ship), so nothing here may wait on the log while holding it.
func (p *IntentPrimary) Lag() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sess == nil || p.sess.dead {
		return 0
	}
	if p.shipped <= p.sess.acked {
		return 0
	}
	return p.shipped - p.sess.acked
}

// RegisterMetrics exposes the coordinator pair's replication lag.
func (p *IntentPrimary) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("atmcac_coord_standby_lag_records", func() float64 { return float64(p.Lag()) })
	reg.Help("atmcac_coord_standby_lag_records", "Intent records shipped to but not yet acknowledged by the standby coordinator.")
}

// sendMsg writes one message with timeout as a write deadline. Every
// primary→standby write is bounded this way: ship() runs inside the
// intent log's flush and the heartbeat under p.mu, so a stream stalled
// by TCP backpressure must surface as a dead session within the
// timeout, not wedge the coordinator on a blocked write.
func sendMsg(conn net.Conn, timeout time.Duration, msg replica.Msg) error {
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	err := replica.WriteMsg(conn, msg)
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// ship is the IntentLog shipper hook: called by a group commit's leader,
// with other groups held off, for each record of the group once it is
// locally durable. With a standby attached it writes the record and
// blocks until acknowledged (or AckTimeout); with none it returns nil
// immediately.
func (p *IntentPrimary) ship(seq uint64, payload []byte) error {
	p.mu.Lock()
	if seq > p.shipped {
		p.shipped = seq
	}
	sess := p.sess
	if sess == nil || sess.dead {
		p.mu.Unlock()
		return nil
	}
	err := sendMsg(sess.conn, p.AckTimeout, replica.Msg{
		Type: replica.MsgRecord, Seq: seq, Epoch: p.coord.Epoch(), Payload: payload,
	})
	p.mu.Unlock()
	if err != nil {
		p.detach(sess)
		return fmt.Errorf("ship intent %d: %w", seq, err)
	}
	return p.waitAck(sess, seq)
}

// waitAck blocks until the session acknowledges seq, dies, or the
// timeout lapses.
func (p *IntentPrimary) waitAck(sess *intentSession, seq uint64) error {
	deadline := time.Now().Add(p.AckTimeout)
	timer := time.AfterFunc(p.AckTimeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	for sess.acked < seq && !sess.dead && !time.Now().After(deadline) {
		p.cond.Wait()
	}
	acked := sess.acked >= seq
	p.mu.Unlock()
	if acked {
		return nil
	}
	p.detach(sess)
	return fmt.Errorf("standby coordinator did not acknowledge intent %d", seq)
}

// detach tears one session down and wakes every ack waiter.
func (p *IntentPrimary) detach(sess *intentSession) {
	p.mu.Lock()
	sess.dead = true
	if p.sess == sess {
		p.sess = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	_ = sess.conn.Close()
}

// Serve accepts standby sessions on l until Close. A new standby
// replaces the old session.
func (p *IntentPrimary) Serve(l net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("shard: intent replication server closed")
	}
	p.ln = l
	p.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("shard: intent replication accept: %w", err)
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// Close stops accepting and drops the attached standby.
func (p *IntentPrimary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ln, sess := p.ln, p.sess
	p.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if sess != nil {
		p.detach(sess)
	}
	p.wg.Wait()
}

// handle runs one standby session: handshake, catch-up, then the read
// loop consuming acks while the heartbeat loop keeps the stream warm.
func (p *IntentPrimary) handle(conn net.Conn) {
	hello, err := replica.ReadMsg(conn)
	if err != nil || hello.Type != replica.MsgHello {
		_ = conn.Close()
		return
	}
	if hello.Epoch > p.coord.Epoch() {
		// The peer has seen a higher coordinator term than ours: we were
		// superseded while partitioned. Fence and refuse the session.
		p.coord.Fence()
		_ = replica.WriteMsg(conn, replica.Msg{Type: replica.MsgReject, Code: replica.CodeResync, Epoch: p.coord.Epoch()})
		_ = conn.Close()
		return
	}
	sess := &intentSession{conn: conn, acked: hello.Seq}
	send := func(seq uint64, payload []byte) error {
		return sendMsg(conn, p.AckTimeout, replica.Msg{
			Type: replica.MsgRecord, Seq: seq, Epoch: p.coord.Epoch(), Payload: payload,
		})
	}
	attach := func() {
		p.mu.Lock()
		old := p.sess
		p.sess = sess
		p.mu.Unlock()
		if old != nil {
			p.detach(old)
		}
	}
	// The standby acks every record as it lands, catch-up backlog
	// included, so the read loop must drain them while the backlog
	// streams: with the acks unread, a large backlog fills both TCP
	// buffers and wedges send() — and with it the intent log's flushes —
	// for as long as the session lives.
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		p.readLoop(sess)
	}()
	if err := p.coord.log.CatchUp(hello.Seq, send, attach); err != nil {
		p.detach(sess)
		<-readDone
		return
	}
	stop := make(chan struct{})
	go p.heartbeatLoop(sess, stop)
	<-readDone
	close(stop)
	p.detach(sess)
}

// readLoop consumes standby acks and fence notifications.
func (p *IntentPrimary) readLoop(sess *intentSession) {
	for {
		msg, err := replica.ReadMsg(sess.conn)
		if err != nil {
			return
		}
		switch msg.Type {
		case replica.MsgAck:
			p.mu.Lock()
			if msg.Seq > sess.acked {
				sess.acked = msg.Seq
			}
			p.cond.Broadcast()
			p.mu.Unlock()
		case replica.MsgFence:
			// The standby promoted: this coordinator is history.
			p.coord.Fence()
			return
		}
	}
}

// heartbeatLoop feeds the standby's failover timer.
func (p *IntentPrimary) heartbeatLoop(sess *intentSession, stop chan struct{}) {
	tick := time.NewTicker(p.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			p.mu.Lock()
			if sess.dead {
				p.mu.Unlock()
				return
			}
			err := sendMsg(sess.conn, p.AckTimeout, replica.Msg{Type: replica.MsgHeartbeat, Epoch: p.coord.Epoch()})
			p.mu.Unlock()
			if err != nil {
				p.detach(sess)
				return
			}
		}
	}
}

// StandbyConfig parameterizes a standby coordinator.
type StandbyConfig struct {
	// From is the active coordinator's intent replication address.
	From string
	// LogPath is the standby's own intent log file.
	LogPath string
	// FS abstracts the filesystem; nil means the OS.
	FS journal.FS
	// FailoverTimeout promotes the standby once the active coordinator
	// has been silent this long. Required (a standby that can never
	// promote is a tape archive, not HA).
	FailoverTimeout time.Duration
	// DialTimeout bounds each connection attempt. Defaults to 2s.
	DialTimeout time.Duration
	// Tracer receives promote events.
	Tracer obs.Tracer
}

// StandbyCoordinator tails the active coordinator's intent log and
// promotes itself when the active goes silent. After Run returns nil
// the takeover is durable: open the log with NewCoordinator (it reads
// the bumped term), Recover, and serve.
type StandbyCoordinator struct {
	cfg   StandbyConfig
	log   *IntentLog
	epoch uint64 // highest coordinator term observed

	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// NewStandbyCoordinator opens (or creates) the local intent log copy.
func NewStandbyCoordinator(cfg StandbyConfig) (*StandbyCoordinator, error) {
	if cfg.From == "" || cfg.LogPath == "" {
		return nil, errors.New("shard: standby coordinator needs a replication source and a log path")
	}
	if cfg.FailoverTimeout <= 0 {
		return nil, errors.New("shard: standby coordinator needs a failover timeout")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	log, recs, _, err := OpenIntentLog(cfg.FS, cfg.LogPath)
	if err != nil {
		return nil, err
	}
	epoch := MaxIntentEpoch(recs)
	if epoch == 0 {
		epoch = 1
	}
	return &StandbyCoordinator{cfg: cfg, log: log, epoch: epoch}, nil
}

// Close aborts Run from another goroutine.
func (sb *StandbyCoordinator) Close() {
	sb.mu.Lock()
	sb.closed = true
	conn := sb.conn
	sb.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	_ = sb.log.Close()
}

// Run tails the active coordinator until it goes silent for the
// configured failover timeout, then promotes and returns nil. It
// returns ErrSuperseded when the active refuses the session at a
// higher term, ctx.Err when canceled, and other errors on local
// failures (an unappendable log must not promote).
func (sb *StandbyCoordinator) Run(ctx context.Context) error {
	lastContact := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		sb.mu.Lock()
		closed := sb.closed
		sb.mu.Unlock()
		if closed {
			return errors.New("shard: standby coordinator closed")
		}
		err := sb.session(ctx, &lastContact)
		switch {
		case errors.Is(err, ErrSuperseded):
			return err
		case err != nil && !isTransient(err):
			return err
		}
		if time.Since(lastContact) >= sb.cfg.FailoverTimeout {
			return sb.promote()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sb.cfg.FailoverTimeout / 8):
		}
	}
}

// errTransient wraps stream and dial failures Run retries.
type errTransient struct{ err error }

func (e errTransient) Error() string { return e.err.Error() }
func (e errTransient) Unwrap() error { return e.err }

func isTransient(err error) bool {
	var t errTransient
	return errors.As(err, &t)
}

// session runs one connection to the active coordinator, refreshing
// lastContact on every message.
func (sb *StandbyCoordinator) session(ctx context.Context, lastContact *time.Time) error {
	conn, err := net.DialTimeout("tcp", sb.cfg.From, sb.cfg.DialTimeout)
	if err != nil {
		return errTransient{err}
	}
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		_ = conn.Close()
		return errors.New("shard: standby coordinator closed")
	}
	sb.conn = conn
	sb.mu.Unlock()
	defer func() {
		sb.mu.Lock()
		if sb.conn == conn {
			sb.conn = nil
		}
		sb.mu.Unlock()
		_ = conn.Close()
	}()
	if err := replica.WriteMsg(conn, replica.Msg{
		Type: replica.MsgHello, Seq: sb.log.LastSeq(), Epoch: sb.epoch,
	}); err != nil {
		return errTransient{err}
	}
	*lastContact = time.Now()
	for {
		// Bound each read by the failover timeout: a silent active is a
		// dead active, and the timer must fire even mid-read.
		_ = conn.SetReadDeadline(time.Now().Add(sb.cfg.FailoverTimeout))
		msg, err := replica.ReadMsg(conn)
		if err != nil {
			return errTransient{err}
		}
		*lastContact = time.Now()
		switch msg.Type {
		case replica.MsgRecord:
			if msg.Epoch > sb.epoch {
				sb.epoch = msg.Epoch
			}
			if err := sb.log.AppendShipped(msg.Seq, msg.Payload); err != nil {
				return err // local log failure: fatal, must not promote over a hole
			}
			if err := replica.WriteMsg(conn, replica.Msg{Type: replica.MsgAck, Seq: msg.Seq}); err != nil {
				return errTransient{err}
			}
		case replica.MsgHeartbeat:
			if msg.Epoch > sb.epoch {
				sb.epoch = msg.Epoch
			}
		case replica.MsgReject, replica.MsgFence:
			if msg.Epoch > sb.epoch {
				return fmt.Errorf("%w (term %d)", ErrSuperseded, msg.Epoch)
			}
			return errTransient{fmt.Errorf("active coordinator refused session: %s", msg.Code)}
		}
	}
}

// promote makes the takeover durable: the bumped term is appended to
// the local log before anything else happens, then the old active is
// best-effort fenced over the stream. The caller re-opens the log as a
// Coordinator — NewCoordinator reads the new term — and runs Recover.
func (sb *StandbyCoordinator) promote() error {
	newEpoch := sb.epoch + 1
	if err := sb.log.Append(&IntentRecord{State: IntentEpoch, Epoch: newEpoch}); err != nil {
		return fmt.Errorf("shard: promote standby coordinator: %w", err)
	}
	sb.epoch = newEpoch
	if err := sb.log.Close(); err != nil {
		return fmt.Errorf("shard: close promoted intent log: %w", err)
	}
	// Best-effort fence: the shards' coordinator-term ratchets are the
	// real guard; this just tells a live-but-partitioned old active
	// sooner.
	if conn, err := net.DialTimeout("tcp", sb.cfg.From, sb.cfg.DialTimeout); err == nil {
		_ = replica.WriteMsg(conn, replica.Msg{Type: replica.MsgHello, Seq: 0, Epoch: newEpoch})
		_ = replica.WriteMsg(conn, replica.Msg{Type: replica.MsgFence, Epoch: newEpoch})
		_ = conn.Close()
	}
	if sb.cfg.Tracer != nil {
		sb.cfg.Tracer.Trace(obs.Event{Kind: obs.KindCoordPromote, Outcome: obs.OutcomeOK, Epoch: newEpoch})
	}
	return nil
}

// Epoch returns the standby's view of the coordinator term (after Run
// returns nil, the bumped takeover term).
func (sb *StandbyCoordinator) Epoch() uint64 { return sb.epoch }
