package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/wire"
)

// ErrSuperseded reports that the dialed peer refused this node as
// stale: the local epoch is ahead of the peer's, so this node should be
// (or already is) the primary — following would invert the roles.
var ErrSuperseded = errors.New("replica: peer is behind this node's epoch")

// errLocalLog marks a failure of the standby's own log: Run stops on it,
// so a failed disk is never read as the primary's silence.
var errLocalLog = errors.New("replica: local log failed")

// maxBatch bounds how many records the standby applies before it syncs
// and acks, so a long catch-up still acknowledges as it goes.
const maxBatch = 256

// StandbyConfig tunes the consuming side of replication.
type StandbyConfig struct {
	// PrimaryAddr is the primary's replication listener.
	PrimaryAddr string
	// Dial opens the replication connection; nil means net.Dial("tcp").
	// Injectable so the chaos harness can partition the link.
	Dial func(addr string) (net.Conn, error)
	// FailoverTimeout promotes this standby automatically once the
	// primary has been silent for this long. Zero disables automatic
	// failover (promotion then only happens via cacctl promote).
	FailoverTimeout time.Duration
	// ReconnectBackoff shapes the jittered dial retry delays. The
	// zero value uses overload's defaults (10ms base, 2s cap).
	ReconnectBackoff overload.Backoff
}

// Sink is the log a Standby tails into: a wire.Server's admission
// journal or a standby coordinator's intent log. It stores the shipped
// payloads byte for byte under the primary's sequences.
type Sink interface {
	// Watermark returns the highest sequence in the log.
	Watermark() uint64
	// Epoch returns the highest term the sink has seen.
	Epoch() uint64
	// Apply writes one shipped record without fsyncing it and folds it
	// into the sink's state. A record at or below the watermark is a
	// redelivery and changes nothing. wire.ErrStaleEpoch refuses a record
	// from a superseded term; any other error means the sink diverged and
	// needs a full resync.
	Apply(seq, epoch uint64, payload []byte) error
	// Sync makes every applied record durable; an error stops Run.
	Sync() error
	// Install replaces the sink's state with the full state the primary
	// sent, at watermark seq and term epoch. A sink without a state form
	// returns an error.
	Install(seq, epoch uint64, payload []byte) error
	// Promote takes over as the primary at a new, higher term, durably,
	// and returns that term. A sink whose log failed refuses.
	Promote() (uint64, error)
	// Fence records that a primary at epoch, a newer term, exists.
	Fence(epoch uint64)
}

// Standby maintains the replication session from the consuming side:
// dial the primary with jittered backoff, apply every record already read
// from the stream, sync once and acknowledge the highest, and promote
// itself — fencing the old primary — when the primary goes silent past
// the failover timeout.
type Standby struct {
	sink Sink
	cfg  StandbyConfig

	mu         sync.Mutex
	conn       net.Conn
	appliedSeq uint64
	needFull   bool

	stopOnce sync.Once
	stopped  chan struct{}
}

// NewStandby wires a consuming standby to srv's admission journal. The
// caller still must srv.SetStandby(true) and run Run in a goroutine.
func NewStandby(srv *wire.Server, cfg StandbyConfig) *Standby {
	return NewStandbyInto(wireSink{srv}, cfg)
}

// NewStandbyInto returns a standby tailing the primary into sink. Run it
// in a goroutine.
func NewStandbyInto(sink Sink, cfg StandbyConfig) *Standby {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return &Standby{sink: sink, cfg: cfg, stopped: make(chan struct{})}
}

// Close stops the session loop without promoting.
func (s *Standby) Close() error {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return nil
}

// Run drives the replication session until Close, promotion, a terminal
// role conflict (ErrSuperseded) or a failure of the sink's own log. It
// returns nil after a promotion (manual or automatic) — the node is then
// the primary and the standby loop's job is done — and after Close.
func (s *Standby) Run() error {
	bo := s.cfg.ReconnectBackoff
	heard := time.Now() // the primary's last sign of life; boot counts as one
	for {
		if s.isStopped() || s.autoPromote(heard) {
			return nil
		}
		if conn, err := s.cfg.Dial(s.cfg.PrimaryAddr); err == nil {
			contact, err := s.session(conn, &heard)
			conn.Close()
			if s.isStopped() {
				return nil
			}
			if errors.Is(err, ErrSuperseded) || errors.Is(err, errLocalLog) {
				return err
			}
			if contact {
				// The primary was alive this session: restart the backoff
				// schedule.
				bo = s.cfg.ReconnectBackoff
			}
		}
		if !s.sleep(bo.Next(0)) {
			return nil
		}
	}
}

func (s *Standby) isStopped() bool {
	select {
	case <-s.stopped:
		return true
	default:
		return false
	}
}

// session runs one connected stint: hello, then consume until the stream
// breaks, stamping heard with every message. It applies each record
// unsynced, and once the stream holds no further whole batch it syncs and
// acknowledges the highest record applied: an ack never runs ahead of the
// fsync that covers it. Reports whether the primary showed any sign of
// life.
func (s *Standby) session(conn net.Conn, heard *time.Time) (contact bool, err error) {
	// What the hello reports as held must be on disk too.
	if err := s.sink.Sync(); err != nil {
		return false, fmt.Errorf("%w: %w", errLocalLog, err)
	}
	hello := Msg{Type: MsgHello, Epoch: s.sink.Epoch(), Seq: s.sink.Watermark()}
	s.mu.Lock()
	if s.isStopped() {
		// Close ran before conn was published, so nothing else closes it.
		s.mu.Unlock()
		return false, nil
	}
	s.conn = conn
	if s.needFull {
		hello.Code = "full"
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.conn == conn {
			s.conn = nil
		}
		s.mu.Unlock()
	}()
	if err := write(conn, hello); err != nil {
		return false, err
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	var pending uint64 // highest record applied and not yet acknowledged
	batch := 0
	for {
		if pending != 0 && (r.Buffered() == 0 || batch >= maxBatch) {
			if err := s.sink.Sync(); err != nil {
				return contact, fmt.Errorf("%w: %w", errLocalLog, err)
			}
			s.mu.Lock()
			s.appliedSeq = pending
			s.mu.Unlock()
			if err := write(conn, Msg{Type: MsgAck, Seq: pending}); err != nil {
				return contact, err
			}
			pending, batch = 0, 0
		}
		if s.cfg.FailoverTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.FailoverTimeout))
		}
		msg, err := ReadMsg(r)
		if err != nil {
			return contact, err
		}
		contact, *heard = true, time.Now()
		switch msg.Type {
		case MsgHeartbeat:
			// Nothing to do: the read itself fed the failover timer.
		case MsgRecord:
			if err := s.sink.Apply(msg.Seq, msg.Epoch, msg.Payload); err != nil {
				return contact, s.refuse(conn, err)
			}
			pending, batch = max(pending, msg.Seq), batch+1
		case MsgState:
			if err := s.sink.Install(msg.Seq, msg.Epoch, msg.Payload); err != nil {
				return contact, s.refuse(conn, err)
			}
			s.mu.Lock()
			s.needFull = false
			s.mu.Unlock()
			pending, batch = max(pending, msg.Seq), batch+1
		case MsgReject:
			if msg.Code == wire.CodeFenced {
				// The peer says our epoch is ahead of its term: we are
				// the newer node and must not follow it.
				return contact, fmt.Errorf("%w: %s", ErrSuperseded, msg.Text)
			}
			return contact, fmt.Errorf("replica: session rejected (%s): %s", msg.Code, msg.Text)
		case MsgFence:
			// A newer primary found us. Fence and resync as a follower
			// of whoever we dial next time.
			if msg.Epoch > s.sink.Epoch() {
				s.sink.Fence(msg.Epoch)
			}
			s.mu.Lock()
			s.needFull = true
			s.mu.Unlock()
			return contact, fmt.Errorf("replica: fenced at epoch %d", msg.Epoch)
		}
	}
}

// refuse ends the session over a message the sink would not take. A
// record from a superseded term is answered with the fence code, so its
// sender fences itself; any other failure marks the sink diverged and
// asks the primary for a full-state session.
func (s *Standby) refuse(conn net.Conn, err error) error {
	if errors.Is(err, wire.ErrStaleEpoch) {
		write(conn, Msg{Type: MsgReject, Code: wire.CodeFenced, Epoch: s.sink.Epoch(), Text: err.Error()})
		return err
	}
	s.mu.Lock()
	s.needFull = true
	s.mu.Unlock()
	write(conn, Msg{Type: MsgReject, Code: CodeResync, Text: err.Error()})
	return err
}

// write sends one framed message under the write deadline.
func write(conn net.Conn, m Msg) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := WriteMsg(conn, m)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// autoPromote fires the failover once the primary has been silent past
// the timeout. The jitter lives in the dial backoff that precedes each
// check, so two standbys (in a future multi-standby world) would not
// race the promotion deterministically.
func (s *Standby) autoPromote(heard time.Time) bool {
	if s.cfg.FailoverTimeout <= 0 || time.Since(heard) < s.cfg.FailoverTimeout {
		return false
	}
	epoch, err := s.sink.Promote()
	if err != nil {
		// Fenced (a newer primary exists) or the log failed: stay a
		// standby and keep dialing — the fence already blocks
		// split-brain writes, and a broken log must not take over.
		return false
	}
	go s.notifyFence(epoch)
	return true
}

// Promote performs a manual (operator-driven) failover: stop following,
// take over at a new epoch, and tell the old primary it is fenced.
func (s *Standby) Promote() (uint64, error) {
	epoch, err := s.sink.Promote()
	if err != nil {
		return 0, err
	}
	s.Close()
	go s.notifyFence(epoch)
	return epoch, nil
}

// notifyFence tells the old primary (best-effort, with backoff) that a
// newer term exists so it fences itself the moment it is reachable: the
// fence message is the first and only one it sends. Even if every attempt
// fails, the fence still lands the next time the ex-primary touches the
// stream: any hello or record it exchanges carries the lower epoch and is
// rejected.
func (s *Standby) notifyFence(epoch uint64) {
	var bo overload.Backoff
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(bo.Next(0))
		}
		conn, err := s.cfg.Dial(s.cfg.PrimaryAddr)
		if err != nil {
			continue
		}
		err = write(conn, Msg{Type: MsgFence, Epoch: epoch})
		if err == nil {
			conn.SetReadDeadline(time.Now().Add(writeTimeout))
			_, err = ReadMsg(conn) // wait for the ack so the write flushed
		}
		conn.Close()
		if err == nil {
			return
		}
	}
}

// sleep waits d or until Close; reports false when closed.
func (s *Standby) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stopped:
		return false
	}
}

// decorate fills the stream-level fields of a replication report.
func (s *Standby) decorate(rep *wire.ReplicationReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.Connected = s.conn != nil
	rep.AckedSeq = s.appliedSeq
}

// RegisterMetrics exposes the standby's stream gauges on reg.
func (s *Standby) RegisterMetrics(reg *obs.Registry) {
	role := obs.L("role", "standby")
	reg.GaugeFunc("atmcac_repl_connected", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.conn != nil {
			return 1
		}
		return 0
	}, role)
	reg.Help("atmcac_repl_connected", "Whether a live replication stream is attached (by role).")
	reg.GaugeFunc("atmcac_repl_applied_seq", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.appliedSeq)
	}, role)
	reg.Help("atmcac_repl_applied_seq", "Highest sequence applied from the primary.")
}
