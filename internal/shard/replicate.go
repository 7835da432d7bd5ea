package shard

import (
	"errors"
	"fmt"
	"sync"

	"atmcac/internal/replica"
)

// Coordinator HA runs on the fleet's one replication stream: the active
// coordinator's intent log is a replica.Source, a standby coordinator's
// copy of it a replica.Sink.
//
// Shipping is synchronous while a standby is attached: an intent that
// the standby has not acknowledged is an intent the coordinator must not
// act on, because a takeover that misses a commit decision would resolve
// the transaction divergently (presumed abort on the standby, committed
// on a shard). With no standby attached the coordinator proceeds
// unreplicated — availability over replication — which stays consistent
// because a lost commit intent can only exist for a transaction whose
// commit never reached phase 2 acknowledgement.
//
// On active silence the standby promotes: it appends an IntentEpoch
// record bumping the coordinator term and fences the old active over the
// replication stream; the caller then re-opens the log as a full
// Coordinator and runs Recover. Every shard 2PC operation is stamped with
// the term (wire.Request.CoordEpoch), so the shards' ratchets shut the
// superseded coordinator out even when the fence message never arrived.

// NewIntentPrimary returns the shipper of c's intent log: a sync-mode
// replica.Primary, installed as the log's shipper hook. Serve it on a
// listener. Its mode is fixed (sync while a standby is attached,
// unreplicated while none is): cfg may set neither Mode nor MaxLag.
func NewIntentPrimary(c *Coordinator, cfg replica.PrimaryConfig) (*replica.Primary, error) {
	if cfg.Mode != "" || cfg.MaxLag != 0 {
		return nil, errors.New("shard: the intent shipper's mode is fixed; set only AckTimeout, HeartbeatEvery and Tracer")
	}
	cfg.Mode = replica.ModeSync
	p := replica.NewPrimaryFrom(intentSource{c}, cfg)
	c.log.SetShipper(func(seq uint64, payload []byte) error {
		if err := p.Ship(seq, c.Epoch(), payload); !errors.Is(err, replica.ErrNoStandby) {
			return err
		}
		return nil
	})
	c.shipper.Store(p)
	return p, nil
}

// intentSource ships the coordinator's intent log, which has no state
// form: a joining standby always gets the records past its watermark.
type intentSource struct{ c *Coordinator }

func (s intentSource) Epoch() uint64 { return s.c.Epoch() }

func (s intentSource) Fence(uint64) { s.c.Fence() }

func (s intentSource) Fenced() (bool, uint64) { return s.c.Fenced(), 0 }

func (s intentSource) Watermark() uint64 { return s.c.log.LastSeq() }

func (s intentSource) CatchUp(afterSeq uint64, _ bool, record, _ func(seq, epoch uint64, payload []byte) error, attach func()) error {
	epoch := s.c.Epoch()
	return s.c.log.CatchUp(afterSeq, func(seq uint64, payload []byte) error {
		return record(seq, epoch, payload)
	}, attach)
}

// NewStandbyCoordinator returns the tailer a standby coordinator runs: it
// follows the active coordinator's intent stream at cfg.PrimaryAddr into
// log, its own intent log, and promotes once the active has been silent
// for cfg.FailoverTimeout. After Run returns nil from a promotion the
// takeover term is durable in log: close it, open it with NewCoordinator
// (which reads the term back), Recover, and serve.
func NewStandbyCoordinator(log *IntentLog, cfg replica.StandbyConfig) *replica.Standby {
	return replica.NewStandbyInto(&intentSink{log: log, epoch: log.term}, cfg)
}

// intentSink appends the shipped intent frames to a standby
// coordinator's log.
type intentSink struct {
	log *IntentLog

	mu    sync.Mutex
	epoch uint64 // highest coordinator term observed
}

func (s *intentSink) Watermark() uint64 { return s.log.LastSeq() }

func (s *intentSink) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Apply preserves the primary's sequence. Sequences may jump forward:
// the primary's ReserveSeq consumes sequence numbers for transaction
// names without writing a frame, and the stream is ordered per session,
// so a forward jump is a reserved-but-unwritten hole, not loss.
func (s *intentSink) Apply(seq, epoch uint64, payload []byte) error {
	rec, err := decodeIntent(payload)
	if err != nil {
		return fmt.Errorf("shard: shipped intent frame undecodable: %w", err)
	}
	if rec.Seq != seq {
		return fmt.Errorf("shard: shipped intent frame seq %d disagrees with envelope %d", rec.Seq, seq)
	}
	if _, err := s.log.AppendAt(seq, payload, false, nil); err != nil {
		return fmt.Errorf("shard: append shipped intent %d: %w", seq, err)
	}
	s.Fence(epoch)
	return nil
}

func (s *intentSink) Sync() error { return s.log.Sync() }

func (s *intentSink) Install(uint64, uint64, []byte) error {
	return errors.New("shard: the intent log has no full-state form")
}

// Promote makes the takeover durable: the bumped term is appended to the
// log before anything else happens.
func (s *intentSink) Promote() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.epoch + 1
	if err := s.log.Append(&IntentRecord{State: IntentEpoch, Epoch: epoch}); err != nil {
		return 0, fmt.Errorf("shard: promote standby coordinator: %w", err)
	}
	s.epoch = epoch
	return epoch, nil
}

// Fence raises the observed term: a standby coordinator has no write
// path to close, and a later promotion must land above epoch.
func (s *intentSink) Fence(epoch uint64) {
	s.mu.Lock()
	s.epoch = max(s.epoch, epoch)
	s.mu.Unlock()
}
