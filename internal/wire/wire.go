// Package wire implements a central connection admission control server
// over TCP — the deployment the paper plans for the next version of RTnet,
// where switched real-time connections are set up and torn down on-line by
// a central connection management server (Section 4.3, discussion 3, and
// Section 5).
//
// The protocol is newline-delimited JSON: each request and response is one
// JSON object on one line. Operations: setup, teardown, list, bound (query
// the current end-to-end computed bound of a route), inspect (per-queue
// bounds, backlogs and arrival envelopes), and audit (re-validate every
// queue). With a StateStore attached, established connections survive
// server restarts.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/bitstream"
	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
)

// Protocol operations.
const (
	OpSetup    = "setup"
	OpTeardown = "teardown"
	OpList     = "list"
	OpBound    = "bound"
	OpInspect  = "inspect"
	OpAudit    = "audit"
	// OpFailLink marks a directed inter-switch link as failed, evicts the
	// traversing connections and runs the configured re-admission handler.
	OpFailLink = "fail-link"
	// OpRestoreLink clears a failed link.
	OpRestoreLink = "restore-link"
	// OpHealth reports daemon liveness: admitted connections, failed
	// links, audit violations and drain state.
	OpHealth = "health"
)

// MaxLineBytes caps the size of one protocol line.
const MaxLineBytes = 1 << 20

// Wire-level error codes. Together with the core admission taxonomy
// (core.ErrorCode) they form the stable machine-readable vocabulary of
// the response code field: core codes name why the admission plane said
// no, these name conditions only the transport or persistence layer can
// produce. docs/PROTOCOL.md lists the full vocabulary.
const (
	// CodeNotDurable marks a setup or teardown refused (and rolled back)
	// because its journal record could not be written before the ack.
	CodeNotDurable = "not-durable"
	// CodeProtocol marks a request the server could not parse.
	CodeProtocol = "protocol"
	// CodeUnknownOp marks a well-formed request naming no operation.
	CodeUnknownOp = "unknown-op"
)

// idLockStripes sizes the per-connection-ID lock pool; see Server.idLocks.
const idLockStripes = 64

var (
	// ErrProtocol reports a malformed request or response.
	ErrProtocol = errors.New("wire: protocol error")
	// ErrServerClosed reports use of a closed server.
	ErrServerClosed = errors.New("wire: server closed")
	// ErrOverloaded reports a request shed by the server's overload
	// control. Match with errors.Is; the concrete *OverloadError carries
	// the server's retry-after hint.
	ErrOverloaded = errors.New("wire: server overloaded")
)

// OverloadError is the client-side form of a typed overloaded response:
// the server shed the request before doing any work, and RetryAfter
// hints when the operation's class is likely admissible again.
type OverloadError struct {
	Op         string
	RetryAfter time.Duration
	Msg        string
}

// Error renders the overload with its hint.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("wire: %s overloaded (retry after %v): %s", e.Op, e.RetryAfter, e.Msg)
}

// Unwrap lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RemoteError is a typed server error response. Op names the operation,
// Code carries the server's stable machine-readable code field, Msg the
// human-readable message. It renders exactly like the untyped errors it
// replaced — "wire: <op>: <msg>", or the core rejection wrapping for CAC
// rejections — so string matchers and errors.Is(err, core.ErrRejected)
// keep working, while errors.As gives programmatic access to the code.
type RemoteError struct {
	Op       string
	Code     string
	Msg      string
	rejected bool
}

// Error renders the server message under the operation it answered.
func (e *RemoteError) Error() string {
	if e.rejected {
		return fmt.Sprintf("%v: %s", core.ErrRejected, e.Msg)
	}
	return fmt.Sprintf("wire: %s: %s", e.Op, e.Msg)
}

// Unwrap lets CAC rejections match errors.Is(err, core.ErrRejected).
func (e *RemoteError) Unwrap() error {
	if e.rejected {
		return core.ErrRejected
	}
	return nil
}

// remoteErr lifts a failed response into the typed client error.
func remoteErr(op string, resp Response) error {
	return &RemoteError{Op: op, Code: resp.Code, Msg: resp.Error, rejected: resp.Rejected}
}

// Request is a client request.
type Request struct {
	Op string `json:"op"`
	// Request carries the connection parameters for setup.
	Request *core.ConnRequest `json:"request,omitempty"`
	// ID identifies the connection for teardown.
	ID core.ConnID `json:"id,omitempty"`
	// Route and Priority parameterize bound queries.
	Route    core.Route    `json:"route,omitempty"`
	Priority core.Priority `json:"priority,omitempty"`
	// Switch restricts inspect to one switch; empty means all.
	Switch string `json:"switch,omitempty"`
	// From and To name the link endpoints for fail-link / restore-link.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// TimeoutMillis propagates the client's remaining deadline: the
	// server bounds its handling of this request by a context expiring
	// after that many milliseconds. Zero means no deadline.
	TimeoutMillis int64 `json:"timeoutMs,omitempty"`
	// Txn names the coordinator transaction for the shard 2PC ops.
	Txn string `json:"txn,omitempty"`
	// TTLMillis bounds a shard-prepare hold's lifetime; zero selects the
	// server default.
	TTLMillis int64 `json:"ttlMs,omitempty"`
	// PrepareEpoch echoes the epoch from the prepare report on a
	// shard-commit so an epoch-bumped shard can fence stale prepares.
	PrepareEpoch uint64 `json:"prepareEpoch,omitempty"`
	// CoordEpoch is the coordinator term stamped on every shard 2PC
	// operation. Shards ratchet the highest term they have seen and
	// refuse lower ones (CodeStaleCoordinator), so a superseded
	// coordinator can never drive a transaction divergently from its
	// successor. Zero means unversioned (direct cacctl use) and always
	// passes.
	CoordEpoch uint64 `json:"coordEpoch,omitempty"`
	// Proto names the framing the client proposes on a hello exchange
	// (ProtoJSON or ProtoBinary); empty means json. Only meaningful with
	// OpHello.
	Proto string `json:"proto,omitempty"`
	// Requests carries the connection parameter list for batch-setup.
	Requests []core.ConnRequest `json:"requests,omitempty"`
	// IDs identifies the connections for batch-teardown.
	IDs []core.ConnID `json:"ids,omitempty"`
	// Compact offers the compact binary payload (compact.go) on a hello
	// that proposes ProtoBinary. Only meaningful with OpHello.
	Compact bool `json:"compact,omitempty"`
}

// ReadmitOutcome is the transport form of one re-admission result after a
// link failure.
type ReadmitOutcome struct {
	ID         core.ConnID `json:"id"`
	Readmitted bool        `json:"readmitted"`
	Attempts   int         `json:"attempts,omitempty"`
	// Hops is the wrapped-route length the connection was re-admitted
	// over — the crankback cost of surviving the failure.
	Hops int `json:"hops,omitempty"`
	// Error preserves the rejection reason for connections that stayed
	// down — degradation is reported, never silent.
	Error string `json:"error,omitempty"`
}

// FailoverReport is the transport form of a fail-link result.
type FailoverReport struct {
	Link core.Link `json:"link"`
	// Outcomes holds one entry per evicted connection, in ID order.
	Outcomes []ReadmitOutcome `json:"outcomes,omitempty"`
}

// HealthReport answers the health operation.
type HealthReport struct {
	Connections int         `json:"connections"`
	FailedLinks []core.Link `json:"failedLinks,omitempty"`
	Violations  int         `json:"violations"`
	Draining    bool        `json:"draining,omitempty"`
	// Role and Epoch surface the replication state directly in health so
	// an operator can tell primary from fenced standby in one command.
	Role  string `json:"role,omitempty"`
	Epoch uint64 `json:"epoch"`
	// ShardID names this instance's shard; Prepared counts live 2PC
	// holds (both zero-valued on an unsharded deployment).
	ShardID  string `json:"shardId,omitempty"`
	Prepared int    `json:"prepared,omitempty"`
	// Overload carries the limiter's shed/admitted counters when
	// overload control is configured — visible while an overload
	// happens, because health is never shed.
	Overload *overload.Stats `json:"overload,omitempty"`
	// Metrics is a flat snapshot of the server's metrics registry (see
	// SetObservability): counter and gauge values keyed by metric name
	// plus canonical labels, histograms reduced to _count and _sum. It
	// lets cacctl read the counters over the CAC protocol itself when no
	// scrape endpoint is exposed.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// PortReport describes the state of one (switch, output port, priority)
// queue for the inspect operation.
type PortReport struct {
	Switch   string        `json:"switch"`
	Out      core.PortID   `json:"out"`
	Priority core.Priority `json:"priority"`
	// Bound and Backlog are the computed worst cases; Limit is the FIFO
	// budget. Unstable marks a queue whose delay is unbounded.
	Bound    float64 `json:"bound"`
	Backlog  float64 `json:"backlog"`
	Limit    float64 `json:"limit"`
	Unstable bool    `json:"unstable,omitempty"`
	// Envelope is the aggregated same-priority arrival stream Soa(j,p) in
	// the paper's {(rate, time)} notation.
	Envelope []bitstream.Segment `json:"envelope,omitempty"`
}

// Admission mirrors core.Admission for transport.
type Admission struct {
	ID                 core.ConnID `json:"id"`
	PerHopGuaranteed   []float64   `json:"perHopGuaranteed"`
	PerHopComputed     []float64   `json:"perHopComputed"`
	EndToEndGuaranteed float64     `json:"endToEndGuaranteed"`
	EndToEndComputed   float64     `json:"endToEndComputed"`
}

// Response is a server response.
type Response struct {
	OK bool `json:"ok"`
	// Error is set when OK is false; Rejected distinguishes CAC rejections
	// from operational errors.
	Error    string `json:"error,omitempty"`
	Rejected bool   `json:"rejected,omitempty"`
	// Code is the stable machine-readable form of Error: a core admission
	// taxonomy code (core.ErrorCode), a wire-level code (CodeNotDurable,
	// ...) or "overloaded-" plus the limiter's shed reason. Empty on
	// success. Clients surface it through RemoteError.
	Code string `json:"code,omitempty"`
	// Admission reports a successful setup.
	Admission *Admission `json:"admission,omitempty"`
	// Connections reports a list result.
	Connections []core.ConnID `json:"connections,omitempty"`
	// Bound reports a bound query result (cell times).
	Bound float64 `json:"bound,omitempty"`
	// Ports reports an inspect result.
	Ports []PortReport `json:"ports,omitempty"`
	// Violations reports an audit result (empty means every queue is
	// within its guarantee).
	Violations []ViolationReport `json:"violations,omitempty"`
	// Warning flags a non-fatal condition on an otherwise successful
	// operation (e.g. state persistence deferred to a background retry).
	Warning string `json:"warning,omitempty"`
	// Overloaded marks a request shed by overload control before any
	// work was done; RetryAfterMillis hints when to retry. Clients map
	// this to ErrOverloaded.
	Overloaded       bool  `json:"overloaded,omitempty"`
	RetryAfterMillis int64 `json:"retryAfterMs,omitempty"`
	// Failover reports a fail-link result.
	Failover *FailoverReport `json:"failover,omitempty"`
	// Health reports a health result.
	Health *HealthReport `json:"health,omitempty"`
	// Replication reports a replication or promote result.
	Replication *ReplicationReport `json:"replication,omitempty"`
	// Prepared reports a shard-prepare result.
	Prepared *PrepareReport `json:"prepared,omitempty"`
	// Shard reports a shard-status or shard-reap result.
	Shard *ShardStatusReport `json:"shard,omitempty"`
	// Shards reports a fleet-wide shard-status result: one report per
	// shard pair, in map order, answered by a coordinator.
	Shards []ShardStatusReport `json:"shards,omitempty"`
	// Proto confirms the framing a hello exchange negotiated.
	Proto string `json:"proto,omitempty"`
	// Results reports the per-item outcomes of a batch op, in request
	// order. The batch carrier itself succeeding (OK true) says nothing
	// about the items: each result carries its own ok/error/code.
	Results []BatchResult `json:"results,omitempty"`
	// Compact confirms, on a hello that switches to ProtoBinary, that
	// both ends carry compact payloads from then on.
	Compact bool `json:"compact,omitempty"`
}

// ViolationReport mirrors core.Violation for transport.
type ViolationReport struct {
	Switch   string        `json:"switch"`
	Out      core.PortID   `json:"out"`
	Priority core.Priority `json:"priority"`
	Bound    float64       `json:"bound"`
	Limit    float64       `json:"limit"`
}

// FailoverHandler runs topology-specific re-admission after the directed
// link from -> to has been failed on the network (evicted lists what
// FailLink tore down). It returns one outcome per evicted connection. The
// wire layer stays decoupled from any particular topology: cacd plugs in
// the RTnet wrapped-ring engine here.
type FailoverHandler func(from, to string, evicted []core.ConnRequest) []ReadmitOutcome

// Server serves CAC requests against a core.Network.
type Server struct {
	network  *core.Network
	dur      *Durable
	failover FailoverHandler
	// limiter, when set, sheds requests under control-plane overload in
	// degradation order (reads first, then low-priority setups; teardown
	// and link repair never).
	limiter *overload.Limiter
	// ioTimeout bounds each read of a request line and write of a
	// response; zero means no deadline.
	ioTimeout time.Duration
	// reg and tracer are the observability attachments (SetObservability):
	// reg answers scrape-time gauge reads and health metric snapshots,
	// tracer receives one event per request, persistence step and
	// re-admission. Both are set before Serve and never mutated after.
	reg    *obs.Registry
	tracer obs.Tracer

	// opMu orders admission mutations against their journal records.
	// Setup and teardown hold it shared (their mutation+append pair is
	// made atomic per connection ID by idLocks); fail-link and
	// restore-link hold it exclusively, because their records name whole
	// sets of connections. Without this, a mutation committed to the
	// network whose record is appended later could land in the journal
	// after a younger mutation of the same ID, and replay would restore
	// the wrong final state — resurrecting an acked teardown or dropping
	// an acked setup.
	opMu sync.RWMutex
	// idLocks stripes the per-connection-ID ordering: client-chosen IDs
	// hash onto a fixed pool, so a setup and a teardown of the same ID
	// can never interleave between network commit and journal append,
	// while operations on distinct IDs (modulo stripe collisions) keep
	// running their admission math concurrently.
	idLocks [idLockStripes]sync.Mutex
	// testHookPreAppend, when non-nil, runs between an operation's
	// network mutation and its journal append. The window is a few
	// hundred nanoseconds in production; ordering tests install a hook
	// here to widen it and prove the discipline above actually holds.
	testHookPreAppend func(op string, id core.ConnID)
	// testHookQueued, when non-nil, runs once an operation's records are
	// queued for the journal's next group and before that group is
	// written, so coalescing tests can hold a group open.
	testHookQueued func()

	// epoch is the replication term, stamped into journal records and
	// snapshot trailers on the persist path. Zero until recovery or
	// promotion raises it. It is read without a lock because the
	// replication ack reader reads it while the write path waits on that
	// very reader; it only changes with opMu held exclusively.
	epoch atomic.Uint64
	// replMu guards the replication role flags below; they are read on
	// every dispatched mutation.
	replMu sync.RWMutex
	// standby refuses mutations with CodeStandby until Promote.
	standby bool
	// fenced refuses mutations with CodeFenced forever: the node saw the
	// higher term fencedBy, so a newer primary owns the state.
	fenced   bool
	fencedBy uint64
	// shipper, when set, receives every appended journal record before
	// the operation acks (see Shipper).
	shipper Shipper
	// crashPoints, when set, lets the fault harness kill the process at
	// replication boundaries (see CrashPoints).
	crashPoints *CrashPoints
	// replStatus decorates replication reports with stream-level status.
	replStatus func(*ReplicationReport)

	// shard holds the cross-shard 2PC state: the shard identity and the
	// live prepared holds (see shard.go).
	shard shardState

	// sessions is the accept loop and its live client connections.
	sessions Sessions
	// mu guards draining and retrying; stop is closed under it when
	// Close or Shutdown begins, ending the background loops.
	mu       sync.Mutex
	draining bool
	retrying bool
	stop     chan struct{}
	// retryWG tracks the background persist retry goroutine so shutdown
	// can drain it before writing the final snapshot.
	retryWG sync.WaitGroup
}

// NewServer returns a server managing the given network.
func NewServer(network *core.Network) *Server {
	return &Server{
		network: network,
		stop:    make(chan struct{}),
	}
}

// SetTestHookPreAppend installs a hook that runs between an operation's
// network mutation and its journal append, with the operation and the
// connection it concerns (fault injection and ordering tests only). Must
// be called before the server handles its first request.
func (s *Server) SetTestHookPreAppend(h func(op string, id core.ConnID)) { s.testHookPreAppend = h }

// SetFailoverHandler installs the re-admission handler run by fail-link.
// Must be called before Serve. Without a handler, evicted connections are
// reported as not re-admitted.
func (s *Server) SetFailoverHandler(h FailoverHandler) { s.failover = h }

// SetIOTimeout bounds each request read and response write on every client
// connection. Must be called before Serve; zero disables deadlines.
func (s *Server) SetIOTimeout(d time.Duration) { s.ioTimeout = d }

// SetLimiter installs control-plane overload protection. Must be called
// before Serve; nil disables shedding.
func (s *Server) SetLimiter(l *overload.Limiter) { s.limiter = l }

// SetObservability attaches the metrics registry and trace sink. The
// tracer is installed on the network (admission events) and on the
// journal (append latency), and receives every wire-level event —
// requests, sheds, compactions, re-admissions. The registry
// gains scrape-time gauges over the live server state: admitted
// connections, failed links, journal size, limiter tokens and in-flight
// count. Must be called before Serve and after SetLimiter/SetDurable, so
// the gauges see the final configuration; either argument may be nil.
func (s *Server) SetObservability(reg *obs.Registry, tracer obs.Tracer) {
	s.reg = reg
	s.tracer = tracer
	if tracer != nil {
		s.network.SetTracer(tracer)
		if s.dur != nil {
			s.dur.log.SetObserver(func(st journal.GroupStats) {
				// One append event per record, timed as the whole append
				// its caller waits out: the group's write plus its fsync. A
				// synced group is also one group-commit event, which alone
				// counts the fsync.
				for _, bytes := range st.Frames {
					ev := obs.Event{
						Kind:     obs.KindJournalAppend,
						Outcome:  obs.OutcomeOK,
						Duration: st.Write + st.Fsync,
						Bytes:    int64(bytes),
					}
					if st.Err != nil && !st.Synced {
						ev.Outcome = obs.OutcomeError
						ev.Code = CodeNotDurable
					}
					tracer.Trace(ev)
				}
				if st.Synced {
					ev := obs.Event{Kind: obs.KindGroupCommit, Records: len(st.Frames), Duration: st.Write + st.Fsync, Outcome: obs.OutcomeOK}
					if st.Err != nil {
						ev.Outcome = obs.OutcomeError
					}
					tracer.Trace(ev)
				}
			})
		}
	}
	if reg == nil {
		return
	}
	reg.GaugeFunc("atmcac_admission_connections", func() float64 {
		return float64(len(s.network.Connections()))
	})
	reg.Help("atmcac_admission_connections", "Currently admitted connections.")
	reg.GaugeFunc("atmcac_failover_links_down", func() float64 {
		return float64(len(s.network.FailedLinks()))
	})
	reg.Help("atmcac_failover_links_down", "Links currently marked failed.")
	if s.dur != nil {
		reg.GaugeFunc("atmcac_journal_size_bytes", func() float64 { return float64(s.dur.log.Size()) })
		reg.Help("atmcac_journal_size_bytes", "Write-ahead journal length since the last compaction.")
		reg.GaugeFunc("atmcac_journal_records", func() float64 { return float64(s.dur.log.Count()) })
		reg.Help("atmcac_journal_records", "Journal records since the last compaction.")
	}
	if s.limiter != nil {
		reg.GaugeFunc("atmcac_overload_tokens", func() float64 { return s.limiter.TokensNow() })
		reg.Help("atmcac_overload_tokens", "Token-bucket level of the overload limiter.")
		reg.GaugeFunc("atmcac_overload_inflight", func() float64 { return float64(s.limiter.InFlight()) })
		reg.Help("atmcac_overload_inflight", "Admitted non-recovery requests currently executing.")
	}
	reg.GaugeFunc("atmcac_shard_prepared_holds", func() float64 { return float64(s.preparedCount()) })
	reg.Help("atmcac_shard_prepared_holds", "Live phase-1 reservations awaiting a coordinator decision.")
}

// Classify maps a request to its shedding class: teardown, fail-link,
// restore-link and health are recovery (never shed — the control plane
// must always be able to unload itself and be observed); setups split on
// priority (1 is hard real-time); everything else is a read-only query,
// shed first.
func Classify(req Request) overload.Class {
	switch req.Op {
	case OpTeardown, OpBatchTeardown, OpFailLink, OpRestoreLink, OpHealth, OpPromote, OpReplication,
		OpShardCommit, OpShardAbort, OpShardReap:
		// The shard commit/abort/reap ops are recovery-class too: they
		// finalize or release capacity already held, so shedding them
		// could only strand reservations.
		return overload.ClassRecovery
	case OpSetup, OpShardPrepare:
		if req.Request != nil && req.Request.Priority > 1 {
			return overload.ClassSetupLow
		}
		return overload.ClassSetupHigh
	case OpBatchSetup:
		// A batch is classified by its most urgent member: one hard
		// real-time item makes the whole batch high class.
		for _, r := range req.Requests {
			if r.Priority <= 1 {
				return overload.ClassSetupHigh
			}
		}
		return overload.ClassSetupLow
	default:
		return overload.ClassRead
	}
}

// Serve accepts connections on l until Close. It always returns a non-nil
// error (ErrServerClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	return s.sessions.Serve(l, s.dispatch, SessionOptions{IOTimeout: s.ioTimeout})
}

// shut is the step Close and Shutdown share: stop accepting, end the
// background loops and collect the live sessions. ok is false when the
// server was already closed.
func (s *Server) shut(draining bool) (conns []net.Conn, ok bool, err error) {
	conns, ok, err = s.sessions.stop()
	if ok {
		s.mu.Lock()
		s.draining = draining
		close(s.stop)
		s.mu.Unlock()
	}
	return conns, ok, err
}

// Close stops accepting, closes every client connection, and waits for
// handler goroutines to finish.
func (s *Server) Close() error {
	conns, ok, err := s.shut(false)
	if !ok {
		return nil
	}
	s.sessions.end(conns)
	s.drainRetry()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// in-flight request finish and its response flush, then closes the
// connections and snapshots the final state. Clients blocked waiting for a
// next request are unblocked immediately (their read fails, which ends the
// session cleanly). If ctx expires first, remaining connections are closed
// hard, like Close. The final state snapshot is written in both cases.
func (s *Server) Shutdown(ctx context.Context) error {
	conns, ok, _ := s.shut(true)
	if !ok {
		return nil
	}
	// Expire pending reads so idle sessions end now; a handler mid-request
	// still writes its response (only the read side is cut).
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.sessions.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.sessions.end(conns)
	}
	// Drain the background persist loop before the final snapshot, so a
	// last failed retry cannot land after (or instead of) it and leave
	// stale state on disk when the process exits.
	s.drainRetry()
	if err := s.persistNow(); err != nil {
		return err
	}
	return drainErr
}

// dispatch applies the overload policy around one request: classify,
// acquire (or shed with a typed overloaded response and retry-after
// hint), derive the request-bounded context from the propagated client
// deadline, then handle. Shedding happens before any network state is
// touched, so a shed setup is never half-admitted.
func (s *Server) dispatch(req Request) Response {
	tr := s.tracer
	var start time.Time
	if tr != nil {
		start = time.Now()
	}
	className := ""
	if s.limiter != nil {
		class := Classify(req)
		className = class.String()
		d, release := s.limiter.Acquire(class)
		if !d.Admitted {
			code := "overloaded-" + d.Reason
			if tr != nil {
				tr.Trace(obs.Event{Kind: obs.KindShed, Op: req.Op, Class: className, Code: code})
				tr.Trace(obs.Event{
					Kind: obs.KindRequest, Op: req.Op, Class: className,
					Outcome: obs.OutcomeShed, Code: code, Duration: time.Since(start),
				})
			}
			return Response{
				Error: fmt.Sprintf("overloaded: %s request shed (%s limit)",
					class, d.Reason),
				Code:             code,
				Overloaded:       true,
				RetryAfterMillis: int64(d.RetryAfter / time.Millisecond),
			}
		}
		defer release()
	}
	ctx := context.Background()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	resp := s.handle(ctx, req)
	if tr != nil {
		outcome := obs.OutcomeOK
		if !resp.OK {
			outcome = obs.OutcomeError
		}
		tr.Trace(obs.Event{
			Kind: obs.KindRequest, Op: req.Op, Class: className,
			Outcome: outcome, Code: resp.Code, Duration: time.Since(start),
		})
	}
	return resp
}

// idLock returns the stripe serializing mutations of one connection ID
// (FNV-1a over the ID).
func (s *Server) idLock(id core.ConnID) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &s.idLocks[h%idLockStripes]
}

// handleSetup admits a connection and makes it durable before the ack.
// The mutation and its journal append run under the connection's ID
// stripe (and opMu shared), so a concurrent teardown of the same ID
// cannot journal in the opposite order of the in-memory mutations.
func (s *Server) handleSetup(ctx context.Context, req Request) Response {
	if req.Request == nil {
		return Response{Error: "setup requires a request body", Code: CodeProtocol}
	}
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	lock := s.idLock(req.Request.ID)
	lock.Lock()
	defer lock.Unlock()
	adm, err := s.network.Setup(ctx, *req.Request)
	if err != nil {
		return Response{
			Error:    err.Error(),
			Rejected: errors.Is(err, core.ErrRejected),
			Code:     core.ErrorCode(err),
		}
	}
	if s.testHookPreAppend != nil {
		s.testHookPreAppend(OpSetup, adm.ID)
	}
	warning, perr := s.persistOne(setupRecords(req.Request))
	if perr != nil {
		msg, code := s.rollbackSetup(adm.ID, perr)
		return Response{Error: msg, Code: code}
	}
	return Response{OK: true, Warning: warning, Admission: toWireAdmission(adm)}
}

// handleTeardown releases a connection under the same ordering discipline
// as handleSetup.
func (s *Server) handleTeardown(req Request) Response {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	lock := s.idLock(req.ID)
	lock.Lock()
	defer lock.Unlock()
	undo, known := s.network.AdmittedRequest(req.ID)
	if err := s.network.Teardown(req.ID); err != nil {
		return Response{Error: err.Error(), Code: core.ErrorCode(err)}
	}
	if s.testHookPreAppend != nil {
		s.testHookPreAppend(OpTeardown, req.ID)
	}
	var undoRec *core.ConnRequest
	if known {
		undoRec = &undo
	}
	warning, perr := s.persistOne(teardownRecords(req.ID, undoRec))
	if perr != nil {
		msg, code := s.rollbackTeardown(req.ID, undoRec, perr)
		return Response{Error: msg, Code: code}
	}
	return Response{OK: true, Warning: warning}
}

// handleFailLink fails a link, runs re-admission and journals the result.
// It holds opMu exclusively: the record captures the evicted IDs and the
// wrapped re-admissions, so no setup or teardown may slip between the
// network mutation and the append — a record appended out of order would
// replay the pre-failure routes over the degraded ones.
func (s *Server) handleFailLink(req Request) Response {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	evicted, err := s.network.FailLink(req.From, req.To)
	if err != nil {
		return Response{Error: err.Error(), Code: core.ErrorCode(err)}
	}
	report := &FailoverReport{Link: core.Link{From: req.From, To: req.To}}
	if s.failover != nil {
		report.Outcomes = s.failover(req.From, req.To, evicted)
	} else {
		for _, r := range evicted {
			report.Outcomes = append(report.Outcomes, ReadmitOutcome{
				ID: r.ID, Error: "no failover handler configured",
			})
		}
	}
	if tr := s.tracer; tr != nil {
		for _, o := range report.Outcomes {
			ev := obs.Event{Kind: obs.KindReadmit, Conn: string(o.ID)}
			if o.Attempts > 0 {
				ev.Retries = o.Attempts - 1
			}
			if o.Readmitted {
				ev.Outcome = obs.OutcomeAccepted
				ev.Crankback = o.Hops
			} else {
				ev.Outcome = obs.OutcomeRejected
			}
			tr.Trace(ev)
		}
	}
	// The journal record carries what the failure did to the admitted
	// set: the evicted IDs plus the re-admissions with their new
	// wrapped routes, read back from the network so replay restores
	// the degraded-mode routes, not the pre-failure ones.
	evictedIDs := make([]core.ConnID, 0, len(evicted))
	for _, r := range evicted {
		evictedIDs = append(evictedIDs, r.ID)
	}
	var readmitted []core.ConnRequest
	for _, o := range report.Outcomes {
		if !o.Readmitted {
			continue
		}
		if req, ok := s.network.AdmittedRequest(o.ID); ok {
			readmitted = append(readmitted, req)
		}
	}
	warning := s.persistWarn(&journal.Record{
		Op: journal.OpFailLink, From: req.From, To: req.To,
		Evicted: evictedIDs, Readmitted: readmitted,
	})
	return Response{OK: true, Warning: warning, Failover: report}
}

// handleRestoreLink clears a failed link; exclusive like handleFailLink.
func (s *Server) handleRestoreLink(req Request) Response {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if err := s.network.RestoreLink(req.From, req.To); err != nil {
		return Response{Error: err.Error(), Code: core.ErrorCode(err)}
	}
	return Response{OK: true, Warning: s.persistWarn(&journal.Record{Op: journal.OpRestoreLink, From: req.From, To: req.To})}
}

func (s *Server) handle(ctx context.Context, req Request) Response {
	switch req.Op {
	case OpSetup, OpTeardown, OpBatchSetup, OpBatchTeardown, OpFailLink, OpRestoreLink,
		OpShardPrepare, OpShardCommit, OpShardAbort, OpShardReap:
		// Standby and fenced nodes never mutate; reads, health, promote
		// and replication status stay served.
		if resp := s.writeGate(req.Op); resp != nil {
			return *resp
		}
	}
	switch req.Op {
	case OpShardPrepare, OpShardCommit, OpShardAbort, OpShardReap:
		// A stamped coordinator term below the ratchet is a superseded
		// coordinator; refuse before touching any hold.
		if resp := s.coordGate(req); resp != nil {
			return *resp
		}
	}
	switch req.Op {
	case OpSetup:
		return s.handleSetup(ctx, req)
	case OpShardPrepare:
		return s.handleShardPrepare(ctx, req)
	case OpShardCommit:
		return s.handleShardCommit(ctx, req)
	case OpShardAbort:
		return s.handleShardAbort(req)
	case OpShardReap:
		return s.handleShardReap()
	case OpShardStatus:
		return s.handleShardStatus()
	case OpTeardown:
		return s.handleTeardown(req)
	case OpBatchSetup:
		return s.handleBatchSetup(ctx, req)
	case OpBatchTeardown:
		return s.handleBatchTeardown(req)
	case OpList:
		return Response{OK: true, Connections: s.network.Connections()}
	case OpBound:
		d, err := s.network.RouteBound(req.Route, req.Priority)
		if err != nil {
			return Response{Error: err.Error(), Code: core.ErrorCode(err)}
		}
		return Response{OK: true, Bound: d}
	case OpInspect:
		ports, err := s.inspect(req.Switch)
		if err != nil {
			return Response{Error: err.Error(), Code: core.ErrorCode(err)}
		}
		return Response{OK: true, Ports: ports}
	case OpAudit:
		violations, err := s.network.Audit()
		if err != nil {
			return Response{Error: err.Error(), Code: core.ErrorCode(err)}
		}
		reports := make([]ViolationReport, 0, len(violations))
		for _, v := range violations {
			reports = append(reports, ViolationReport{
				Switch: v.Switch, Out: v.Out, Priority: v.Priority,
				Bound: v.Bound, Limit: v.Limit,
			})
		}
		return Response{OK: true, Violations: reports}
	case OpFailLink:
		return s.handleFailLink(req)
	case OpRestoreLink:
		return s.handleRestoreLink(req)
	case OpHealth:
		violations, err := s.network.Audit()
		if err != nil {
			return Response{Error: err.Error(), Code: core.ErrorCode(err)}
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		health := &HealthReport{
			Connections: len(s.network.Connections()),
			FailedLinks: s.network.FailedLinks(),
			Violations:  len(violations),
			Draining:    draining,
			Role:        s.role(),
			Epoch:       s.Epoch(),
			ShardID:     s.shard.shardID,
			Prepared:    s.preparedCount(),
		}
		if s.limiter != nil {
			st := s.limiter.Stats()
			health.Overload = &st
		}
		if s.reg != nil {
			health.Metrics = s.reg.Snapshot()
		}
		return Response{OK: true, Health: health}
	case OpPromote:
		if _, err := s.Promote(); err != nil {
			code := CodeNotDurable
			if errors.Is(err, ErrStaleEpoch) {
				code = CodeFenced
			}
			return Response{Error: err.Error(), Code: code}
		}
		return Response{OK: true, Replication: s.replicationReport()}
	case OpReplication:
		return Response{OK: true, Replication: s.replicationReport()}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op), Code: CodeUnknownOp}
	}
}

// inspect assembles port reports for one switch or, with an empty name,
// every switch carrying traffic.
func (s *Server) inspect(switchName string) ([]PortReport, error) {
	names := s.network.SwitchNames()
	if switchName != "" {
		if _, ok := s.network.Switch(switchName); !ok {
			return nil, fmt.Errorf("%w: %q", core.ErrUnknownSwitch, switchName)
		}
		names = []string{switchName}
	}
	var reports []PortReport
	for _, name := range names {
		sw, ok := s.network.Switch(name)
		if !ok {
			continue
		}
		for _, out := range sw.OutPorts() {
			for _, p := range sw.Priorities() {
				limit, _ := sw.GuaranteedBoundAt(out, p)
				soa, sof, err := sw.PortEnvelope(out, p)
				if err != nil {
					return nil, err
				}
				if soa.IsZero() {
					continue
				}
				report := PortReport{
					Switch: name, Out: out, Priority: p,
					Limit:    limit,
					Envelope: soa.Segments(),
				}
				bound, err := bitstream.DelayBound(soa, sof)
				switch {
				case errors.Is(err, bitstream.ErrUnstable):
					report.Unstable = true
				case err != nil:
					return nil, err
				default:
					report.Bound = bound
					backlog, err := bitstream.MaxBacklog(soa, sof)
					if err != nil && !errors.Is(err, bitstream.ErrUnstable) {
						return nil, err
					}
					report.Backlog = backlog
				}
				reports = append(reports, report)
			}
		}
	}
	return reports, nil
}
