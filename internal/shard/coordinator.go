package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/wire"
)

// ErrInDoubt marks a transaction whose durable decision could not be
// driven to every shard before retries ran out. Nothing is lost: the
// decision sits in the intent log and Recover re-drives it. Match with
// errors.Is; the wire front end maps it to wire.CodeInDoubt.
var ErrInDoubt = errors.New("shard: transaction in doubt")

// ErrDelayBound marks a cross-shard setup refused by the coordinator's
// own end-to-end budget check before any shard saw a prepare: the
// upstream legs' guarantees already consumed the requested bound.
var ErrDelayBound = fmt.Errorf("%w: delay budget exhausted across shards", core.ErrRejected)

// ErrRevisitBound marks a cross-shard setup whose route re-enters a
// shard it already left (a ring wrap) without stating an end-to-end
// delay bound. The revisited shard's later hops sit downstream of legs
// prepared after it, so their incoming jitter cannot be accumulated leg
// by leg; the coordinator instead charges every leg the whole
// end-to-end bound — which the request must therefore state (cacctl
// setup -delay).
var ErrRevisitBound = fmt.Errorf("%w: a route revisiting a shard needs an explicit end-to-end delay bound", core.ErrRejected)

// ErrCoordFenced marks a coordinator that observed a higher coordinator
// term on a shard: another coordinator took over, so this one refuses
// all new work. The wire front end maps it to wire.CodeFenced.
var ErrCoordFenced = errors.New("shard: coordinator fenced by a higher term")

// endpoint is the coordinator's live view of one shard pair: which
// member address it currently drives, the one connection to it that every
// caller shares (a Client is tagged and pipelined), and the reconnect
// backoff that keeps a down shard from being hammered by every request.
type endpoint struct {
	active    string
	backoff   overload.Backoff
	notBefore time.Time
	// cl is the shared connection, nil until dialled and again after a
	// drop; used is when it was last handed out.
	cl   *wire.Client
	used time.Time
	// dialing is the single-flight dial in progress while cl is nil.
	// Callers arriving meanwhile wait for it instead of dialling beside it.
	dialing *dial
}

// dial is one in-flight dial other callers wait on.
type dial struct {
	done chan struct{}
	err  error
}

// A connection idle longer than healthAfter gets a health ping of at
// most healthTimeout before it is handed out, so a silently dead peer
// costs a round trip instead of a failed operation.
const (
	healthAfter   = 30 * time.Second
	healthTimeout = time.Second
)

// errReconnectBackoff marks a dial suppressed by the per-shard backoff
// window; it is a transport-class error (retried, never definitive).
var errReconnectBackoff = errors.New("shard: reconnect backoff window open")

// backoffWindowError carries the window's remaining duration so the
// retry loop can sleep through it instead of burning its attempts
// inside it. Matches errReconnectBackoff via errors.Is.
type backoffWindowError struct {
	shard string
	wait  time.Duration
}

func (e *backoffWindowError) Error() string {
	return fmt.Sprintf("shard %s: %v for %s", e.shard, errReconnectBackoff, e.wait.Round(time.Millisecond))
}

func (e *backoffWindowError) Is(target error) bool { return target == errReconnectBackoff }

// Coordinator drives multi-hop setups across the shards of a Map
// through two-phase reserve-commit. One coordinator instance is safe
// for concurrent use; transactions are independent.
type Coordinator struct {
	m   *Map
	log *IntentLog

	// PrepareTTL bounds each prepared hold; a coordinator that dies
	// leaves holds the shards reap after this long. Defaults to
	// wire.DefaultPrepareTTL.
	PrepareTTL time.Duration
	// OpTimeout bounds each individual shard call. Defaults to 2s.
	OpTimeout time.Duration
	// Retries is how many times a failed shard call is retried (with
	// jittered exponential backoff) before giving up. Defaults to 3.
	Retries int

	// Dial opens a wire client; injectable for tests. nil means wire.Dial.
	Dial func(addr string) (*wire.Client, error)

	tracer obs.Tracer

	// epoch is the coordinator's term, read from the intent log's epoch
	// records at open (1 when none). Every shard operation is stamped
	// with it; shards ratchet the highest term seen and refuse lower
	// ones, which is how a superseded coordinator discovers it must
	// fence itself.
	epoch uint64

	mu      sync.Mutex
	fenced  bool
	ends    map[string]*endpoint // shard ID -> live endpoint state
	reg     *obs.Registry        // set by RegisterMetrics; feeds the per-shard series
	open    []*openTxn           // unresolved transactions from the log scan
	inDoubt map[string]struct{}  // transactions awaiting Recover
	// lazyDone holds, per connection, the done record of its cross-shard
	// setup while that record is queued on the intent log but not yet
	// durable. Teardown settles the entry first (see settleDone).
	lazyDone map[core.ConnID]*pendingDone

	// hook, when set, runs at named protocol boundaries; returning an
	// error abandons the transaction mid-flight, simulating a
	// coordinator crash for the fault-injection harness.
	hook func(point, txn string) error

	// shipper is the intent log's replication primary, once
	// NewIntentPrimary installed one.
	shipper atomic.Pointer[replica.Primary]
}

// NewCoordinator opens the intent log at logPath and returns a
// coordinator over m. Unresolved transactions found in the log are NOT
// driven here — call Recover before serving traffic.
func NewCoordinator(m *Map, fsys journal.FS, logPath string) (*Coordinator, error) {
	log, recs, _, err := OpenIntentLog(fsys, logPath)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		m: m, log: log,
		PrepareTTL: wire.DefaultPrepareTTL,
		OpTimeout:  2 * time.Second,
		Retries:    3,
		epoch:      log.term,
		ends:       make(map[string]*endpoint),
		inDoubt:    make(map[string]struct{}),
		lazyDone:   make(map[core.ConnID]*pendingDone),
		open:       foldIntents(recs),
	}
	for _, t := range c.open {
		c.inDoubt[t.txn] = struct{}{}
	}
	return c, nil
}

// SetTracer attaches the event sink.
func (c *Coordinator) SetTracer(tr obs.Tracer) { c.tracer = tr }

// Epoch returns the coordinator's term.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// IntentLog exposes the underlying decision log (the replication
// source for a standby coordinator).
func (c *Coordinator) IntentLog() *IntentLog { return c.log }

// Fence makes the coordinator refuse all new work: another coordinator
// was promoted at a higher term. One-way.
func (c *Coordinator) Fence() {
	c.mu.Lock()
	already := c.fenced
	c.fenced = true
	c.mu.Unlock()
	if !already && c.tracer != nil {
		c.tracer.Trace(obs.Event{Kind: obs.KindFence, Epoch: c.epoch})
	}
}

// Fenced reports whether the coordinator has fenced itself.
func (c *Coordinator) Fenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// RegisterMetrics exposes the coordinator's live gauges on reg: the
// number of in-doubt transactions outstanding, the coordinator term,
// (updated by Status) each shard pair's standby replication lag, the
// intent log's group commits and the connections dialled to each shard.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
	fsync := reg.Histogram("atmcac_intent_fsync_seconds", obs.DefLatencyBuckets)
	reg.Help("atmcac_intent_fsync_seconds", "Intent-log fsyncs, one per group commit.")
	groupOps := reg.Histogram("atmcac_intent_group_commit_ops", obs.DefCountBuckets)
	reg.Help("atmcac_intent_group_commit_ops", "Intent records made durable by one group-commit fsync.")
	c.log.SetObserver(func(st journal.GroupStats) {
		if st.Err == nil {
			fsync.Observe(st.Fsync.Seconds())
			groupOps.Observe(float64(len(st.Frames)))
		}
	})
	reg.Help("atmcac_coord_shard_dials_total", "Connections the coordinator dialled to each shard's active member; 1 while the shared connection holds.")
	reg.GaugeFunc("atmcac_shard_indoubt_outstanding", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.inDoubt))
	})
	reg.Help("atmcac_shard_indoubt_outstanding", "In-doubt cross-shard transactions awaiting Recover.")
	reg.GaugeFunc("atmcac_coord_epoch", func() float64 { return float64(c.epoch) })
	reg.Help("atmcac_coord_epoch", "Coordinator replication term.")
	reg.GaugeFunc("atmcac_coord_standby_lag_records", func() float64 {
		if p := c.shipper.Load(); p != nil {
			return float64(p.Unacked())
		}
		return 0
	})
	reg.Help("atmcac_coord_standby_lag_records", "Intent records shipped to but not yet acknowledged by the standby coordinator.")
	reg.Help("atmcac_shard_standby_lag_records", "Per shard pair: records shipped to but not yet acknowledged by the shard's standby, as of the last status poll.")
}

// SetTestHook installs the crash-boundary hook (fault injection only).
func (c *Coordinator) SetTestHook(h func(point, txn string) error) { c.hook = h }

// Map returns the coordinator's shard map.
func (c *Coordinator) Map() *Map { return c.m }

// InDoubt lists the transactions with a durable intent not yet driven to
// every shard, oldest first.
func (c *Coordinator) InDoubt() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.inDoubt))
	for _, t := range c.open {
		if _, ok := c.inDoubt[t.txn]; ok {
			out = append(out, t.txn)
		}
	}
	return out
}

// Close closes the shard connections and the intent log, writing out any
// record still queued on it first.
func (c *Coordinator) Close() error {
	c.closeConns()
	return c.log.Close()
}

// Kill is Close as a process death would do it: records queued on the
// intent log but not yet written are lost. Fault injection only.
func (c *Coordinator) Kill() {
	c.closeConns()
	_ = c.log.Drop()
}

// closeConns closes every endpoint's shared connection; a later call
// dials afresh.
func (c *Coordinator) closeConns() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ep := range c.ends {
		if ep.cl != nil {
			_ = ep.cl.Close()
			ep.cl = nil
		}
	}
}

// endpointLocked returns (creating on first use) the live endpoint state
// for a shard. Caller holds c.mu.
func (c *Coordinator) endpointLocked(info Info) *endpoint {
	ep, ok := c.ends[info.ID]
	if !ok {
		ep = &endpoint{active: info.Addr}
		c.ends[info.ID] = ep
	}
	return ep
}

// dialer returns the injectable dial function.
func (c *Coordinator) dialer() func(string) (*wire.Client, error) {
	if c.Dial != nil {
		return c.Dial
	}
	return wire.Dial
}

// opTimeout returns the per-call timeout, defaulted.
func (c *Coordinator) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return 2 * time.Second
}

// probeStatus dials addr and fetches its shard status report, abandoning
// the whole attempt — goroutine, dial and all — once the op timeout (or
// ctx) lapses. The injected dialer has no deadline of its own, so a
// blackholed address would otherwise stall the caller for the OS connect
// timeout; here it just reports unreachable.
func (c *Coordinator) probeStatus(ctx context.Context, addr string) (*wire.ShardStatusReport, bool) {
	pctx, cancel := context.WithTimeout(ctx, c.opTimeout())
	defer cancel()
	ch := make(chan *wire.ShardStatusReport, 1)
	go func() {
		var rep *wire.ShardStatusReport
		if cl, err := c.dialer()(addr); err == nil {
			if r, serr := cl.ShardStatus(pctx); serr == nil {
				rep = r
			}
			_ = cl.Close()
		}
		ch <- rep
	}()
	select {
	case rep := <-ch:
		return rep, rep != nil
	case <-pctx.Done():
		return nil, false
	}
}

// client returns the shard's shared connection, or else dials it. Dials
// are single-flight: one caller dials, the rest wait (honouring their
// ctx) and then share what it got, or fail with its error. c.mu is never
// held across a dial or a ping. A live connection is always handed out,
// health-pinged first when it sat idle past healthAfter; the reconnect
// backoff window gates fresh dials only (errReconnectBackoff,
// transport-class). A failed dial opens the jittered window, so a down
// shard is not hammered by every request; a successful one clears it,
// stamps the coordinator term on the connection and counts in
// atmcac_coord_shard_dials_total.
func (c *Coordinator) client(ctx context.Context, info Info) (*wire.Client, error) {
	for {
		c.mu.Lock()
		ep := c.endpointLocked(info)
		if cl := ep.cl; cl != nil {
			now := time.Now()
			stale := now.Sub(ep.used) > healthAfter
			ep.used = now // concurrent callers skip the ping this one is about to make
			c.mu.Unlock()
			if stale && !healthy(ctx, cl) {
				if err := ctx.Err(); err != nil {
					return nil, err // the caller gave up; that says nothing of cl
				}
				c.drop(info, cl)
				continue
			}
			return cl, nil
		}
		if d := ep.dialing; d != nil {
			c.mu.Unlock()
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
		if wait := time.Until(ep.notBefore); wait > 0 {
			c.mu.Unlock()
			return nil, &backoffWindowError{shard: info.ID, wait: wait}
		}
		d := &dial{done: make(chan struct{})}
		ep.dialing = d
		addr := ep.active
		reg := c.reg
		c.mu.Unlock()

		cl, err := c.dialer()(addr)
		if err == nil {
			cl.SetShardCoordEpoch(c.epoch)
			if reg != nil {
				reg.Counter("atmcac_coord_shard_dials_total", obs.L("shard", info.ID)).Inc()
			}
		}
		c.mu.Lock()
		ep.dialing = nil
		moved := err == nil && (ep.cl != nil || ep.active != addr)
		switch {
		case err != nil:
			ep.notBefore = time.Now().Add(ep.backoff.Next(0))
			err = fmt.Errorf("shard %s: dial %s: %w", info.ID, addr, err)
		case !moved:
			ep.cl, ep.used = cl, time.Now()
			ep.backoff, ep.notBefore = overload.Backoff{}, time.Time{}
		}
		d.err = err
		close(d.done)
		c.mu.Unlock()
		if !moved {
			return cl, err
		}
		// A failover moved the endpoint on while this dial ran; the next
		// turn hands out the connection it installed.
		_ = cl.Close()
	}
}

// healthy pings cl, bounded by healthTimeout.
func healthy(ctx context.Context, cl *wire.Client) bool {
	hctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	_, err := cl.Health(hctx)
	return err == nil
}

// drop closes cl after a transport error. If cl is the shard's shared
// connection it goes for everyone: the calls in flight on it fail the
// same way, each retries, and the next one redials. A drop of a
// connection that was already replaced leaves its replacement alone, so
// however many callers report one failure, it costs one redial.
func (c *Coordinator) drop(info Info, cl *wire.Client) {
	c.mu.Lock()
	if ep := c.ends[info.ID]; ep != nil && ep.cl == cl {
		ep.cl = nil
	}
	c.mu.Unlock()
	_ = cl.Close()
}

// failover re-points a shard pair at its surviving member after the
// active one stopped answering: it probes the other member, promotes it
// if it is still a standby (the promotion bumps the shard epoch, so the
// existing stale-prepare fencing shuts the old primary's holds out),
// and installs its probe connection as the endpoint's client. The old
// primary needs no message from here — when it reconnects to the
// replication stream or a client, the higher epoch it observes fences it. Returns true when the endpoint now
// points at a live promoted member.
//
// A transport error alone does not prove the active member is dead — it
// may merely be slow, or the failed call's per-attempt timeout too
// tight. Promotion fences every prepared hold on the old primary, so
// before promoting anything the current active is probed once more: a
// member that still answers as a live primary is left alone (the caller
// re-dials it instead), and only one that fails the probe is failed
// over.
func (c *Coordinator) failover(info Info) bool {
	if info.Standby == "" {
		return false
	}
	c.mu.Lock()
	ep := c.endpointLocked(info)
	cur := ep.active
	c.mu.Unlock()
	if rep, ok := c.probeStatus(context.Background(), cur); ok && rep.Role == "primary" {
		return false
	}
	cand := info.Standby
	if cur == info.Standby {
		cand = info.Addr
	}
	cl, err := c.dialer()(cand)
	if err != nil {
		return false
	}
	fctx, cancel := context.WithTimeout(context.Background(), c.opTimeout())
	defer cancel()
	rep, err := cl.Replication(fctx)
	if err != nil || rep.Role == "fenced" {
		_ = cl.Close()
		return false
	}
	if rep.Role == "standby" {
		if rep, err = cl.Promote(fctx); err != nil {
			_ = cl.Close()
			return false
		}
	}
	cl.SetShardCoordEpoch(c.epoch)
	// The probe connection to the promoted member becomes the shared one;
	// the old connection points at the old member, whose holds the
	// promotion fenced anyway.
	c.mu.Lock()
	old := ep.cl
	ep.active = cand
	ep.cl, ep.used = cl, time.Now()
	ep.backoff, ep.notBefore = overload.Backoff{}, time.Time{}
	c.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	if c.tracer != nil {
		c.tracer.Trace(obs.Event{
			Kind: obs.KindShardFailover, Op: info.ID, Outcome: obs.OutcomeOK, Epoch: rep.Epoch,
		})
	}
	return true
}

// ActiveAddr returns the member address the coordinator currently drives for a
// shard (the primary until a failover re-points it).
func (c *Coordinator) ActiveAddr(shardID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ep, ok := c.ends[shardID]; ok {
		return ep.active
	}
	if info, ok := c.m.Lookup(shardID); ok {
		return info.Addr
	}
	return ""
}

// ResetEndpoint points a shard's endpoint back at addr, closing its
// connection and clearing its backoff — a test and benchmark hook for
// exercising the failover path repeatedly.
func (c *Coordinator) ResetEndpoint(shardID, addr string) {
	info, ok := c.m.Lookup(shardID)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.endpointLocked(info)
	if ep.cl != nil {
		_ = ep.cl.Close()
	}
	ep.active, ep.cl = addr, nil
	ep.backoff, ep.notBefore = overload.Backoff{}, time.Time{}
}

// call runs one shard operation with per-attempt timeout and bounded
// jittered retry over the shard's shared connection. A typed server
// answer (RemoteError) is definitive and never retried; a transport
// error drops the connection, which fails every call in flight on it the
// same way, and each retries. A caller that gives up abandons one tag
// and leaves the connection, which other callers are using, in place.
func (c *Coordinator) call(ctx context.Context, info Info, op string, fn func(ctx context.Context, cl *wire.Client) error) error {
	var b overload.Backoff
	for attempt := 0; ; attempt++ {
		cl, err := c.client(ctx, info)
		if err == nil {
			opCtx, cancel := ctx, context.CancelFunc(nil)
			if c.OpTimeout > 0 {
				opCtx, cancel = context.WithTimeout(ctx, c.OpTimeout)
			}
			err = fn(opCtx, cl)
			if cancel != nil {
				cancel()
			}
		}
		if err == nil {
			return nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			if re.Code == wire.CodeStaleCoordinator {
				// The shard has seen a higher coordinator term: another
				// coordinator took over. Stop driving anything.
				c.Fence()
				return fmt.Errorf("%w: shard %s: %s: %v", ErrCoordFenced, info.ID, op, err)
			}
			return err
		}
		if ctx.Err() != nil {
			// The caller canceled or its deadline lapsed; that says nothing
			// about the member's health, and promoting the standby of a
			// live primary would fence every prepared hold on it. Stop
			// without touching the pair.
			return fmt.Errorf("shard %s: %s: %w", info.ID, op, ctx.Err())
		}
		var retryAfter time.Duration
		var oe *wire.OverloadError
		var bw *backoffWindowError
		failedOver := false
		switch {
		case errors.As(err, &oe):
			retryAfter = oe.RetryAfter
		case errors.As(err, &bw):
			// Sleep through the remaining reconnect window: the attempt
			// budget must buy actual dials, not spins inside the window.
			retryAfter = bw.wait
		default:
			// Transport error, not a definitive refusal (a per-attempt
			// timeout included: a blackholed peer shows no other symptom):
			// the active member may be dead. Drop the connection and, for a
			// replicated pair, try the other member — promoting it if it is
			// still a standby — so in-flight transactions finish on the
			// survivor.
			if cl != nil {
				c.drop(info, cl)
			}
			failedOver = c.failover(info)
		}
		if attempt >= c.Retries {
			return fmt.Errorf("shard %s: %s: retries exhausted: %w", info.ID, op, err)
		}
		if failedOver {
			continue // the endpoint points at a live member; retry immediately
		}
		if serr := overload.Sleep(ctx, b.Next(retryAfter)); serr != nil {
			return fmt.Errorf("shard %s: %s: %w", info.ID, op, serr)
		}
	}
}

// runHook fires the fault-injection boundary, if installed.
func (c *Coordinator) runHook(point, txn string) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(point, txn)
}

// subRequest derives one leg's shard request. On a chain route (every
// shard's hops contiguous in path order) a leg's SourceCDV carries the
// worst-case delay variation accumulated upstream: the sum of the
// guaranteed delays of the legs prepared before it — a conservative
// over-estimate of any accumulation policy. On an interleaved route (a
// shard revisited after the path left it) part of a merged leg sits
// downstream of legs prepared later, whose guarantees are unknown at
// prepare time; there every leg is charged the whole end-to-end bound
// instead — sound because the remaining-budget checks refuse any
// admission whose accumulated guarantees exceed that bound, so no hop's
// true upstream jitter can. Either way DelayBound is the remaining
// end-to-end budget.
func subRequest(req core.ConnRequest, leg Segment, upstream float64, interleaved bool) (core.ConnRequest, error) {
	sub := req
	sub.Route = leg.Route
	sub.SourceCDV = req.SourceCDV + upstream
	if interleaved {
		if req.DelayBound <= 0 {
			return sub, ErrRevisitBound
		}
		sub.SourceCDV = req.SourceCDV + req.DelayBound
	}
	if req.DelayBound > 0 {
		remaining := req.DelayBound - upstream
		if remaining <= 0 {
			return sub, ErrDelayBound
		}
		sub.DelayBound = remaining
	}
	return sub, nil
}

// Setup admits req. A route owned by a single shard is forwarded as an
// ordinary setup; a cross-shard route runs the full two-phase protocol
// over its per-shard legs. An interleaved route (a ring wrap revisiting
// a shard) needs an end-to-end delay bound — refused up front, before
// any begin record or prepare.
func (c *Coordinator) Setup(ctx context.Context, req core.ConnRequest) (*wire.Admission, error) {
	if c.Fenced() {
		return nil, fmt.Errorf("%w: refusing setup %q", ErrCoordFenced, req.ID)
	}
	legs, interleaved, err := c.m.Legs(req.Route)
	if err != nil {
		return nil, err
	}
	if len(legs) == 1 {
		var adm *wire.Admission
		err := c.call(ctx, legs[0].Shard, wire.OpSetup, func(ctx context.Context, cl *wire.Client) error {
			var serr error
			adm, serr = cl.Setup(ctx, req)
			return serr
		})
		return adm, err
	}
	if interleaved && req.DelayBound <= 0 {
		return nil, fmt.Errorf("%w (connection %q)", ErrRevisitBound, req.ID)
	}
	return c.setupCrossShard(ctx, req, legs, interleaved)
}

func (c *Coordinator) traceTxn(kind obs.Kind, txn string, conn core.ConnID, outcome, code string, start time.Time) {
	if c.tracer != nil {
		c.tracer.Trace(obs.Event{
			Kind: kind, Conn: string(conn), Op: txn, Outcome: outcome, Code: code,
			Duration: time.Since(start),
		})
	}
}

func (c *Coordinator) setupCrossShard(ctx context.Context, req core.ConnRequest, legs []Segment, interleaved bool) (*wire.Admission, error) {
	start := time.Now()
	txn := fmt.Sprintf("x%d-%s", c.log.ReserveSeq(), req.ID)
	marks := make([]ShardMark, len(legs))
	for i := range legs {
		marks[i] = ShardMark{Shard: legs[i].Shard.ID}
	}
	if err := c.log.Append(&IntentRecord{State: IntentBegin, Txn: txn, Request: &req, Shards: marks}); err != nil {
		return nil, err
	}
	if err := c.runHook("pre-prepare", txn); err != nil {
		return nil, err
	}

	// Phase 1: prepares. A chain route threads the accumulated
	// guaranteed delay into each downstream leg's SourceCDV and
	// remaining bound, so its prepares are inherently sequential. An
	// interleaved route already charges every leg the whole end-to-end
	// bound (see subRequest) — no leg depends on another's answer, so
	// its prepares fan out concurrently and the end-to-end budget is
	// enforced afterwards by summing the guarantees the shards answered
	// with.
	subs := make([]core.ConnRequest, len(legs))
	reps := make([]*wire.PrepareReport, len(legs))
	adm := &wire.Admission{ID: req.ID}
	if interleaved {
		// Every leg's sub-request derives from upstream 0: the full
		// bound remains at each shard. DelayBound > 0 was checked before
		// the begin record, so subRequest cannot fail here.
		for i, leg := range legs {
			sub, err := subRequest(req, leg, 0, true)
			if err != nil {
				c.abortTxn(ctx, txn, req, legs[:i], subs[:i])
				c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeRejected, core.CodeDelayBound, start)
				return nil, fmt.Errorf("%w (connection %q at shard %s)", err, req.ID, leg.Shard.ID)
			}
			subs[i] = sub
		}
		errs := make([]error, len(legs))
		var wg sync.WaitGroup
		for i := range legs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = c.call(ctx, legs[i].Shard, wire.OpShardPrepare, func(ctx context.Context, cl *wire.Client) error {
					var perr error
					reps[i], perr = cl.ShardPrepare(ctx, txn, subs[i], c.PrepareTTL)
					return perr
				})
			}(i)
		}
		wg.Wait()
		for i, leg := range legs {
			if errs[i] != nil {
				// Some sibling prepares may have landed; shard-abort is
				// idempotent, so abort every leg.
				c.abortTxn(ctx, txn, req, legs, subs)
				c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeRejected, core.ErrorCode(errs[i]), start)
				return nil, fmt.Errorf("shard %s refused prepare for %q: %w", leg.Shard.ID, req.ID, errs[i])
			}
		}
		total := 0.0
		for i := range legs {
			total += reps[i].Admission.EndToEndGuaranteed
		}
		if total > req.DelayBound {
			c.abortTxn(ctx, txn, req, legs, subs)
			c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeRejected, core.CodeDelayBound, start)
			return nil, fmt.Errorf("%w (connection %q: guaranteed %.4g over bound %.4g)",
				ErrDelayBound, req.ID, total, req.DelayBound)
		}
	} else {
		upstream := 0.0
		for i, leg := range legs {
			sub, err := subRequest(req, leg, upstream, false)
			if err != nil {
				c.abortTxn(ctx, txn, req, legs[:i], subs[:i])
				c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeRejected, core.CodeDelayBound, start)
				return nil, fmt.Errorf("%w (connection %q at shard %s)", err, req.ID, leg.Shard.ID)
			}
			subs[i] = sub
			err = c.call(ctx, leg.Shard, wire.OpShardPrepare, func(ctx context.Context, cl *wire.Client) error {
				var perr error
				reps[i], perr = cl.ShardPrepare(ctx, txn, subs[i], c.PrepareTTL)
				return perr
			})
			if err != nil {
				c.abortTxn(ctx, txn, req, legs[:i], subs[:i])
				c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeRejected, core.ErrorCode(err), start)
				return nil, fmt.Errorf("shard %s refused prepare for %q: %w", leg.Shard.ID, req.ID, err)
			}
			upstream += reps[i].Admission.EndToEndGuaranteed
		}
	}
	for i := range legs {
		marks[i].Epoch = reps[i].Epoch
		adm.PerHopGuaranteed = append(adm.PerHopGuaranteed, reps[i].Admission.PerHopGuaranteed...)
		adm.PerHopComputed = append(adm.PerHopComputed, reps[i].Admission.PerHopComputed...)
		adm.EndToEndComputed += reps[i].Admission.EndToEndComputed
		adm.EndToEndGuaranteed += reps[i].Admission.EndToEndGuaranteed
	}
	if err := c.runHook("post-prepare", txn); err != nil {
		return nil, err
	}

	// The decision point: the commit intent (with the prepare epochs) is
	// durable before any shard hears "commit".
	if err := c.runHook("pre-commit", txn); err != nil {
		return nil, err
	}
	if err := c.log.Append(&IntentRecord{State: IntentCommit, Txn: txn, Shards: marks}); err != nil {
		if errors.Is(err, ErrNotReplicated) {
			// The commit record is durable here and possibly in the
			// standby's log too — only the ack was lost. Flipping to abort
			// would diverge: a standby that promotes reads a log ending in
			// this commit and re-drives it, re-admitting a connection whose
			// shards we just aborted. Leave the transaction in doubt
			// instead; whichever coordinator survives resolves it through
			// Recover from its own durable decision.
			c.markInDoubt(txn, IntentCommit, req, marks)
			c.traceTxn(obs.KindInDoubt, txn, req.ID, obs.OutcomeError, wire.CodeInDoubt, start)
			return nil, fmt.Errorf("%w: commit intent for %q durable but unreplicated: %v", ErrInDoubt, txn, err)
		}
		// Not durable anywhere: the commit never happened, presumed abort.
		c.abortTxn(ctx, txn, req, legs, subs)
		return nil, fmt.Errorf("commit intent for %q not durable: %w", txn, err)
	}

	// Phase 2: drive the commit everywhere, all legs at once — the
	// decision is durable and no leg's commit depends on another's answer.
	errs := make([]error, len(legs))
	var hookErr error
	var firstCommitted sync.Once
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.call(ctx, legs[i].Shard, wire.OpShardCommit, func(ctx context.Context, cl *wire.Client) error {
				_, _, cerr := cl.ShardCommit(ctx, txn, subs[i], marks[i].Epoch)
				return cerr
			})
			if errs[i] == nil {
				firstCommitted.Do(func() { hookErr = c.runHook("mid-commit", txn) })
			}
		}(i)
	}
	wg.Wait()
	if hookErr != nil {
		c.markInDoubt(txn, IntentCommit, req, marks)
		return nil, hookErr
	}
	var undelivered error
	for i, leg := range legs {
		if errs[i] == nil {
			continue
		}
		if re, ok := refusedCommit(errs[i]); ok {
			// A definitive refusal (hold expired and capacity gone, or a
			// fenced prepare). The client was never acked, so flip the
			// decision: abort everywhere, unwinding the shards that
			// already committed.
			c.abortTxn(ctx, txn, req, legs, subs)
			c.traceTxn(obs.KindShardAbort, txn, req.ID, obs.OutcomeError, re.Code, start)
			return nil, fmt.Errorf("commit of %q flipped to abort: %w", txn, errs[i])
		}
		if undelivered == nil {
			undelivered = fmt.Errorf("%w: %q commit durable but unconfirmed by shard %s: %v",
				ErrInDoubt, txn, leg.Shard.ID, errs[i])
		}
	}
	if undelivered != nil {
		// Transport failure with retries exhausted, or a shard whose
		// standby did not confirm the commit: the commit stands (it is
		// durable) but did not land everywhere — in doubt until Recover
		// re-drives it.
		c.markInDoubt(txn, IntentCommit, req, marks)
		c.traceTxn(obs.KindInDoubt, txn, req.ID, obs.OutcomeError, wire.CodeInDoubt, start)
		return nil, undelivered
	}
	if err := c.runHook("post-commit", txn); err != nil {
		c.markInDoubt(txn, IntentCommit, req, marks)
		return nil, err
	}
	c.queueDone(txn, req.ID)
	c.traceTxn(obs.KindShardCommit, txn, req.ID, obs.OutcomeOK, "", start)
	return adm, nil
}

// pendingDone is the done record of one acked cross-shard setup while it
// waits on the intent log's queue.
type pendingDone struct {
	txn     string
	settled chan struct{} // closed once err is final
	err     error
}

// queueDone closes txn without making the setup wait for another fsync:
// the done record rides the intent log's next group commit. Losing it
// costs an idempotent re-drive on the next recovery — as long as the
// connection is still there to answer "commit already applied". A
// re-driven commit that finds the connection released re-admits it
// through full CAC (wire.handleShardCommit's recovery path), which would
// resurrect what the client tore down; so the record is remembered per
// connection until durable, and Teardown settles it first.
func (c *Coordinator) queueDone(txn string, id core.ConnID) {
	pd := &pendingDone{txn: txn, settled: make(chan struct{})}
	c.mu.Lock()
	c.lazyDone[id] = pd
	c.mu.Unlock()
	after := func(err error) {
		// Durable here is enough: an unacknowledged ship detached the
		// standby coordinator, and its catch-up reads the record from
		// the file like any other written while it was away.
		if err != nil && !errors.Is(err, ErrNotReplicated) {
			pd.err = err
		} else {
			c.forgetDone(id, pd)
		}
		close(pd.settled)
	}
	if err := c.log.appendLazy(&IntentRecord{State: IntentDone, Txn: txn}, after); err != nil {
		after(err)
	}
}

// forgetDone drops id's entry once pd is durable, unless a later setup
// under the same ID has replaced it.
func (c *Coordinator) forgetDone(id core.ConnID, pd *pendingDone) {
	c.mu.Lock()
	if c.lazyDone[id] == pd {
		delete(c.lazyDone, id)
	}
	c.mu.Unlock()
}

// settleDone returns once the done record of id's setup, if one is still
// queued, is durable — flushing the queue rather than waiting for the
// next setup to come along, and writing the record again if its group
// failed.
func (c *Coordinator) settleDone(id core.ConnID) error {
	c.mu.Lock()
	pd := c.lazyDone[id]
	c.mu.Unlock()
	if pd == nil {
		return nil
	}
	c.log.Flush()
	<-pd.settled
	if pd.err == nil {
		return nil
	}
	err := c.log.Append(&IntentRecord{State: IntentDone, Txn: pd.txn})
	if err != nil && !errors.Is(err, ErrNotReplicated) {
		return fmt.Errorf("done record of %q not durable: %w", pd.txn, err)
	}
	c.forgetDone(id, pd)
	return nil
}

// abortTxn makes the abort decision durable (best effort — presumed
// abort means a lost abort record recovers identically) and drives it to
// the given shards, unwinding prepares and commits alike. segs may be
// longer than subs (the flip can happen before every leg's sub-request
// was derived); the abort for such a leg only needs the fields the
// shard's equivalence check reads — ID, priority and the leg's route —
// so they are derived from the original request. Shards it cannot reach
// leave the transaction in doubt for Recover; it reports whether every
// shard acknowledged.
func (c *Coordinator) abortTxn(ctx context.Context, txn string, req core.ConnRequest, segs []Segment, subs []core.ConnRequest) bool {
	_ = c.log.Append(&IntentRecord{State: IntentAbort, Txn: txn})
	allOK := true
	for i, seg := range segs {
		sub := req
		sub.Route = seg.Route
		if i < len(subs) {
			sub = subs[i]
		}
		err := c.call(ctx, seg.Shard, wire.OpShardAbort, func(ctx context.Context, cl *wire.Client) error {
			return cl.ShardAbort(ctx, txn, &sub)
		})
		if err != nil {
			allOK = false
		}
	}
	if allOK {
		_ = c.log.Append(&IntentRecord{State: IntentDone, Txn: txn})
	} else {
		var marks []ShardMark
		for _, seg := range segs {
			marks = append(marks, ShardMark{Shard: seg.Shard.ID})
		}
		c.markInDoubt(txn, IntentAbort, req, marks)
	}
	return allOK
}

// markInDoubt records an unresolved transaction for Recover. state is
// the durable decision (IntentCommit or IntentAbort) so a same-process
// Recover drives the same direction a restarted one would read from the
// log — in particular a commit that flipped to abort must not be
// re-driven as a commit.
func (c *Coordinator) markInDoubt(txn, state string, req core.ConnRequest, marks []ShardMark) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inDoubt[txn] = struct{}{}
	for _, t := range c.open {
		if t.txn == txn {
			t.state = state
			return
		}
	}
	// State is re-derived from the log on a restart; this in-memory entry
	// only feeds a same-process Recover call.
	c.open = append(c.open, &openTxn{txn: txn, state: state, request: &req, marks: marks})
}

// RecoverReport summarizes intent-log resolution.
type RecoverReport struct {
	// Committed transactions had a durable commit intent re-driven to
	// every shard.
	Committed []string
	// Aborted transactions were released everywhere: begins with no
	// decision (presumed abort), durable aborts, and commits flipped
	// because a shard's hold expired and its capacity was gone.
	Aborted []string
	// InDoubt transactions still have an unreachable shard; call Recover
	// again once it returns.
	InDoubt []string
}

// Recover resolves every unresolved transaction in the intent log: a
// begin with no decision aborts everywhere (presumed abort), a commit
// with no done is re-driven (idempotently — shards answer "commit
// already applied"), an abort with no done is re-driven. It must run
// before the coordinator serves new setups after a restart.
func (c *Coordinator) Recover(ctx context.Context) (*RecoverReport, error) {
	c.mu.Lock()
	pending := make([]*openTxn, len(c.open))
	copy(pending, c.open)
	c.mu.Unlock()
	rep := &RecoverReport{}
	for _, t := range pending {
		if t.request == nil {
			// A decision record with no surviving begin (should not
			// happen: begin is appended first and the log replays in
			// order). Nothing can be driven without the request.
			rep.InDoubt = append(rep.InDoubt, t.txn)
			continue
		}
		legs, interleaved, err := c.m.Legs(t.request.Route)
		if err != nil {
			return rep, fmt.Errorf("recover %q: %w", t.txn, err)
		}
		// The state can flip under c.mu (a concurrent abort marking the
		// transaction in doubt), so read it under the lock.
		c.mu.Lock()
		state := t.state
		c.mu.Unlock()
		switch state {
		case IntentCommit:
			ok, flipped, err := c.redriveCommit(ctx, t, legs, interleaved)
			switch {
			case err != nil:
				rep.InDoubt = append(rep.InDoubt, t.txn)
				continue
			case flipped:
				rep.Aborted = append(rep.Aborted, t.txn)
			case ok:
				rep.Committed = append(rep.Committed, t.txn)
			}
		default: // begin (presumed abort) or an explicit abort
			if !c.redriveAbort(ctx, t, legs) {
				rep.InDoubt = append(rep.InDoubt, t.txn)
				continue
			}
			rep.Aborted = append(rep.Aborted, t.txn)
		}
		c.resolve(t.txn)
	}
	return rep, nil
}

// resolve drops a transaction from the unresolved set.
func (c *Coordinator) resolve(txn string) {
	c.mu.Lock()
	delete(c.inDoubt, txn)
	for i, t := range c.open {
		if t.txn == txn {
			c.open = append(c.open[:i], c.open[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// epochFor returns the recorded prepare epoch for a shard, zero if none.
func epochFor(marks []ShardMark, shardID string) uint64 {
	for _, m := range marks {
		if m.Shard == shardID {
			return m.Epoch
		}
	}
	return 0
}

// refusedCommit reports whether a commit leg's error is a definitive
// refusal. A not-replicated answer is not one: the shard's commit record
// is durable there and its standby may hold and apply it, so flipping to
// abort could contradict a promoted standby. Like a transport error, it
// leaves the commit in doubt for Recover to re-drive.
func refusedCommit(err error) (*wire.RemoteError, bool) {
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code != wire.CodeNotReplicated {
		return re, true
	}
	return nil, false
}

// redriveCommit pushes a durable commit decision to every shard,
// re-deriving each leg's delay budget from the admissions the shards
// answer with. A definitive refusal (expired hold, fenced prepare)
// flips the transaction to abort-everywhere — safe because the client
// was never acked. A transport failure or a not-replicated answer
// leaves it in doubt.
func (c *Coordinator) redriveCommit(ctx context.Context, t *openTxn, legs []Segment, interleaved bool) (ok, flipped bool, err error) {
	req := *t.request
	upstream := make([]float64, len(legs)+1)
	subs := make([]core.ConnRequest, len(legs))
	for i, leg := range legs {
		sub, serr := subRequest(req, leg, upstream[i], interleaved)
		if serr != nil {
			if !c.abortTxn(ctx, t.txn, req, legs, subs[:i]) {
				return false, false, fmt.Errorf("%w: abort of flipped %q undelivered", ErrInDoubt, t.txn)
			}
			return false, true, nil
		}
		subs[i] = sub
		var adm *wire.Admission
		cerr := c.call(ctx, leg.Shard, wire.OpShardCommit, func(ctx context.Context, cl *wire.Client) error {
			var e error
			adm, _, e = cl.ShardCommit(ctx, t.txn, subs[i], epochFor(t.marks, leg.Shard.ID))
			return e
		})
		if cerr != nil {
			if _, ok := refusedCommit(cerr); ok {
				if !c.abortTxn(ctx, t.txn, req, legs, subs[:i+1]) {
					return false, false, fmt.Errorf("%w: abort of flipped %q undelivered", ErrInDoubt, t.txn)
				}
				return false, true, nil
			}
			return false, false, cerr
		}
		guaranteed := 0.0
		if adm != nil {
			guaranteed = adm.EndToEndGuaranteed
		}
		upstream[i+1] = upstream[i] + guaranteed
	}
	_ = c.log.Append(&IntentRecord{State: IntentDone, Txn: t.txn})
	return true, false, nil
}

// redriveAbort pushes an abort decision to every shard; it reports
// whether all of them acknowledged.
func (c *Coordinator) redriveAbort(ctx context.Context, t *openTxn, segs []Segment) bool {
	req := *t.request
	allOK := true
	for _, seg := range segs {
		sub := req
		sub.Route = seg.Route
		err := c.call(ctx, seg.Shard, wire.OpShardAbort, func(ctx context.Context, cl *wire.Client) error {
			return cl.ShardAbort(ctx, t.txn, &sub)
		})
		if err != nil {
			allOK = false
		}
	}
	if allOK {
		_ = c.log.Append(&IntentRecord{State: IntentAbort, Txn: t.txn})
		_ = c.log.Append(&IntentRecord{State: IntentDone, Txn: t.txn})
	}
	return allOK
}

// Teardown releases a connection on every shard that carries a segment
// of it. Without the route at hand it broadcasts — concurrently, since
// the shards are independent — tolerating shards that never saw the
// connection. A cross-shard setup's done record still queued on the
// intent log is made durable first (see queueDone).
func (c *Coordinator) Teardown(ctx context.Context, id core.ConnID) error {
	if c.Fenced() {
		return fmt.Errorf("%w: refusing teardown %q", ErrCoordFenced, id)
	}
	if err := c.settleDone(id); err != nil {
		return fmt.Errorf("teardown %q: %w", id, err)
	}
	shards := c.m.Shards()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.call(ctx, shards[i], wire.OpTeardown, func(ctx context.Context, cl *wire.Client) error {
				return cl.Teardown(ctx, id)
			})
		}(i)
	}
	wg.Wait()
	found := false
	for i, info := range shards {
		switch err := errs[i]; {
		case err == nil:
			found = true
		default:
			var re *wire.RemoteError
			if errors.As(err, &re) && re.Code == core.CodeUnknownConn {
				continue
			}
			return fmt.Errorf("teardown %q on shard %s: %w", id, info.ID, err)
		}
	}
	if !found {
		return fmt.Errorf("%w: connection %q on no shard", core.ErrUnknownConn, id)
	}
	return nil
}

// List returns the union of the shards' admitted connections (a
// cross-shard connection appears once). The shards are asked
// concurrently and their answers merged in map order.
func (c *Coordinator) List(ctx context.Context) ([]core.ConnID, error) {
	shards := c.m.Shards()
	lists := make([][]core.ConnID, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.call(ctx, shards[i], wire.OpList, func(ctx context.Context, cl *wire.Client) error {
				var lerr error
				lists[i], lerr = cl.List(ctx)
				return lerr
			})
		}(i)
	}
	wg.Wait()
	seen := make(map[core.ConnID]struct{})
	var out []core.ConnID
	for i, info := range shards {
		if errs[i] != nil {
			return nil, fmt.Errorf("list on shard %s: %w", info.ID, errs[i])
		}
		for _, id := range lists[i] {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// Status collects every shard's status report, in map order. For a
// replicated pair the report carries both members: the active member's
// role, epoch and holds, plus the other member's role and epoch probed
// best-effort (an unreachable peer reports role "unreachable" rather
// than failing the whole status). The active member's replication lag —
// records shipped to but not acknowledged by its standby — is included
// and, when RegisterMetrics was called, published as a per-shard gauge.
func (c *Coordinator) Status(ctx context.Context) ([]wire.ShardStatusReport, error) {
	out := make([]wire.ShardStatusReport, 0, len(c.m.shards))
	for _, info := range c.m.Shards() {
		var st *wire.ShardStatusReport
		err := c.call(ctx, info, wire.OpShardStatus, func(ctx context.Context, cl *wire.Client) error {
			var serr error
			st, serr = cl.ShardStatus(ctx)
			return serr
		})
		if err != nil {
			return nil, fmt.Errorf("status on shard %s: %w", info.ID, err)
		}
		if st.ShardID == "" {
			st.ShardID = info.ID
		}
		c.mu.Lock()
		st.Addr = c.endpointLocked(info).active
		reg := c.reg
		c.mu.Unlock()
		if info.Standby != "" {
			_ = c.call(ctx, info, wire.OpReplication, func(ctx context.Context, cl *wire.Client) error {
				rep, rerr := cl.Replication(ctx)
				if rerr == nil && rep.Role == "primary" {
					st.StandbyLag = rep.Lag
					if reg != nil {
						reg.Gauge("atmcac_shard_standby_lag_records", obs.L("shard", info.ID)).Set(float64(rep.Lag))
					}
				}
				return rerr
			})
			peer := info.Standby
			if st.Addr == info.Standby {
				peer = info.Addr
			}
			st.PeerAddr = peer
			st.PeerRole = "unreachable"
			if prep, ok := c.probeStatus(ctx, peer); ok {
				st.PeerRole = prep.Role
				st.PeerEpoch = prep.Epoch
			}
		}
		out = append(out, *st)
	}
	return out, nil
}

// SelfStatus reports the coordinator's own identity: its term, fencing
// state and the number of in-doubt transactions outstanding.
func (c *Coordinator) SelfStatus() wire.ShardStatusReport {
	role := "coordinator"
	if c.Fenced() {
		role = "fenced"
	}
	return wire.ShardStatusReport{
		ShardID:    "coordinator",
		Role:       role,
		Epoch:      c.epoch,
		CoordEpoch: c.epoch,
		InDoubt:    len(c.InDoubt()),
	}
}
