// Client side of the wire protocol: the context-first API, the
// negotiated binary pipelined transport, call options and client-side
// batching.
//
// Every method takes a context first and optional CallOptions last —
// the PR-5 core.Setup unification applied to the client: one method per
// operation instead of drifted Foo/FooContext pairs. The former pairs
// survive as thin deprecated wrappers.
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/overload"
)

// Client is a CAC client over one TCP connection; safe for concurrent
// use. On the JSON codec its methods serialize requests; after Dial
// negotiates the binary framing they pipeline — each in-flight request
// owns a tag, a background reader matches responses (which may arrive
// out of order) back to their waiters, and concurrent calls share the
// connection without head-of-line blocking on the server's handling.
type Client struct {
	conn   net.Conn
	proto  string // ProtoJSON or ProtoBinary, fixed after negotiation
	closed atomic.Bool

	// JSON transport (also carries the hello exchange): one serialized
	// request/response round trip under mu.
	mu  sync.Mutex
	br  *bufio.Reader
	enc *json.Encoder

	// Binary pipelined transport.
	tags       atomic.Uint64
	wmu        sync.Mutex // serializes frame writes
	pmu        sync.Mutex // guards pending and readErr
	pending    map[uint64]chan Response
	readErr    error
	readerDone chan struct{}

	// coordEpoch, when non-zero, is stamped on every shard 2PC request
	// (see Request.CoordEpoch). Set by a coordinator after dialing.
	coordEpoch atomic.Uint64

	// batch is the WithBatch coalescer, created on first use.
	bmu   sync.Mutex
	batch *batcher
}

// helloTimeout bounds the Dial negotiation round trip: a server that
// cannot answer a hello in this long gets the legacy no-handshake
// treatment instead of hanging the dial.
const helloTimeout = 3 * time.Second

// Dial connects to a CAC server and negotiates the binary framing,
// falling back to the JSON line codec when the server declines (an older
// daemon answering unknown-op, or one pinned with -wire-proto=json).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	if err := c.negotiate(); err != nil {
		// The hello never completed, so this connection's framing state
		// is unknown — a reply arriving later would desync the JSON
		// stream. Close it and fall back to a fresh JSON-only connection,
		// preserving the legacy contract that Dial itself does no
		// protocol I/O a peer must answer.
		_ = conn.Close()
		return DialJSON(addr)
	}
	return c, nil
}

// DialJSON connects without negotiating: the connection speaks the JSON
// line codec for its lifetime. For debugging and for peers predating the
// hello exchange.
func DialJSON(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection in the JSON codec without
// negotiating (callers holding both ends of a pipe, tests).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:  conn,
		proto: ProtoJSON,
		br:    bufio.NewReaderSize(conn, 64<<10),
		enc:   json.NewEncoder(conn),
	}
}

// negotiate sends the hello. Any refusal — unknown-op from an old
// server, unsupported-proto from a pinned one — keeps the JSON codec;
// only a transport failure is an error.
func (c *Client) negotiate() error {
	ctx, cancel := context.WithTimeout(context.Background(), helloTimeout)
	defer cancel()
	resp, err := c.roundTripJSON(ctx, Request{Op: OpHello, Proto: ProtoBinary})
	if err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}
	if resp.OK && resp.Proto == ProtoBinary {
		c.proto = ProtoBinary
		c.pending = make(map[uint64]chan Response)
		c.readerDone = make(chan struct{})
		go c.readLoop()
	}
	return nil
}

// Proto reports the codec this connection negotiated.
func (c *Client) Proto() string { return c.proto }

// SetShardCoordEpoch makes the client stamp every shard 2PC operation
// with the coordinator term e; zero clears the stamp.
func (c *Client) SetShardCoordEpoch(e uint64) { c.coordEpoch.Store(e) }

// Close closes the underlying connection.
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// dead reports that the connection can serve no further call: it was
// closed, or its binary reader hit a transport error.
func (c *Client) dead() bool {
	if c.closed.Load() {
		return true
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.readErr != nil
}

// roundTripJSON sends one request and decodes one response on the JSON
// codec, bounded by ctx: the remaining deadline is propagated in the
// request (so the server bounds its handling too), the connection I/O is
// cut when ctx ends, and a typed overloaded response is surfaced as
// *OverloadError. After a deadline or cancellation cuts the I/O
// mid-exchange the connection is out of sync and should not be reused.
func (c *Client) roundTripJSON(ctx context.Context, req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if err := stampDeadline(ctx, &req); err != nil {
		return Response{}, err
	}
	// Unblock the read when ctx ends; restore the idle state after.
	stop := context.AfterFunc(ctx, func() { _ = c.conn.SetDeadline(time.Now()) })
	defer func() {
		if stop() {
			return
		}
		// AfterFunc already ran: clear the poisoned deadline so a caller
		// that retries on a fresh context is not instantly expired.
		_ = c.conn.SetDeadline(time.Time{})
	}()
	if err := c.enc.Encode(req); err != nil {
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		return Response{}, fmt.Errorf("wire: send: %w", err)
	}
	line, err := readLimitedLine(c.br)
	if err != nil {
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Response{}, fmt.Errorf("wire: receive: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return finishResponse(req.Op, resp)
}

// stampDeadline propagates ctx's remaining deadline into the request.
func stampDeadline(ctx context.Context, req *Request) error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	remaining := time.Until(dl)
	if remaining <= 0 {
		return context.DeadlineExceeded
	}
	req.TimeoutMillis = int64(remaining / time.Millisecond)
	return nil
}

// finishResponse lifts a typed overloaded response into *OverloadError.
func finishResponse(op string, resp Response) (Response, error) {
	if resp.Overloaded {
		return resp, &OverloadError{
			Op:         op,
			RetryAfter: time.Duration(resp.RetryAfterMillis) * time.Millisecond,
			Msg:        resp.Error,
		}
	}
	return resp, nil
}

// readLoop is the binary transport's reader: it matches each arriving
// frame to the waiter that sent its tag. On any read error the
// connection is dead — every current and future waiter fails.
func (c *Client) readLoop() {
	for {
		tag, payload, err := readBinFrame(c.br)
		var resp Response
		if err == nil {
			if uerr := json.Unmarshal(payload, &resp); uerr != nil {
				err = fmt.Errorf("%w: %v", ErrProtocol, uerr)
			}
		}
		if err != nil {
			c.pmu.Lock()
			c.readErr = err
			c.pending = nil
			c.pmu.Unlock()
			close(c.readerDone)
			return
		}
		c.pmu.Lock()
		ch := c.pending[tag]
		delete(c.pending, tag)
		c.pmu.Unlock()
		if ch != nil {
			ch <- resp // buffered; an abandoned waiter never blocks us
		}
	}
}

// callBinary sends one pipelined request and waits for its tagged
// response. A cancelled context abandons the waiter — the connection
// stays healthy and the late response is discarded, unlike the JSON
// codec where cancellation poisons the stream.
func (c *Client) callBinary(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if err := stampDeadline(ctx, &req); err != nil {
		return Response{}, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return Response{}, fmt.Errorf("wire: encode: %w", err)
	}
	tag := c.tags.Add(1)
	ch := make(chan Response, 1)
	c.pmu.Lock()
	if c.readErr != nil {
		rerr := c.readErr
		c.pmu.Unlock()
		return Response{}, fmt.Errorf("wire: receive: %w", rerr)
	}
	c.pending[tag] = ch
	c.pmu.Unlock()
	frame := appendBinFrame(nil, tag, payload)
	c.wmu.Lock()
	_, werr := c.conn.Write(frame)
	c.wmu.Unlock()
	if werr != nil {
		c.forget(tag)
		return Response{}, fmt.Errorf("wire: send: %w", werr)
	}
	select {
	case resp := <-ch:
		return finishResponse(req.Op, resp)
	case <-ctx.Done():
		c.forget(tag)
		return Response{}, ctx.Err()
	case <-c.readerDone:
		// The response may have been delivered right before the reader
		// died; prefer it.
		select {
		case resp := <-ch:
			return finishResponse(req.Op, resp)
		default:
		}
		c.pmu.Lock()
		rerr := c.readErr
		c.pmu.Unlock()
		return Response{}, fmt.Errorf("wire: receive: %w", rerr)
	}
}

// forget abandons a pending tag.
func (c *Client) forget(tag uint64) {
	c.pmu.Lock()
	delete(c.pending, tag)
	c.pmu.Unlock()
}

// call routes one request through the negotiated transport.
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	if c.proto == ProtoBinary {
		return c.callBinary(ctx, req)
	}
	return c.roundTripJSON(ctx, req)
}

// CallOption tunes one client call; see WithTimeout, WithRetry and
// WithBatch.
type CallOption func(*callOptions)

type callOptions struct {
	timeout time.Duration
	retry   bool
	policy  *overload.Backoff
	batch   bool
}

// WithTimeout bounds the call by d (a derived context deadline, also
// propagated to the server), composing with any deadline already on ctx.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOptions) { o.timeout = d }
}

// WithRetry retries the call under bounded exponential backoff with
// jitter when the server sheds it: overloaded responses are retried
// after max(backoff, server retry-after hint) until the context ends;
// every other outcome — success, CAC rejection, transport error —
// returns immediately. A shed request changed no server state, so the
// retry cannot duplicate an admission. A nil policy uses defaults; a
// non-nil policy is shared, so its backoff state carries across calls.
func WithRetry(policy *overload.Backoff) CallOption {
	return func(o *callOptions) { o.retry, o.policy = true, policy }
}

// WithBatch coalesces the call with concurrent WithBatch calls on the
// same client into one batch-setup/batch-teardown request, sharing the
// server's single batch fsync. Only Setup and Teardown honor it; other
// operations ignore it.
func WithBatch() CallOption {
	return func(o *callOptions) { o.batch = true }
}

func evalOptions(opts []CallOption) callOptions {
	var o callOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// withOptions applies the timeout option and returns the possibly-derived
// context plus its cancel (always non-nil).
func (o *callOptions) withContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(ctx, o.timeout)
	}
	return ctx, func() {}
}

// do runs one request with the evaluated options applied.
func (c *Client) do(ctx context.Context, req Request, o callOptions) (Response, error) {
	ctx, cancel := o.withContext(ctx)
	defer cancel()
	if !o.retry {
		return c.call(ctx, req)
	}
	policy := o.policy
	if policy == nil {
		policy = &overload.Backoff{}
	}
	for {
		resp, err := c.call(ctx, req)
		var oe *OverloadError
		if !errors.As(err, &oe) {
			return resp, err
		}
		if serr := overload.Sleep(ctx, policy.Next(oe.RetryAfter)); serr != nil {
			// Out of time: surface the overload, not the bare ctx error,
			// so the caller knows why the budget was spent.
			return Response{}, fmt.Errorf("%w (deadline while backing off: %v)", err, serr)
		}
	}
}

// Setup requests a connection establishment. CAC rejections are returned
// as errors matching core.ErrRejected; shed requests match
// ErrOverloaded. The remaining ctx deadline travels with the request and
// bounds the server-side admission as well.
func (c *Client) Setup(ctx context.Context, req core.ConnRequest, opts ...CallOption) (*Admission, error) {
	o := evalOptions(opts)
	if o.batch {
		return c.batchedSetup(ctx, req, o)
	}
	resp, err := c.do(ctx, Request{Op: OpSetup, Request: &req}, o)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("setup", resp)
	}
	if resp.Admission == nil {
		return nil, fmt.Errorf("%w: setup response without admission", ErrProtocol)
	}
	return resp.Admission, nil
}

// Teardown releases a connection.
func (c *Client) Teardown(ctx context.Context, id core.ConnID, opts ...CallOption) error {
	o := evalOptions(opts)
	if o.batch {
		return c.batchedTeardown(ctx, id, o)
	}
	resp, err := c.do(ctx, Request{Op: OpTeardown, ID: id}, o)
	if err != nil {
		return err
	}
	if !resp.OK {
		return remoteErr("teardown", resp)
	}
	return nil
}

// BatchSetup admits every request in one batch-setup call: the server
// takes its operation locks once and, in journal-sync mode, covers the
// whole batch with a single fsync. Items succeed and fail independently;
// the returned results are in request order.
func (c *Client) BatchSetup(ctx context.Context, reqs []core.ConnRequest, opts ...CallOption) ([]BatchResult, error) {
	resp, err := c.do(ctx, Request{Op: OpBatchSetup, Requests: reqs}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr(OpBatchSetup, resp)
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("%w: batch-setup returned %d results for %d requests", ErrProtocol, len(resp.Results), len(reqs))
	}
	return resp.Results, nil
}

// BatchTeardown releases every named connection in one batch-teardown
// call; semantics mirror BatchSetup.
func (c *Client) BatchTeardown(ctx context.Context, ids []core.ConnID, opts ...CallOption) ([]BatchResult, error) {
	resp, err := c.do(ctx, Request{Op: OpBatchTeardown, IDs: ids}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr(OpBatchTeardown, resp)
	}
	if len(resp.Results) != len(ids) {
		return nil, fmt.Errorf("%w: batch-teardown returned %d results for %d ids", ErrProtocol, len(resp.Results), len(ids))
	}
	return resp.Results, nil
}

// List returns the established connection IDs.
func (c *Client) List(ctx context.Context, opts ...CallOption) ([]core.ConnID, error) {
	resp, err := c.do(ctx, Request{Op: OpList}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("list", resp)
	}
	return resp.Connections, nil
}

// RouteBound queries the current end-to-end computed bound of a route.
func (c *Client) RouteBound(ctx context.Context, route core.Route, p core.Priority, opts ...CallOption) (float64, error) {
	resp, err := c.do(ctx, Request{Op: OpBound, Route: route, Priority: p}, evalOptions(opts))
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, remoteErr("bound", resp)
	}
	return resp.Bound, nil
}

// Audit recomputes every loaded queue's bound server-side and returns the
// queues over budget (empty means the configuration is sound).
func (c *Client) Audit(ctx context.Context, opts ...CallOption) ([]ViolationReport, error) {
	resp, err := c.do(ctx, Request{Op: OpAudit}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("audit", resp)
	}
	return resp.Violations, nil
}

// Inspect reports the state of every loaded queue of one switch (or all
// switches when switchName is empty): bounds, backlogs, budgets and the
// assembled arrival envelopes.
func (c *Client) Inspect(ctx context.Context, switchName string, opts ...CallOption) ([]PortReport, error) {
	resp, err := c.do(ctx, Request{Op: OpInspect, Switch: switchName}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("inspect", resp)
	}
	return resp.Ports, nil
}

// FailLink declares the directed link from -> to failed. The server evicts
// every traversing connection, runs its re-admission handler and reports
// the per-connection outcomes.
func (c *Client) FailLink(ctx context.Context, from, to string, opts ...CallOption) (*FailoverReport, error) {
	resp, err := c.do(ctx, Request{Op: OpFailLink, From: from, To: to}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("fail-link", resp)
	}
	if resp.Failover == nil {
		return nil, fmt.Errorf("%w: fail-link response without report", ErrProtocol)
	}
	return resp.Failover, nil
}

// RestoreLink clears a failed link so new setups may use it again.
func (c *Client) RestoreLink(ctx context.Context, from, to string, opts ...CallOption) error {
	resp, err := c.do(ctx, Request{Op: OpRestoreLink, From: from, To: to}, evalOptions(opts))
	if err != nil {
		return err
	}
	if !resp.OK {
		return remoteErr("restore-link", resp)
	}
	return nil
}

// Health reports daemon liveness and link state.
func (c *Client) Health(ctx context.Context, opts ...CallOption) (*HealthReport, error) {
	resp, err := c.do(ctx, Request{Op: OpHealth}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("health", resp)
	}
	if resp.Health == nil {
		return nil, fmt.Errorf("%w: health response without report", ErrProtocol)
	}
	return resp.Health, nil
}

// Promote asks the node to take over as primary at a new epoch.
func (c *Client) Promote(ctx context.Context, opts ...CallOption) (*ReplicationReport, error) {
	resp, err := c.do(ctx, Request{Op: OpPromote}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("promote", resp)
	}
	if resp.Replication == nil {
		return nil, fmt.Errorf("%w: promote response without report", ErrProtocol)
	}
	return resp.Replication, nil
}

// Replication queries the node's replication role and stream status.
func (c *Client) Replication(ctx context.Context, opts ...CallOption) (*ReplicationReport, error) {
	resp, err := c.do(ctx, Request{Op: OpReplication}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr("replication", resp)
	}
	if resp.Replication == nil {
		return nil, fmt.Errorf("%w: replication response without report", ErrProtocol)
	}
	return resp.Replication, nil
}

// ShardPrepare asks a shard to reserve the route hops of req under txn,
// holding them for ttl (zero selects the server default).
func (c *Client) ShardPrepare(ctx context.Context, txn string, req core.ConnRequest, ttl time.Duration) (*PrepareReport, error) {
	resp, err := c.call(ctx, Request{
		Op: OpShardPrepare, Txn: txn, Request: &req,
		TTLMillis:  int64(ttl / time.Millisecond),
		CoordEpoch: c.coordEpoch.Load(),
	})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr(OpShardPrepare, resp)
	}
	if resp.Prepared == nil {
		return nil, fmt.Errorf("%w: shard-prepare response without report", ErrProtocol)
	}
	return resp.Prepared, nil
}

// ShardCommit asks a shard to promote the prepared hold of txn. req must
// be the same shard-local request that was prepared (it drives the
// recovery re-admission when the hold was reaped); prepareEpoch echoes
// the epoch from the prepare report so a promoted shard can fence.
func (c *Client) ShardCommit(ctx context.Context, txn string, req core.ConnRequest, prepareEpoch uint64) (*Admission, string, error) {
	resp, err := c.call(ctx, Request{
		Op: OpShardCommit, Txn: txn, Request: &req, PrepareEpoch: prepareEpoch,
		CoordEpoch: c.coordEpoch.Load(),
	})
	if err != nil {
		return nil, "", err
	}
	if !resp.OK {
		return nil, "", remoteErr(OpShardCommit, resp)
	}
	return resp.Admission, resp.Warning, nil
}

// ShardAbort releases txn's hold (or unwinds its commit) on a shard.
func (c *Client) ShardAbort(ctx context.Context, txn string, req *core.ConnRequest) error {
	wr := Request{Op: OpShardAbort, Txn: txn, Request: req, CoordEpoch: c.coordEpoch.Load()}
	if req != nil {
		wr.ID = req.ID
	}
	resp, err := c.call(ctx, wr)
	if err != nil {
		return err
	}
	if !resp.OK {
		return remoteErr(OpShardAbort, resp)
	}
	return nil
}

// ShardReap forces one orphan-reaper pass and returns the expired
// transactions.
func (c *Client) ShardReap(ctx context.Context, opts ...CallOption) ([]string, error) {
	resp, err := c.do(ctx, Request{Op: OpShardReap, CoordEpoch: c.coordEpoch.Load()}, evalOptions(opts))
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, remoteErr(OpShardReap, resp)
	}
	if resp.Shard == nil {
		return nil, fmt.Errorf("%w: shard-reap response without report", ErrProtocol)
	}
	return resp.Shard.Reaped, nil
}

// ShardStatus reports the shard identity, role, epoch and live holds.
func (c *Client) ShardStatus(ctx context.Context, opts ...CallOption) (*ShardStatusReport, error) {
	st, _, _, err := c.ShardStatusFleet(ctx, opts...)
	return st, err
}

// ShardStatusFleet is ShardStatus plus the coordinator's per-pair fleet
// reports — empty when the peer is a plain shard — and any degradation
// warning (a dead pair downgrades the fleet fan-out to identity-only).
func (c *Client) ShardStatusFleet(ctx context.Context, opts ...CallOption) (*ShardStatusReport, []ShardStatusReport, string, error) {
	resp, err := c.do(ctx, Request{Op: OpShardStatus}, evalOptions(opts))
	if err != nil {
		return nil, nil, "", err
	}
	if !resp.OK {
		return nil, nil, "", remoteErr(OpShardStatus, resp)
	}
	if resp.Shard == nil {
		return nil, nil, "", fmt.Errorf("%w: shard-status response without report", ErrProtocol)
	}
	return resp.Shard, resp.Shards, resp.Warning, nil
}

// batcher coalesces concurrent WithBatch setups and teardowns on one
// client into batch requests: the first enqueuer starts a flusher
// goroutine that drains the queue in MaxBatchOps-sized chunks until it
// runs dry, so operations arriving while a batch is in flight form the
// next one — the client-side mirror of the server's group commit.
type batcher struct {
	c         *Client
	mu        sync.Mutex
	setups    []clientBatchOp
	teardowns []clientBatchOp
	flushing  bool
}

type clientBatchOp struct {
	req  *core.ConnRequest // setup payload (nil for teardown)
	id   core.ConnID       // teardown target
	done chan clientBatchOutcome
}

type clientBatchOutcome struct {
	res BatchResult
	err error
}

func (c *Client) batcher() *batcher {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	if c.batch == nil {
		c.batch = &batcher{c: c}
	}
	return c.batch
}

// batchedSetup enqueues one setup on the coalescer and waits for its
// batch's outcome. The flusher runs on its own context: a caller
// abandoning its wait does not cancel the batch its siblings share.
func (c *Client) batchedSetup(ctx context.Context, req core.ConnRequest, o callOptions) (*Admission, error) {
	ctx, cancel := o.withContext(ctx)
	defer cancel()
	b := c.batcher()
	op := clientBatchOp{req: &req, done: make(chan clientBatchOutcome, 1)}
	b.enqueue(op, false)
	select {
	case out := <-op.done:
		if out.err != nil {
			return nil, out.err
		}
		if !out.res.OK {
			return nil, &RemoteError{Op: "setup", Code: out.res.Code, Msg: out.res.Error, rejected: out.res.Rejected}
		}
		if out.res.Admission == nil {
			return nil, fmt.Errorf("%w: batch result without admission", ErrProtocol)
		}
		return out.res.Admission, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// batchedTeardown is batchedSetup for teardowns.
func (c *Client) batchedTeardown(ctx context.Context, id core.ConnID, o callOptions) error {
	ctx, cancel := o.withContext(ctx)
	defer cancel()
	b := c.batcher()
	op := clientBatchOp{id: id, done: make(chan clientBatchOutcome, 1)}
	b.enqueue(op, true)
	select {
	case out := <-op.done:
		if out.err != nil {
			return out.err
		}
		if !out.res.OK {
			return &RemoteError{Op: "teardown", Code: out.res.Code, Msg: out.res.Error}
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *batcher) enqueue(op clientBatchOp, teardown bool) {
	b.mu.Lock()
	if teardown {
		b.teardowns = append(b.teardowns, op)
	} else {
		b.setups = append(b.setups, op)
	}
	kick := !b.flushing
	if kick {
		b.flushing = true
	}
	b.mu.Unlock()
	if kick {
		go b.flushLoop()
	}
}

func (b *batcher) flushLoop() {
	for {
		b.mu.Lock()
		setups, teardowns := b.setups, b.teardowns
		b.setups, b.teardowns = nil, nil
		if len(setups) == 0 && len(teardowns) == 0 {
			b.flushing = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.flushSetups(setups)
		b.flushTeardowns(teardowns)
	}
}

func (b *batcher) flushSetups(ops []clientBatchOp) {
	for len(ops) > 0 {
		chunk := ops
		if len(chunk) > MaxBatchOps {
			chunk = chunk[:MaxBatchOps]
		}
		ops = ops[len(chunk):]
		reqs := make([]core.ConnRequest, len(chunk))
		for i, op := range chunk {
			reqs[i] = *op.req
		}
		results, err := b.c.BatchSetup(context.Background(), reqs)
		for i, op := range chunk {
			out := clientBatchOutcome{err: err}
			if err == nil {
				out.res = results[i]
			}
			op.done <- out
		}
	}
}

func (b *batcher) flushTeardowns(ops []clientBatchOp) {
	for len(ops) > 0 {
		chunk := ops
		if len(chunk) > MaxBatchOps {
			chunk = chunk[:MaxBatchOps]
		}
		ops = ops[len(chunk):]
		ids := make([]core.ConnID, len(chunk))
		for i, op := range chunk {
			ids[i] = op.id
		}
		results, err := b.c.BatchTeardown(context.Background(), ids)
		for i, op := range chunk {
			out := clientBatchOutcome{err: err}
			if err == nil {
				out.res = results[i]
			}
			op.done <- out
		}
	}
}
