// Client side of the wire protocol: the context-first API over the
// pipelined binary framing, and call options.
//
// Every method takes a context first and optional CallOptions last: one
// method per operation, the client-side mirror of core.Setup.
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/overload"
)

// Client is a CAC client over one TCP connection speaking the binary
// framing; safe for concurrent use. Its methods pipeline — each in-flight
// request owns a tag, a background reader matches responses (which may
// arrive out of order) back to their waiters, and concurrent calls share
// the connection without head-of-line blocking on the server's handling.
type Client struct {
	conn net.Conn

	tags       atomic.Uint64
	wmu        sync.Mutex // serializes frame writes
	pmu        sync.Mutex // guards pending and readErr
	pending    map[uint64]chan Response
	readErr    error
	readerDone chan struct{}

	// coordEpoch, when non-zero, is stamped on every shard 2PC request
	// (see Request.CoordEpoch). Set by a coordinator after dialing.
	coordEpoch atomic.Uint64
	// compact says the hello agreed on compact request payloads.
	compact bool
}

// helloTimeout bounds the Dial connect and, separately, the negotiation
// round trip, so an address that drops SYNs or a peer that never answers
// the hello fails the dial instead of hanging it.
const helloTimeout = 3 * time.Second

// Dial connects to a CAC server and negotiates the binary framing, with
// compact payloads when the server offers them. A connect that does not
// complete within helloTimeout, or a server that refuses the framing
// (unknown-op, unsupported-proto) or does not answer within helloTimeout,
// fails the dial; the connection is closed.
func Dial(addr string) (*Client, error) { return dial(addr, helloTimeout) }

// dial is Dial with the connect bounded by timeout.
func dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := (&net.Dialer{Timeout: timeout}).Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c, err := negotiate(conn)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return c, nil
}

// negotiate sends the hello as one JSON line and, once the server
// confirms the binary framing, starts the response reader. The hello
// offers compact payloads; a server that predates them leaves "compact"
// out of its answer, and the connection carries JSON payloads.
func negotiate(conn net.Conn) (*Client, error) {
	_ = conn.SetDeadline(time.Now().Add(helloTimeout))
	if err := json.NewEncoder(conn).Encode(Request{Op: OpHello, Proto: ProtoBinary, Compact: true}); err != nil {
		return nil, fmt.Errorf("hello: send: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	line, err := readLimitedLine(br)
	if err != nil {
		return nil, fmt.Errorf("hello: receive: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrProtocol, err)
	}
	if !resp.OK {
		return nil, remoteErr(OpHello, resp)
	}
	if resp.Proto != ProtoBinary {
		return nil, fmt.Errorf("%w: hello answered proto %q, want %q", ErrProtocol, resp.Proto, ProtoBinary)
	}
	_ = conn.SetDeadline(time.Time{})
	c := &Client{
		conn:       conn,
		pending:    make(map[uint64]chan Response),
		readerDone: make(chan struct{}),
		compact:    resp.Compact,
	}
	go c.readLoop(br)
	return c, nil
}

// Proto reports the framing the connection speaks: always ProtoBinary.
func (c *Client) Proto() string { return ProtoBinary }

// SetShardCoordEpoch makes the client stamp every shard 2PC operation
// with the coordinator term e; zero clears the stamp.
func (c *Client) SetShardCoordEpoch(e uint64) { c.coordEpoch.Store(e) }

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

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

// readLoop is the connection's reader: it matches each arriving frame
// to the waiter that sent its tag. On any read error the connection is
// dead — every current and future waiter fails.
func (c *Client) readLoop(br *bufio.Reader) {
	for {
		tag, payload, err := readBinFrame(br)
		var resp Response
		if err == nil {
			if resp, err = decodeResponse(payload); err != nil {
				err = fmt.Errorf("%w: %v", ErrProtocol, err)
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

// call sends one pipelined request and waits for its tagged response,
// bounded by ctx: the remaining deadline is propagated in the request
// (so the server bounds its handling too), and a typed overloaded
// response is surfaced as *OverloadError. A cancelled context abandons
// the waiter — the connection stays healthy and the late response is
// discarded.
func (c *Client) call(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	if err := stampDeadline(ctx, &req); err != nil {
		return Response{}, err
	}
	frame, err := c.encode(&req)
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
	sealBinFrame(frame, tag)
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

// encode builds req's frame in the connection's payload encoding, with
// its header left for sealBinFrame.
func (c *Client) encode(req *Request) ([]byte, error) {
	if c.compact {
		return appendCompactRequest(make([]byte, binHdrSize, 256), req), nil
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return append(make([]byte, binHdrSize, binHdrSize+len(payload)), payload...), nil
}

// forget abandons a pending tag.
func (c *Client) forget(tag uint64) {
	c.pmu.Lock()
	delete(c.pending, tag)
	c.pmu.Unlock()
}

// CallOption tunes one client call; see WithTimeout and WithRetry.
type CallOption func(*callOptions)

type callOptions struct {
	timeout time.Duration
	retry   bool
	policy  *overload.Backoff
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

func evalOptions(opts []CallOption) callOptions {
	var o callOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// withContext applies the timeout option and returns the possibly-derived
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
	resp, err := c.do(ctx, Request{Op: OpSetup, Request: &req}, evalOptions(opts))
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
	resp, err := c.do(ctx, Request{Op: OpTeardown, ID: id}, evalOptions(opts))
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
