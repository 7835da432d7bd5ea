package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/obs"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// dialLog is a counting dialer for Coordinator.Dial: every connection it
// opens, by address, in order.
type dialLog struct {
	mu    sync.Mutex
	conns map[string][]*wire.Client
}

func (d *dialLog) dial(addr string) (*wire.Client, error) {
	cl, err := wire.Dial(addr)
	if err == nil {
		d.mu.Lock()
		if d.conns == nil {
			d.conns = make(map[string][]*wire.Client)
		}
		d.conns[addr] = append(d.conns[addr], cl)
		d.mu.Unlock()
	}
	return cl, err
}

func (d *dialLog) to(addr string) []*wire.Client {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*wire.Client(nil), d.conns[addr]...)
}

// wideFixture is twoShardFixture with a counting dialer, over shards
// whose queues have room for many concurrent test connections.
func wideFixture(t *testing.T) (c *Coordinator, dials *dialLog, addrs [2]string) {
	t.Helper()
	addrs[0], _ = serveShard(t, "s0", 4096, nil, "sw0", "sw1")
	addrs[1], _ = serveShard(t, "s1", 4096, nil, "sw2", "sw3")
	m, err := ParseMap(fmt.Sprintf("s0@%s=sw0,sw1;s1@%s=sw2,sw3", addrs[0], addrs[1]))
	if err != nil {
		t.Fatal(err)
	}
	c, err = NewCoordinator(m, nil, filepath.Join(t.TempDir(), "intent"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	dials = &dialLog{}
	c.Dial = dials.dial
	return c, dials, addrs
}

// TestCoordinatorSharesOneConnectionPerShard: 64 concurrent set-ups and
// teardowns — cross-shard and local — dial each shard once between them.
func TestCoordinatorSharesOneConnectionPerShard(t *testing.T) {
	c, dials, addrs := wideFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := core.ConnRequest{ID: core.ConnID(fmt.Sprintf("c%d", i)), Spec: traffic.CBR(0.001), Priority: 1,
				Route: hops("sw0", "sw1", "sw2", "sw3")}
			if i%2 == 1 {
				req.Route = hops("sw2", "sw3")
			}
			if _, err := c.Setup(ctx, req); err != nil {
				t.Errorf("setup %s: %v", req.ID, err)
				return
			}
			if err := c.Teardown(ctx, req.ID); err != nil {
				t.Errorf("teardown %s: %v", req.ID, err)
			}
		}(i)
	}
	wg.Wait()
	for i, addr := range addrs {
		if n := len(dials.to(addr)); n != 1 {
			t.Errorf("shard s%d was dialled %d times, want 1", i, n)
		}
	}
	if ids, err := c.List(ctx); err != nil || len(ids) != 0 {
		t.Fatalf("list after the churn = %v, %v", ids, err)
	}
}

// TestCoordinatorRedialsOncePerDrop: the shared connection to a shard is
// cut under load. The calls in flight on it fail in the transport, each
// retries, every one of them completes — and the drop costs one redial,
// not one per caller.
func TestCoordinatorRedialsOncePerDrop(t *testing.T) {
	c, dials, addrs := wideFixture(t)
	ctx := context.Background()
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	first := dials.to(addrs[0])
	if len(first) != 1 {
		t.Fatalf("s0 dialled %d times before the drop", len(first))
	}
	const callers = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := c.List(ctx); err != nil {
					t.Errorf("list across the drop: %v", err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	_ = first[0].Close() // the drop
	for len(dials.to(addrs[0])) < 2 {
		time.Sleep(time.Millisecond) // until a retry has replaced it
	}
	close(stop)
	wg.Wait()
	if n := len(dials.to(addrs[0])); n != 2 {
		t.Errorf("s0 dialled %d times across one drop, want 2", n)
	}
	if n := len(dials.to(addrs[1])); n != 1 {
		t.Errorf("s1, never dropped, dialled %d times", n)
	}
}

// TestCoordinatorReconnectBackoffGatesDials: after a failed dial the
// shard's backoff window is open, and a dial inside it is refused with
// errReconnectBackoff without touching the network.
func TestCoordinatorReconnectBackoffGatesDials(t *testing.T) {
	c, _, _ := wideFixture(t)
	attempts := 0
	c.Dial = func(addr string) (*wire.Client, error) {
		attempts++
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: os.ErrDeadlineExceeded}
	}
	info, _ := c.m.Lookup("s0")
	if _, err := c.client(context.Background(), info); err == nil || errors.Is(err, errReconnectBackoff) {
		t.Fatalf("first dial = %v, want the dial failure", err)
	}
	_, err := c.client(context.Background(), info)
	if !errors.Is(err, errReconnectBackoff) {
		t.Fatalf("dial inside the window = %v, want errReconnectBackoff", err)
	}
	if attempts != 1 {
		t.Fatalf("%d dial attempts, want 1: the window did not gate the second", attempts)
	}
}

// endpointOf returns a shard's live endpoint state, creating it.
func endpointOf(c *Coordinator, id string) *endpoint {
	info, _ := c.m.Lookup(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpointLocked(info)
}

// TestCoordinatorBackoffWindowHandsOutLiveConnection: the reconnect
// window gates fresh dials only. Inside it the live connection is still
// handed out; once that is dropped, the next caller is refused without a
// dial.
func TestCoordinatorBackoffWindowHandsOutLiveConnection(t *testing.T) {
	c, dials, addrs := wideFixture(t)
	ctx := context.Background()
	info, _ := c.m.Lookup("s0")
	cl, err := c.client(ctx, info)
	if err != nil {
		t.Fatal(err)
	}
	ep := endpointOf(c, "s0")
	c.mu.Lock()
	ep.notBefore = time.Now().Add(time.Hour)
	c.mu.Unlock()
	got, err := c.client(ctx, info)
	if err != nil || got != cl {
		t.Fatalf("inside the window: %p, %v; want the live connection %p", got, err, cl)
	}
	c.drop(info, cl)
	if _, err := c.client(ctx, info); !errors.Is(err, errReconnectBackoff) {
		t.Fatalf("fresh dial inside the window = %v, want errReconnectBackoff", err)
	}
	if n := len(dials.to(addrs[0])); n != 1 {
		t.Fatalf("s0 dialled %d times, want 1", n)
	}
}

// TestCoordinatorDialClearsBackoffAndCounts: a failed dial opens the
// window; once it lapses, a successful dial closes it and counts once in
// atmcac_coord_shard_dials_total.
func TestCoordinatorDialClearsBackoffAndCounts(t *testing.T) {
	c, _, _ := wideFixture(t)
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	ctx := context.Background()
	info, _ := c.m.Lookup("s0")
	dial := c.Dial
	c.Dial = func(string) (*wire.Client, error) { return nil, errors.New("refused") }
	if _, err := c.client(ctx, info); err == nil {
		t.Fatal("failing dial succeeded")
	}
	ep := endpointOf(c, "s0")
	c.mu.Lock()
	opened := !ep.notBefore.IsZero()
	ep.notBefore = time.Now() // the window lapses
	c.mu.Unlock()
	if !opened {
		t.Fatal("a failed dial left the backoff window shut")
	}
	c.Dial = dial
	if _, err := c.client(ctx, info); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	cleared := ep.notBefore.IsZero()
	c.mu.Unlock()
	if !cleared {
		t.Fatal("a successful dial left the backoff window set")
	}
	if _, err := c.client(ctx, info); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("atmcac_coord_shard_dials_total", obs.L("shard", "s0")).Value(); n != 1 {
		t.Fatalf("atmcac_coord_shard_dials_total{shard=s0} = %d, want 1", n)
	}
}

// TestCoordinatorDialWaitHonoursContext: while one caller dials, the
// coordinator's lock stays free, a waiter whose ctx ends gives up
// without dialling, and the rest share the one dial.
func TestCoordinatorDialWaitHonoursContext(t *testing.T) {
	c, _, _ := wideFixture(t)
	ctx := context.Background()
	info, _ := c.m.Lookup("s0")
	var attempts atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	c.Dial = func(addr string) (*wire.Client, error) {
		attempts.Add(1)
		close(entered)
		<-release
		return wire.Dial(addr)
	}
	first := make(chan *wire.Client, 1)
	go func() {
		cl, err := c.client(ctx, info)
		if err != nil {
			t.Error(err)
		}
		first <- cl
	}()
	<-entered
	_ = c.Fenced() // blocks for good if the dial holds c.mu
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.client(gone, info); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter = %v, want context.Canceled", err)
	}
	close(release)
	cl := <-first
	if got, err := c.client(ctx, info); err != nil || got != cl {
		t.Fatalf("after the dial: %p, %v; want the dialled %p", got, err, cl)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d dials, want 1", n)
	}
}

// TestCoordinatorReplacesStaleDeadConnection: a connection idle past
// healthAfter is pinged before it is handed out. A live one is kept, also
// when a caller gives up during the ping; a dead one is replaced before
// any caller sees it, and a late drop of it leaves the replacement alone.
func TestCoordinatorReplacesStaleDeadConnection(t *testing.T) {
	c, dials, addrs := wideFixture(t)
	ctx := context.Background()
	info, _ := c.m.Lookup("s0")
	ep := endpointOf(c, "s0")
	age := func() {
		c.mu.Lock()
		ep.used = time.Now().Add(-2 * healthAfter)
		c.mu.Unlock()
	}
	cl, err := c.client(ctx, info)
	if err != nil {
		t.Fatal(err)
	}
	age()
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.client(gone, info); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller of a stale connection = %v", err)
	}
	age()
	if got, err := c.client(ctx, info); err != nil || got != cl {
		t.Fatalf("stale live connection: %p, %v; want it kept (%p)", got, err, cl)
	}
	_ = cl.Close() // it dies while idle
	age()
	got, err := c.client(ctx, info)
	if err != nil {
		t.Fatal(err)
	}
	if got == cl {
		t.Fatal("the dead connection was handed out")
	}
	if _, err := got.List(ctx); err != nil {
		t.Fatalf("replacement unusable: %v", err)
	}
	c.drop(info, cl) // a late report of the old failure
	if again, err := c.client(ctx, info); err != nil || again != got {
		t.Fatalf("after a late drop: %p, %v; want the replacement %p", again, err, got)
	}
	if n := len(dials.to(addrs[0])); n != 2 {
		t.Fatalf("s0 dialled %d times, want 2", n)
	}
}

// TestCoordinatorCancelKeepsTimeoutDropsConnection: a caller that gives
// up leaves the shared connection in place; a per-attempt timeout with
// the caller still waiting drops it, since a blackholed peer shows no
// other symptom.
func TestCoordinatorCancelKeepsTimeoutDropsConnection(t *testing.T) {
	c, dials, addrs := wideFixture(t)
	c.Retries = 0
	ctx := context.Background()
	info, _ := c.m.Lookup("s0")
	cl, err := c.client(ctx, info)
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(ctx)
	err = c.call(gone, info, "list", func(ctx context.Context, cl *wire.Client) error {
		cancel()
		_, err := cl.List(ctx)
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call = %v", err)
	}
	if got, err := c.client(ctx, info); err != nil || got != cl {
		t.Fatalf("after a cancel: %p, %v; want the same connection %p", got, err, cl)
	}
	c.OpTimeout = time.Millisecond
	err = c.call(ctx, info, "list", func(ctx context.Context, _ *wire.Client) error {
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out call = %v", err)
	}
	if _, err := cl.List(ctx); err == nil {
		t.Fatal("a per-attempt timeout left the connection open")
	}
	if got, err := c.client(ctx, info); err != nil || got == cl {
		t.Fatalf("after a timeout: %p, %v; want a fresh connection", got, err)
	}
	if n := len(dials.to(addrs[0])); n != 2 {
		t.Fatalf("s0 dialled %d times, want 2", n)
	}
}

// TestCoordinatorCloseClosesConnections: Close and Kill close the shard
// connections; a later call dials afresh.
func TestCoordinatorCloseClosesConnections(t *testing.T) {
	for name, stop := range map[string]func(*Coordinator){
		"close": func(c *Coordinator) { _ = c.Close() },
		"kill":  (*Coordinator).Kill,
	} {
		t.Run(name, func(t *testing.T) {
			c, dials, addrs := wideFixture(t)
			ctx := context.Background()
			info, _ := c.m.Lookup("s0")
			cl, err := c.client(ctx, info)
			if err != nil {
				t.Fatal(err)
			}
			stop(c)
			if _, err := cl.List(ctx); err == nil {
				t.Fatal("the shard connection outlived the coordinator")
			}
			if got, err := c.client(ctx, info); err != nil || got == cl {
				t.Fatalf("after %s: %p, %v; want a fresh connection", name, got, err)
			}
			if n := len(dials.to(addrs[0])); n != 2 {
				t.Fatalf("s0 dialled %d times, want 2", n)
			}
		})
	}
}

// TestCoordinatorFailoverUsesProbeConnection: when a pair's primary
// dies, the connection failover probed and promoted the standby over
// becomes the shard's shared connection: the survivor is dialled once.
func TestCoordinatorFailoverUsesProbeConnection(t *testing.T) {
	c, srv1, addr1s := pairFixture(t)
	dials := &dialLog{}
	c.Dial = dials.dial
	ctx := context.Background()
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	_ = srv1.Close() // the s1 primary dies
	if _, err := c.List(ctx); err != nil {
		t.Fatalf("list across the failover: %v", err)
	}
	if got := c.ActiveAddr("s1"); got != addr1s {
		t.Fatalf("active s1 endpoint = %q, want the standby %q", got, addr1s)
	}
	probe := dials.to(addr1s)
	if len(probe) != 1 {
		t.Fatalf("standby dialled %d times by the failover, want 1", len(probe))
	}
	c.mu.Lock()
	shared := c.ends["s1"].cl
	c.mu.Unlock()
	if shared != probe[0] {
		t.Fatal("the endpoint does not use the failover's probe connection")
	}
	for i := 0; i < 3; i++ {
		if _, err := c.List(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(dials.to(addr1s)); n != 1 {
		t.Fatalf("standby dialled %d times after the failover, want 1", n)
	}
}

// TestCoordinatorCloseWritesQueuedDone: the done record of an acked
// cross-shard setup is still queued when Setup returns; Close writes it,
// so the reopened log has nothing to re-drive.
func TestCoordinatorCloseWritesQueuedDone(t *testing.T) {
	c, m, logPath := twoShardFixture(t)
	if _, err := c.Setup(context.Background(), crossReq("c1")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := scanIntents(data); len(recs) != 2 {
		t.Fatalf("%d records written behind the ack, want begin and commit with the done still queued", len(recs))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if open := c2.InDoubt(); len(open) != 0 {
		t.Fatalf("reopened log still has %v open: Close lost the queued done", open)
	}
}

// TestTeardownSettlesQueuedDoneFirst is the rule that makes the lazy
// done safe: a teardown first makes the connection's queued done
// durable. Without it a coordinator dying right after the teardown
// recovers a commit with no done, re-drives it, and the shards — which
// no longer hold the connection — re-admit it through full CAC.
func TestTeardownSettlesQueuedDoneFirst(t *testing.T) {
	c, m, logPath := twoShardFixture(t)
	ctx := context.Background()
	if _, err := c.Setup(ctx, crossReq("c1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Teardown(ctx, "c1"); err != nil {
		t.Fatal(err)
	}
	c.Kill() // whatever is still queued dies with the process
	c2, err := NewCoordinator(m, nil, logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rep, err := c2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Committed)+len(rep.Aborted)+len(rep.InDoubt) != 0 {
		t.Fatalf("recovery after ack, teardown, crash re-drove %+v", rep)
	}
	for _, id := range []string{"s0", "s1"} {
		if ids := shardList(t, c2, id); len(ids) != 0 {
			t.Fatalf("%s lists %v: the released connection was resurrected", id, ids)
		}
	}
}
