package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
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
	p := c.pool(info)
	if _, err := p.Get(context.Background()); err == nil || errors.Is(err, errReconnectBackoff) {
		t.Fatalf("first dial = %v, want the dial failure", err)
	}
	_, err := p.Get(context.Background())
	if !errors.Is(err, errReconnectBackoff) {
		t.Fatalf("dial inside the window = %v, want errReconnectBackoff", err)
	}
	if attempts != 1 {
		t.Fatalf("%d dial attempts, want 1: the window did not gate the second", attempts)
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
