package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/overload"
	"atmcac/internal/traffic"
)

// TestOverloadStorm hammers a server whose limiter admits one in-flight
// request at a time with many concurrent setup clients, each retrying
// under backoff. Every client must eventually get through and the server
// must carry exactly one connection per client — overload shedding plus
// retry may delay admissions but can never lose or duplicate one.
// CI reruns it (-run TestOverloadStorm -count=3 -race) as a flake probe.
func TestOverloadStorm(t *testing.T) {
	client, srv, route := startServerWith(t, func(s *Server) {
		s.SetLimiter(overload.NewLimiter(overload.LimiterConfig{MaxInFlight: 1}))
	})
	addr := clientAddr(t, client)

	const clients = 12
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			r := make(core.Route, len(route))
			copy(r, route)
			for h := range r {
				r[h].In = core.PortID(i + 1)
			}
			_, errs[i] = c.Setup(ctx, core.ConnRequest{
				ID: core.ConnID(fmt.Sprintf("storm-%d", i)), Spec: traffic.CBR(0.001),
				Priority: 1, Route: r,
			}, WithRetry(&overload.Backoff{Base: time.Millisecond, Max: 100 * time.Millisecond}))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	ids := srv.network.Connections()
	if len(ids) != clients {
		t.Fatalf("server carries %d connections after the storm, want %d", len(ids), clients)
	}
	seen := make(map[core.ConnID]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicated admission %q", id)
		}
		seen[id] = true
	}
	// The in-flight gauge has drained; nothing is stuck holding a slot.
	if st := srv.limiter.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight gauge = %d after the storm, want 0", st.InFlight)
	}
}

// TestSetupWithRetryHonorsRetryAfterHint drains a one-token bucket
// refilling at 20 tokens/s, so the shed response hints 50ms: the retry
// must not fire before the hint even though its own backoff base is far
// smaller, and must then succeed against the refilled bucket.
func TestSetupWithRetryHonorsRetryAfterHint(t *testing.T) {
	client, _, route := startServerWith(t, func(s *Server) {
		s.SetLimiter(overload.NewLimiter(overload.LimiterConfig{Rate: 20, Burst: 1}))
	})
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "first", Spec: traffic.CBR(0.001), Priority: 1, Route: route,
	}); err != nil {
		t.Fatal(err)
	}
	// The bucket is empty: an immediate plain setup is shed with the hint.
	r2 := make(core.Route, len(route))
	copy(r2, route)
	for h := range r2 {
		r2[h].In = 2
	}
	_, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "second", Spec: traffic.CBR(0.001), Priority: 1, Route: r2,
	})
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("setup against empty bucket = %v, want *OverloadError", err)
	}
	if oe.RetryAfter < 40*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want ~50ms for a 1-token bucket at 20/s", oe.RetryAfter)
	}
	// Retry with a tiny backoff base: the server hint must dominate.
	start := time.Now()
	policy := &overload.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}
	if _, err := client.Setup(context.Background(), core.ConnRequest{
		ID: "second", Spec: traffic.CBR(0.001), Priority: 1, Route: r2,
	}, WithRetry(policy)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("retry fired after %v, before the ~50ms retry-after hint", elapsed)
	}
	if policy.Attempts() == 0 {
		t.Fatal("retry succeeded without backing off; the bucket should have been empty")
	}
}

// TestSetupContextDeadlineCutsStalledExchange points a client at a
// listener that accepts the hello but never answers a request: Setup
// must return context.DeadlineExceeded promptly instead of hanging on
// the dead read.
func TestSetupContextDeadlineCutsStalledExchange(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		if _, err := fmt.Fprintln(conn, `{"ok":true,"proto":"binary"}`); err != nil {
			return
		}
		// Swallow the request, never respond.
		_, _ = io.Copy(io.Discard, br)
	}()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Setup(ctx, core.ConnRequest{
		ID: "stalled", Spec: traffic.CBR(0.001), Priority: 1,
		Route: core.Route{{Switch: "sw0", In: 1, Out: 0}},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("setup against stalled server = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline cut the exchange only after %v", elapsed)
	}
}

// TestDeadlinePropagatesToServer: a client deadline travels as
// timeoutMs and the server refuses to start work on an already-expired
// budget, answering with the context error rather than admitting.
func TestDeadlinePropagatesToServer(t *testing.T) {
	_, srv, route := startServerWith(t, nil)
	resp := srv.dispatch(Request{
		Op: OpSetup, TimeoutMillis: 1,
		Request: &core.ConnRequest{
			ID: "late", Spec: traffic.CBR(0.001), Priority: 1, Route: route,
		},
	})
	// A 1ms budget may or may not expire before the admission finishes;
	// both outcomes are legal, but an expired budget must not leave a
	// half-admitted connection behind.
	if resp.OK {
		if len(srv.network.Connections()) != 1 {
			t.Fatal("OK response without an admitted connection")
		}
		return
	}
	if len(srv.network.Connections()) != 0 {
		t.Fatalf("failed setup left connections behind: %v", srv.network.Connections())
	}
}

// TestShedRequestIsTyped asserts the shape of the shed response on the
// wire: overloaded flag, retry-after hint, and an error naming the class
// and limit — the contract PROTOCOL.md documents.
func TestShedRequestIsTyped(t *testing.T) {
	client, _, _ := startServerWith(t, func(s *Server) {
		// A one-token bucket leaves reads permanently under their 0.5
		// reserve threshold, so the first read already sheds.
		s.SetLimiter(overload.NewLimiter(overload.LimiterConfig{Rate: 0.001, Burst: 1}))
	})
	_, err := client.List(context.Background())
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("list against empty bucket = %v, want *OverloadError", err)
	}
	if oe.Op != OpList || oe.RetryAfter <= 0 {
		t.Fatalf("overload error = %+v, want op list with a positive hint", oe)
	}
	// Recovery traffic still flows on the same empty bucket.
	if _, err := client.Health(context.Background()); err != nil {
		t.Fatalf("health during overload = %v, want success (recovery class)", err)
	}
}
