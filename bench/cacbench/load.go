package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/wire"
	wl "atmcac/internal/workload"
)

// opTimeout bounds one operation; an answer later than this counts as a
// failure.
const opTimeout = 10 * time.Second

// maxOpenLoop caps the open loop's operations in flight, so a wedged
// fleet cannot make cacbench spawn goroutines without bound. Hitting it
// blocks the generator, which shows as client.gen_lag_p99_ms.
const maxOpenLoop = 4096

// satCallers is the closed loop's concurrency: callers that each wait
// for their reply, pipelined on the one connection.
const satCallers = 16

// answer is what the fleet said to one op, reduced to what the oracle
// judges.
type answer struct {
	err   error
	adm   *wire.Admission   // setup
	bound float64           // bound
	ports []wire.PortReport // inspect
	ids   []core.ConnID     // list
}

// executor sends one op to the system under test and returns its answer.
type executor func(ctx context.Context, o op) answer

// wireExecutor drives ops over one pipelined client connection.
func wireExecutor(cl *wire.Client) executor {
	return func(ctx context.Context, o op) answer {
		var a answer
		switch o.kind {
		case opSetup, opRefused:
			a.adm, a.err = cl.Setup(ctx, o.req)
		case opTeardown:
			a.err = cl.Teardown(ctx, o.id)
		case opBound:
			a.bound, a.err = cl.RouteBound(ctx, o.route, o.prio)
		case opInspect:
			a.ports, a.err = cl.Inspect(ctx, o.sw)
		case opList:
			a.ids, a.err = cl.List(ctx)
		}
		return a
	}
}

// runner holds what the phases of one workload run share: the op stream,
// the system under test, and the client's view of what is admitted.
type runner struct {
	gen  *generator
	exec executor

	mu        sync.Mutex
	acked     map[core.ConnID]chan struct{} // closed once the setup's answer is in
	live      map[core.ConnID]core.ConnRequest
	order     []core.ConnID // acked setups, in ack order
	attempted int
	failures  []string // first few, for the report
	failed    int
	inflight  int
	peak      int // highest in-flight count of the current open loop

	now   func() time.Time
	sleep func(time.Duration)
}

func newRunner(gen *generator, exec executor) *runner {
	return &runner{
		gen:   gen,
		exec:  exec,
		acked: make(map[core.ConnID]chan struct{}),
		live:  make(map[core.ConnID]core.ConnRequest),
		now:   time.Now,
		sleep: preciseSleep,
	}
}

// fail records one wrong, failed or late answer.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// draw takes the next op off the stream and registers a setup's ack
// channel before anyone can issue the teardown that waits on it.
func (r *runner) draw() op {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.gen.next()
	if o.kind == opSetup {
		r.acked[o.req.ID] = make(chan struct{})
	}
	r.attempted++
	return o
}

// issue runs one op to completion: waits for the setup a teardown
// depends on, sends, judges the answer and updates the live set.
func (r *runner) issue(ctx context.Context, o op) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if o.kind == opTeardown {
		r.mu.Lock()
		dep := r.acked[o.id]
		r.mu.Unlock()
		select {
		case <-dep:
		case <-ctx.Done():
			r.fail("teardown %s: setup never answered", o.id)
			return
		}
	}
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.peak {
		r.peak = r.inflight
	}
	r.mu.Unlock()
	a := r.exec(ctx, o)
	verdict := judge(o, a, len(r.gen.residents))
	r.mu.Lock()
	r.inflight--
	switch o.kind {
	case opSetup:
		if a.err == nil {
			r.live[o.req.ID] = o.req
			r.order = append(r.order, o.req.ID)
		}
		close(r.acked[o.req.ID])
	case opTeardown:
		if a.err == nil {
			delete(r.live, o.id)
		}
		delete(r.acked, o.id)
	}
	r.mu.Unlock()
	if verdict != nil {
		r.fail("op %d %s: %v", o.seq, o.kind, verdict)
	}
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep is
// not good enough for an open loop: an idle Go process parks in
// epoll_wait, whose timeout is whole milliseconds, so every op would be
// dispatched up to a millisecond late and that lateness charged to the
// fleet.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		err := syscall.Nanosleep(&ts, &left)
		if err != syscall.EINTR {
			return
		}
		ts = left
	}
}

// pacedResult is what one open-loop phase measured.
type pacedResult struct {
	samples  []sample
	genLag   []float64 // ms each op was dispatched after it was due
	inflight int       // most ops in flight at once
}

// paced runs an open loop for the given length: Poisson arrivals at
// rate ops/s, each op dispatched on its own goroutine when due and timed
// from its due time, so a stall of the generator or the fleet is charged
// to every op it delayed.
func (r *runner) paced(ctx context.Context, seed uint64, rate float64, length time.Duration) (pacedResult, error) {
	arrivals, err := wl.NewGamma(seed, wl.GammaConfig{Rate: rate, CV: 1})
	if err != nil {
		return pacedResult{}, err
	}
	var (
		res  pacedResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		slot = make(chan struct{}, maxOpenLoop)
	)
	r.mu.Lock()
	r.peak = 0
	r.mu.Unlock()
	start := r.now()
	for {
		due := time.Duration(arrivals.Next() * float64(time.Second))
		if due >= length || ctx.Err() != nil {
			break
		}
		if wait := due - r.now().Sub(start); wait > 0 {
			r.sleep(wait)
		}
		slot <- struct{}{}
		o := r.draw()
		res.genLag = append(res.genLag, float64(r.now().Sub(start)-due)/float64(time.Millisecond))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.issue(ctx, o)
			done := r.now().Sub(start)
			<-slot
			mu.Lock()
			res.samples = append(res.samples, sample{kind: o.kind, start: due, done: done})
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.inflight = r.peak
	return res, ctx.Err()
}

// saturate runs the closed loop for the given length: satCallers
// callers, each sending its next op when its previous answer arrives.
func (r *runner) saturate(ctx context.Context, length time.Duration) ([]sample, error) {
	var (
		samples []sample
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	start := r.now()
	for c := 0; c < satCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				begin := r.now().Sub(start)
				if begin >= length {
					return
				}
				o := r.draw()
				r.issue(ctx, o)
				done := r.now().Sub(start)
				mu.Lock()
				samples = append(samples, sample{kind: o.kind, start: begin, done: done})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, ctx.Err()
}

// liveSet returns the client's view of the admitted churn connections,
// in the order their setups were acknowledged.
func (r *runner) liveSet() []core.ConnRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.ConnRequest, 0, len(r.live))
	for _, id := range r.order {
		if req, ok := r.live[id]; ok {
			out = append(out, req)
		}
	}
	return out
}
