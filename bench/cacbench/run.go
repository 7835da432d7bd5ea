package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/wire"
	wl "atmcac/internal/workload"
)

// populateBatch is the BatchSetup size set-up admits the residents with.
const populateBatch = 64

// How a run's --seconds are split: an untimed paced warm-up, the timed
// open loop, the timed closed loop.
const (
	warmShare  = 0.06
	pacedShare = 0.56
	satShare   = 0.38
)

// metric is one reported number; n is how many samples stand behind it
// (0 for a single measurement).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// session is a booted, populated fleet with the load connection open.
type session struct {
	fleet *fleet
	cl    *wire.Client
	dir   string
}

func (s *session) close() {
	if s.cl != nil {
		_ = s.cl.Close()
	}
	if s.fleet != nil {
		s.fleet.stop()
	}
	_ = os.RemoveAll(s.dir)
}

// setUp boots the workload's fleet on fresh state under a new directory
// in outDir, admits the residents and makes one acked warm-up setup. The
// returned duration runs from just before the first daemon's exec to
// that setup's ack: what an operator waits for a fleet to come up with
// its admitted set.
func setUp(ctx context.Context, w *workloadDef, gen *generator, bin, outDir string, withMetrics bool) (*session, time.Duration, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, 0, err
	}
	s := &session{dir: dir}
	start := time.Now()
	if s.fleet, err = bootFleet(w, bin, dir, withMetrics); err != nil {
		s.close()
		return nil, 0, err
	}
	if s.cl, err = dialBinary(s.fleet.front.addr); err != nil {
		s.close()
		return nil, 0, err
	}
	for i := 0; i < len(gen.residents); i += populateBatch {
		chunk := gen.residents[i:min(i+populateBatch, len(gen.residents))]
		results, err := s.cl.BatchSetup(ctx, chunk, wire.WithTimeout(opTimeout))
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("populate: %w", err)
		}
		for _, res := range results {
			if !res.OK {
				s.close()
				return nil, 0, fmt.Errorf("populate: resident %s refused: %s", res.ID, res.Error)
			}
		}
	}
	route, err := gen.topo.SegmentRoute(0, 0, 3)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	warm := core.ConnRequest{ID: "warm-up", Spec: connSpec, Priority: 1, Route: route}
	if _, err := s.cl.Setup(ctx, warm, wire.WithTimeout(opTimeout)); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up setup: %w", err)
	}
	elapsed := time.Since(start)
	if err := s.cl.Teardown(ctx, warm.ID, wire.WithTimeout(opTimeout)); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up teardown: %w", err)
	}
	return s, elapsed, nil
}

// dialBinary opens the one load connection and insists on the pipelined
// binary framing: a silent JSON fallback would serialize the closed loop.
func dialBinary(addr string) (*wire.Client, error) {
	cl, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if cl.Proto() != wire.ProtoBinary {
		_ = cl.Close()
		return nil, fmt.Errorf("%s negotiated %q, want the binary framing", addr, cl.Proto())
	}
	return cl, nil
}

// runResult is what one workload run produced.
type runResult struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

// plan is how one run's --seconds are spent and seeded.
type plan struct {
	warm, paced, sat    time.Duration
	warmSeed, pacedSeed uint64 // arrival processes of the two open loops
}

func newPlan(seed uint64, seconds float64) plan {
	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	seeds := wl.NewRNG(seed).Split("arrivals")
	return plan{
		warm: dur(warmShare), paced: dur(pacedShare), sat: dur(satShare),
		warmSeed: seeds.Uint64(), pacedSeed: seeds.Uint64(),
	}
}

// The three classes of operation latency is reported for.
var opClasses = []struct {
	name string
	keep func(opKind) bool
}{
	{"setup", func(k opKind) bool { return k == opSetup }},
	{"teardown", func(k opKind) bool { return k == opTeardown }},
	{"read", isRead},
}

// endToEnd turns the timed samples into the end-to-end metrics: what a
// terminal or an operator waits for, and what the fleet sustains.
func endToEnd(setupTimes []float64, open pacedResult, closed []sample, pacedLen, satLen time.Duration) []metric {
	ms := []metric{{name: "setup_s", value: median(setupTimes), unit: "s", n: len(setupTimes)}}
	for _, c := range opClasses {
		p50, n := quietLatency(open.samples, pacedLen, c.keep, 0.50)
		ms = append(ms, metric{name: c.name + "_p50_ms", value: p50, unit: "ms", n: n})
	}
	rate, n := quietRate(closed, satLen)
	return append(ms, metric{name: "sat_ops_s", value: rate, unit: "1/s", n: n})
}

// clientMetrics reports the open loop's tails and how valid the loop
// was: generator lateness, the in-flight high-water mark, and what a
// refusal-as-designed costs. The tails are taken over the whole phase,
// stalls included, and are reported but not bounded: on a shared 2-core
// box their run-to-run spread exceeds what a regression gate can use
// (see bench/README.md).
func clientMetrics(open pacedResult, pacedLen time.Duration) []metric {
	var ms []metric
	for _, c := range opClasses {
		p99, n := phasePercentile(open.samples, c.keep, 0.99)
		ms = append(ms, metric{name: "client." + c.name + "_p99_ms", value: p99, unit: "ms", n: n})
	}
	lag := append([]float64(nil), open.genLag...)
	sort.Float64s(lag)
	reject, n := quietLatency(open.samples, pacedLen, func(k opKind) bool { return k == opRefused }, 0.50)
	return append(ms,
		metric{name: "client.gen_lag_p99_ms", value: percentile(lag, 0.99), unit: "ms", n: len(lag)},
		metric{name: "client.inflight_max", value: float64(open.inflight), unit: "count"},
		metric{name: "client.reject_p50_ms", value: reject, unit: "ms", n: n})
}

// fleetQueries opens one side connection per state-holding daemon for
// the end-of-run checks (audit and bound are not served by a
// coordinator) and returns a bound query that cuts a route at the shard
// boundary.
func fleetQueries(f *fleet) (clients []*wire.Client, ask boundQuery, err error) {
	for _, d := range f.shards {
		cl, err := dialBinary(d.addr)
		if err != nil {
			closeAll(clients)
			return nil, nil, err
		}
		clients = append(clients, cl)
	}
	if !f.w.sharded {
		return clients, func(ctx context.Context, route core.Route, p core.Priority) (float64, error) {
			return clients[0].RouteBound(ctx, route, p)
		}, nil
	}
	owner := make(map[string]int)
	for n := 0; n < f.w.ringNodes; n++ {
		owner[rtnet.SwitchName(n)] = shardOf(n, f.w.ringNodes)
	}
	return clients, func(ctx context.Context, route core.Route, p core.Priority) (float64, error) {
		total := 0.0
		for s := range clients {
			var leg core.Route
			for _, hop := range route {
				if owner[hop.Switch] == s {
					leg = append(leg, hop)
				}
			}
			if len(leg) == 0 {
				continue
			}
			d, err := clients[s].RouteBound(ctx, leg, p)
			if err != nil {
				return 0, err
			}
			total += d
		}
		return total, nil
	}, nil
}

func closeAll(clients []*wire.Client) {
	for _, cl := range clients {
		_ = cl.Close()
	}
}

// endChecks runs the end-of-workload oracles against the session and
// returns one error per failed check: zero audit violations, list equal
// to the client's acked set, bounds equal to a serial rebuild, and list
// unchanged after every daemon is killed with SIGKILL and restarted on
// the same state files (process-crash durability: the kernel's page
// cache survives, so this says nothing about power loss).
func endChecks(ctx context.Context, s *session, r *runner, seed uint64, bin string) (checks int, failures []error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	w := s.fleet.w
	want := append(append([]core.ConnRequest(nil), r.gen.residents...), r.liveSet()...)
	check := func(name string, err error) {
		checks++
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", name, err))
		}
	}

	side, ask, err := fleetQueries(s.fleet)
	if err != nil {
		check("dial shards", err)
		return checks, failures
	}
	var audit error
	for i, cl := range side {
		violations, err := cl.Audit(ctx)
		if err == nil && len(violations) > 0 {
			err = fmt.Errorf("daemon %d: %d queues over budget, first %+v", i, len(violations), violations[0])
		}
		audit = errors.Join(audit, err)
	}
	check("audit", audit)
	ids, err := s.cl.List(ctx)
	if err == nil {
		err = sameIDs(ids, want)
	}
	check("list", err)
	ref, err := rebuild(w, want)
	if err == nil {
		err = compareBounds(ctx, seed, w, ref, ask)
	}
	check("serial rebuild", err)
	closeAll(side)

	_ = s.cl.Close()
	s.cl = nil
	s.fleet.stop()
	if s.fleet, err = bootFleet(w, bin, s.dir, false); err == nil {
		s.cl, err = dialBinary(s.fleet.front.addr)
	}
	if err == nil {
		ids, err = s.cl.List(ctx)
	}
	if err == nil {
		err = sameIDs(ids, want)
	}
	check("kill -9 and restart", err)
	return checks, failures
}
