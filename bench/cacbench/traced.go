package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// runTraced is the --trace 1 run: the per-layer budget. It replays the
// workload's seeded op stream in-process through each module with a span
// around every call, then drives a live fleet whose daemons serve
// /metrics for half the usual time and reads their counters and /proc
// around the timed phases. A second, scrape-free fleet gives the
// untraced closed-loop rate the tracing overhead is judged against.
func runTraced(ctx context.Context, w *workloadDef, cfg config) (runResult, error) {
	dir, err := os.MkdirTemp(outDir, "layers-")
	if err != nil {
		return runResult{}, err
	}
	defer os.RemoveAll(dir)
	lb := &layerBench{w: w, seed: cfg.seed, dir: dir, log: newSpanLog()}
	if err := lb.layers(ctx); err != nil {
		return runResult{}, err
	}
	if err := lb.log.write(filepath.Join(outDir, w.name+".trace.jsonl")); err != nil {
		return runResult{}, err
	}

	// Half the usual time on each of the two live fleets.
	p := newPlan(cfg.seed, cfg.seconds/2)

	// live boots a fleet, warms it up and hands the runner to body.
	live := func(withMetrics bool, body func(s *session, r *runner) error) (*runner, error) {
		gen, err := newGenerator(w, cfg.seed)
		if err != nil {
			return nil, err
		}
		s, _, err := setUp(ctx, w, gen, cfg.bin, outDir, withMetrics)
		if err != nil {
			return nil, err
		}
		defer s.close()
		r := newRunner(gen, wireExecutor(s.cl))
		if _, err := r.paced(ctx, p.warmSeed, w.pacedRate, p.warm); err != nil {
			return nil, err
		}
		return r, body(s, r)
	}

	var untraced []sample
	plain, err := live(false, func(_ *session, r *runner) error {
		untraced, err = r.saturate(ctx, p.sat)
		return err
	})
	if err != nil {
		return runResult{}, err
	}

	var (
		open            pacedResult
		closed          []sample
		start, mid, end counters
		cpu, rss        float64
	)
	traced, err := live(true, func(s *session, r *runner) error {
		if start, err = scrape(s.fleet); err != nil {
			return err
		}
		if open, err = r.paced(ctx, p.pacedSeed, w.pacedRate, p.paced); err != nil {
			return err
		}
		if mid, err = scrape(s.fleet); err != nil {
			return err
		}
		cpuMid, _, err := usage(s.fleet)
		if err != nil {
			return err
		}
		if closed, err = r.saturate(ctx, p.sat); err != nil {
			return err
		}
		if end, err = scrape(s.fleet); err != nil {
			return err
		}
		cpuEnd, peak, err := usage(s.fleet)
		cpu, rss = cpuEnd-cpuMid, peak
		return err
	})
	if err != nil {
		return runResult{}, err
	}

	res := runResult{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		failures:  append(plain.failures, traced.failures...),
	}
	res.metrics = append(res.metrics, lb.out...)
	res.metrics = append(res.metrics, fleetMetrics(start, mid, end, cpu, rss, open.samples, closed)...)
	res.metrics = append(res.metrics, clientMetrics(open, p.paced)...)

	// Attribution: how much of a client-observed setup the layers,
	// measured one at a time, add up to. The rest is queueing, scheduling
	// and whatever no span covers; it is reported, not hidden.
	get := func(name string) float64 {
		for _, m := range res.metrics {
			if m.name == name {
				return m.value
			}
		}
		panic(fmt.Sprintf("metric %s was never measured", name))
	}
	setupP50, _ := quietLatency(open.samples, p.paced, func(k opKind) bool { return k == opSetup }, 0.5)
	attributed := get("wire.stub_rtt_us")
	if w.sharded {
		attributed += (get("shard.local_setup_us") + get("shard.cross2_setup_us")) / 2
	} else {
		attributed += get("overload.acquire_ns")/1e3 + get("core.setup_us") + get("journal.append_us") +
			get("journal.fsync_us")/max(get("fleet.group_commit_size"), 1)
	}
	tracedRate, _ := quietRate(closed, p.sat)
	untracedRate, _ := quietRate(untraced, p.sat)
	res.metrics = append(res.metrics,
		metric{name: "attrib.unattributed_share", value: 1 - attributed/(setupP50*1e3), unit: "ratio"},
		metric{name: "attrib.trace_overhead_share", value: 1 - ratio(tracedRate, untracedRate), unit: "ratio"},
		// The traced run's own end-to-end view, for reading the budget
		// against; the bounded end-to-end metrics come from --trace 0.
		metric{name: "setup_p50_ms", value: setupP50, unit: "ms", n: count(open.samples)[opSetup]},
		metric{name: "sat_ops_s", value: tracedRate, unit: "1/s", n: len(closed)},
	)
	return res, nil
}
