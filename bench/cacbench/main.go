// Command cacbench is the repository's one admission benchmark: it builds
// cmd/cacd, boots a real fleet of daemons on loopback, drives it over one
// pipelined binary wire.Client connection with a seeded open-loop phase
// and a closed-loop phase, checks every answer, and prints every metric
// by name and unit. With --trace 1 it instead produces the per-layer
// budget: each module composed in-process from its public constructors
// with a span around every call, plus the daemons' own /metrics and
// /proc counters under the same load.
//
// Run it from the repository root:
//
//	go run ./bench/cacbench                         # all four workloads
//	go run ./bench/cacbench --workload churn_loaded --seed 7 --seconds 26 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (see BENCHMARK.json and
// bench/README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the cacd binary, the
// daemons' state files while they run, and the span files. It is
// git-ignored.
const outDir = "bench/out"

// A run boots and populates the fleet at least minSetups times, and keeps
// going while that is cheap (under setupBudget in total, at most
// maxSetups): setup_s is the median, and the last fleet is the one
// measured. An empty fleet comes up in milliseconds, where three tries
// would leave the median at the mercy of one slow exec.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.0 // seconds
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four in turn")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 26, "measured seconds per workload: 6% warm-up, 56% open loop, 38% closed loop")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced per-layer budget instead")
		cacd    = flag.String("cacd", "", "cacd binary to run instead of building cmd/cacd from this checkout (bench/ab.sh)")
	)
	flag.Parse()
	// One load process with no more threads than a small client has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, config{seed: *seed, seconds: *seconds, trace: *trace != 0, bin: *cacd}); err != nil {
		fmt.Fprintln(os.Stderr, "cacbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds %g: need at least 1", cfg.seconds)
	}
	todo := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []*workloadDef{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var err error
	if cfg.bin == "" {
		cfg.bin, err = buildCacd(outDir)
	} else {
		cfg.bin, err = filepath.Abs(cfg.bin)
	}
	if err != nil {
		return err
	}
	bench, err := loadContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	want := bench.EndToEnd
	if cfg.trace {
		want = bench.PerLayer
	}
	wrong := 0
	for _, w := range todo {
		var res runResult
		if cfg.trace {
			res, err = runTraced(ctx, w, cfg)
		} else {
			res, err = runWorkload(ctx, w, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := report(w, cfg, want, res); err != nil {
			return err
		}
		wrong += res.failed
	}
	if wrong > 0 {
		return fmt.Errorf("%d wrong or failed answers", wrong)
	}
	return nil
}

// runWorkload is one untraced run: set up the fleet several times,
// measure on the last, then run the end-of-workload oracles.
func runWorkload(ctx context.Context, w *workloadDef, cfg config) (runResult, error) {
	gen, err := newGenerator(w, cfg.seed)
	if err != nil {
		return runResult{}, err
	}
	var (
		s          *session
		setupTimes []float64
	)
	for spent := 0.0; len(setupTimes) < minSetups || (spent < setupBudget && len(setupTimes) < maxSetups); {
		if s != nil {
			s.close()
		}
		var took time.Duration
		if s, took, err = setUp(ctx, w, gen, cfg.bin, outDir, false); err != nil {
			return runResult{}, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		spent += took.Seconds()
	}
	defer func() { s.close() }()

	r := newRunner(gen, wireExecutor(s.cl))
	p := newPlan(cfg.seed, cfg.seconds)
	if _, err := r.paced(ctx, p.warmSeed, w.pacedRate, p.warm); err != nil {
		return runResult{}, err
	}
	open, err := r.paced(ctx, p.pacedSeed, w.pacedRate, p.paced)
	if err != nil {
		return runResult{}, err
	}
	closed, err := r.saturate(ctx, p.sat)
	if err != nil {
		return runResult{}, err
	}
	checks, failures := endChecks(ctx, s, r, cfg.seed, cfg.bin)
	res := runResult{
		metrics:   append(endToEnd(setupTimes, open, closed, p.paced, p.sat), clientMetrics(open, p.paced)...),
		attempted: r.attempted + checks,
		failed:    r.failed + len(failures),
		failures:  r.failures,
	}
	for _, f := range failures {
		res.failures = append(res.failures, f.Error())
	}
	return res, nil
}

// contract is the part of BENCHMARK.json cacbench itself reads: which
// metrics go on the JSON line of an untraced and of a traced run.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("%w: run cacbench from the repository root", err)
	}
	return c, json.Unmarshal(raw, &c)
}

// report prints the human-readable block and, as the last line, the JSON
// object of the benchmark contract: every end-to-end metric of
// BENCHMARK.json on an untraced run, every per-layer metric on a traced
// one.
func report(w *workloadDef, cfg config, want []contractMetric, res runResult) error {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	for _, m := range res.metrics {
		if m.n > 0 {
			fmt.Printf("%-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-28s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Printf("%-28s %14.6g %-6s %d of %d\n", "fail_share", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Println("FAIL:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, c := range want {
		i := slices.IndexFunc(res.metrics, func(m metric) bool { return m.name == c.Name })
		if i < 0 || res.metrics[i].unit != c.Unit {
			return fmt.Errorf("BENCHMARK.json names %s in %s, which this run did not measure", c.Name, c.Unit)
		}
		v := res.metrics[i].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no samples of that kind in this workload's mix
		}
		out.Metrics[c.Name] = value{v, c.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
