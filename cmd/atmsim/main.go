// Command atmsim drives the simulation-side experiment tooling.
//
// Usage:
//
//	atmsim [validate] [-ring N] [-terminals N] [-load B] [-slots N] [-mode greedy|random] [-seed N]
//	atmsim workload -kind gamma|mmpp|diurnal [-seed N] [-n N] [kind flags...]
//	atmsim hypothesis list
//	atmsim hypothesis run [-scale smoke|full] [-out DIR] [name ...]
//
// validate (the default when the first argument is a flag) admits a
// symmetric RTnet cyclic workload with the bit-stream CAC, then drives the
// identical connection set through a simulated priority-FIFO ring with
// conforming sources and compares the measured worst-case delays and
// occupancies against the computed bounds. Exit status 0 when every
// guarantee holds, 2 when a measured quantity exceeds its bound (which
// would falsify the analysis).
//
// workload prints a seeded deterministic arrival sequence as TSV
// (index, time), for inspecting generator behaviour and pinning fixtures.
//
// hypothesis runs registered falsifiable experiments from fixed seeds and
// optionally writes their FINDINGS.md artifacts. Exit status 2 when any
// predicate falsifies its hypothesis.
package main

import (
	"flag"
	"fmt"
	"os"

	"atmcac/internal/experiments"
	"atmcac/internal/hypothesis"
	"atmcac/internal/sim"
	"atmcac/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "validate":
			return runValidate(args[1:])
		case "workload":
			return runWorkload(args[1:])
		case "hypothesis":
			return runHypothesis(args[1:])
		}
	}
	// Legacy spelling: bare flags imply validate.
	return runValidate(args)
}

func runValidate(args []string) int {
	fs := flag.NewFlagSet("atmsim validate", flag.ContinueOnError)
	var (
		ring      = fs.Int("ring", 8, "ring nodes")
		terminals = fs.Int("terminals", 2, "terminals per ring node")
		load      = fs.Float64("load", 0.4, "total normalized cyclic load")
		slots     = fs.Uint64("slots", 50000, "simulated cell slots")
		mode      = fs.String("mode", "greedy", "source mode: greedy or random")
		seed      = fs.Int64("seed", 1, "seed for random mode")
		trace     = fs.String("trace", "", "write a per-cell event trace (CSV) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	var srcMode sim.SourceMode
	switch *mode {
	case "greedy":
		srcMode = sim.Greedy
	case "random":
		srcMode = sim.Random
	default:
		fmt.Fprintf(os.Stderr, "atmsim: unknown mode %q\n", *mode)
		return 1
	}
	cfg := experiments.ValidationConfig{
		RingNodes:  *ring,
		Terminals:  *terminals,
		Load:       *load,
		Slots:      *slots,
		Mode:       srcMode,
		Seed:       *seed,
		Histograms: true,
	}
	var tracer *sim.CSVTracer
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atmsim:", err)
			return 1
		}
		defer f.Close()
		tracer = sim.NewCSVTracer(f)
		cfg.Tracer = tracer
	}
	res, err := experiments.ValidateRTnet(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		return 1
	}
	fmt.Println(res)
	if res.Feasible {
		fmt.Printf("measured delay percentiles: p50=%d p99=%d (slots); worst case bound %.1f\n",
			res.DelayP50, res.DelayP99, res.AnalyticBound)
	}
	if tracer != nil {
		if err := tracer.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "atmsim: trace:", err)
			return 1
		}
		fmt.Printf("trace: %d events written to %s\n", tracer.Events, *trace)
	}
	if !res.Feasible {
		fmt.Println("workload rejected by the CAC; lower -load or -terminals")
		return 1
	}
	if !res.Holds() {
		fmt.Println("GUARANTEE VIOLATED: measured behaviour exceeds the analytic bounds")
		return 2
	}
	fmt.Println("all analytic guarantees hold")
	return 0
}

func runWorkload(args []string) int {
	fs := flag.NewFlagSet("atmsim workload", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "gamma", "arrival process: gamma, mmpp, or diurnal")
		seed      = fs.Uint64("seed", 42, "generator seed")
		n         = fs.Int("n", 100, "arrivals to emit")
		rate      = fs.Float64("rate", 1, "gamma: mean arrival rate")
		cv        = fs.Float64("cv", 1, "gamma: interarrival coefficient of variation")
		quiet     = fs.Float64("quiet-rate", 0.5, "mmpp: quiet-state rate")
		burst     = fs.Float64("burst-rate", 20, "mmpp: burst-state rate")
		meanQuiet = fs.Float64("mean-quiet", 40, "mmpp: mean quiet sojourn")
		meanBurst = fs.Float64("mean-burst", 5, "mmpp: mean burst sojourn")
		base      = fs.Float64("base", 1, "diurnal: envelope base rate")
		amplitude = fs.Float64("amplitude", 0.8, "diurnal: envelope amplitude [0,1)")
		period    = fs.Float64("period", 100, "diurnal: envelope period")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	var arrivals workload.Arrivals
	var err error
	switch *kind {
	case "gamma":
		arrivals, err = workload.NewGamma(*seed, workload.GammaConfig{Rate: *rate, CV: *cv})
	case "mmpp":
		arrivals, err = workload.NewMMPP(*seed, workload.MMPPConfig{
			QuietRate: *quiet, BurstRate: *burst,
			MeanQuiet: *meanQuiet, MeanBurst: *meanBurst,
		})
	case "diurnal":
		arrivals, err = workload.NewDiurnal(*seed, workload.Envelope{
			Base: *base, Amplitude: *amplitude, Period: *period,
		})
	default:
		fmt.Fprintf(os.Stderr, "atmsim: unknown workload kind %q\n", *kind)
		return 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		return 1
	}
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "atmsim: -n must be >= 1")
		return 1
	}
	fmt.Println("index\ttime")
	for i, t := range workload.Times(arrivals, *n) {
		fmt.Printf("%d\t%.9g\n", i, t)
	}
	return 0
}

func runHypothesis(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "atmsim: hypothesis needs a verb: list or run")
		return 1
	}
	switch args[0] {
	case "list":
		for _, h := range hypothesis.Hypotheses() {
			fmt.Printf("%s\t%s\n", h.Name, h.Title)
		}
		return 0
	case "run":
		return runHypothesisRun(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "atmsim: unknown hypothesis verb %q\n", args[0])
		return 1
	}
}

func runHypothesisRun(args []string) int {
	fs := flag.NewFlagSet("atmsim hypothesis run", flag.ContinueOnError)
	var (
		scaleFlag = fs.String("scale", "smoke", "run scale: smoke or full")
		out       = fs.String("out", "", "write <name>/FINDINGS.md artifacts under this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	scale, err := hypothesis.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		return 1
	}
	var selected []*hypothesis.Hypothesis
	if names := fs.Args(); len(names) > 0 {
		for _, name := range names {
			h, ok := hypothesis.LookupHypothesis(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "atmsim: unknown hypothesis %q (try: atmsim hypothesis list)\n", name)
				return 1
			}
			selected = append(selected, h)
		}
	} else {
		selected = hypothesis.Hypotheses()
	}
	falsified := 0
	for _, h := range selected {
		rep, err := hypothesis.RunHypothesis(h, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "atmsim:", err)
			return 1
		}
		status := "CONFIRMED"
		if !rep.Confirmed() {
			status = "FALSIFIED"
			falsified++
		}
		fmt.Printf("%s\t%s\t(scale %s, seeds %d)\n", status, h.Name, scale, len(h.Seeds))
		for _, fail := range rep.FailedChecks() {
			fmt.Printf("  FAIL %s\n", fail)
		}
		if *out != "" {
			path, err := rep.WriteFindingsFile(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "atmsim:", err)
				return 1
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	if falsified > 0 {
		fmt.Printf("%d of %d hypotheses falsified\n", falsified, len(selected))
		return 2
	}
	return 0
}
