package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/wire"
	wl "atmcac/internal/workload"
)

// stream renders the first n ops of a workload's generator.
func stream(t *testing.T, w *workloadDef, seed uint64, n int) string {
	t.Helper()
	g, err := newGenerator(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range g.residents {
		fmt.Fprintf(&sb, "%+v\n", r)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%+v\n", g.next())
	}
	return sb.String()
}

func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(t, w, 7, 3000), stream(t, w, 7, 3000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different op streams", w.name)
		}
		if a == stream(t, w, 8, 3000) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestGeneratorKeepsTeardownsBehindTheirSetups(t *testing.T) {
	for _, w := range workloads {
		g, err := newGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		born := map[core.ConnID]int{}
		counts := map[opKind]int{}
		for i := 0; i < 20000; i++ {
			o := g.next()
			counts[o.kind]++
			switch o.kind {
			case opSetup:
				born[o.req.ID] = o.seq
			case opTeardown:
				at, ok := born[o.id]
				if !ok {
					t.Fatalf("%s: op %d tears down %s, which was never set up", w.name, o.seq, o.id)
				}
				if o.seq-at < minLive {
					t.Fatalf("%s: op %d tears down %s only %d ops after its setup", w.name, o.seq, o.id, o.seq-at)
				}
				delete(born, o.id)
			case opRefused:
				if o.req.DelayBound >= guaranteedSum(o.req.Route, o.req.Priority) {
					t.Fatalf("%s: refused setup %s is feasible", w.name, o.req.ID)
				}
			}
			if len(g.live) > maxLive {
				t.Fatalf("%s: %d churn connections live, cap is %d", w.name, len(g.live), maxLive)
			}
		}
		for _, s := range w.mix {
			if counts[s.kind] == 0 {
				t.Errorf("%s: the mix names %s but the stream has none", w.name, s.kind)
			}
		}
	}
}

func TestBenchmarkJSONNamesTheWorkloadsOfTheCode(t *testing.T) {
	bench, err := loadContract("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, cacbench %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in cacbench", i, w.Name, workloads[i].name)
		}
	}
	if len(bench.EndToEnd) == 0 || len(bench.PerLayer) == 0 {
		t.Error("BENCHMARK.json lists no metrics")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must give NaN, not a number")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestQuietQuartileIgnoresDisturbedWindows(t *testing.T) {
	// Eight one-second windows, 100 setups and 100 teardowns due in each;
	// a neighbour slows the host during five of them, which a median over
	// the phase would report and the quiet quartile must not.
	const phase = 8 * time.Second
	if got := windowsIn(phase); got != 8 {
		t.Fatalf("windowsIn(8s) = %d, want 8", got)
	}
	if got := windowsIn(8400 * time.Millisecond); got != 8 {
		t.Errorf("windowsIn(8.4s) = %d, want 8 equal windows, not a short ninth", got)
	}
	var samples []sample
	for i := 0; i < 800; i++ {
		start := time.Duration(i) * phase / 800
		lat := 2 * time.Millisecond
		if w := windowOf(start, phase); w >= 2 && w <= 6 {
			lat = 500 * time.Millisecond
		}
		samples = append(samples, sample{kind: opSetup, start: start, done: start + lat})
		samples = append(samples, sample{kind: opTeardown, start: start, done: start + time.Millisecond})
	}
	setups := func(k opKind) bool { return k == opSetup }
	p50, n := quietLatency(samples, phase, setups, 0.5)
	if p50 != 2 || n != 800 {
		t.Errorf("setup p50 = %g ms over %d samples, want the 2 ms of the quiet windows over 800", p50, n)
	}
	if p99, n := phasePercentile(samples, setups, 0.99); p99 != 500 || n != 800 {
		t.Errorf("setup p99 = %g ms over %d samples, want 500 over 800: a tail is taken over the whole phase, stalls included", p99, n)
	}
	// The half-second stall moves 50 completions out of window 2 and into
	// window 7; every other window completes 200.
	if rate, _ := quietRate(samples, phase); rate != 200 {
		t.Errorf("rate = %g ops/s, want the 200 of an undisturbed one-second window", rate)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: parallel legs
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "grandchild", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

// fakeClock is a manual clock for the open loop: sleeping advances it,
// and one chosen sleep overshoots the way a descheduled generator would.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps++
	if c.sleeps == c.stallAt {
		d += c.stall
	}
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueTimeAcrossAStall(t *testing.T) {
	w := findWorkload("churn_empty")
	gen, err := newGenerator(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		rate  = 1000.0
		stall = 50 * time.Millisecond
	)
	clock := &fakeClock{now: time.Unix(0, 0), stallAt: 20, stall: stall}
	// Answers arrive instantly, so all latency in this test is lateness
	// of the generator, which a send-time clock would hide.
	instant := func(_ context.Context, o op) answer {
		if o.kind == opSetup {
			return answer{adm: &wire.Admission{ID: o.req.ID, EndToEndGuaranteed: guaranteedSum(o.req.Route, o.req.Priority)}}
		}
		if o.kind == opRefused {
			return judgeableRefusal()
		}
		return answer{}
	}
	r := newRunner(gen, instant)
	r.now, r.sleep = clock.Now, clock.Sleep
	res, err := r.paced(context.Background(), 1, rate, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("instant executor failed %d ops: %v", r.failed, r.failures)
	}

	// The due times are exactly the seeded arrival process.
	arrivals, err := wl.NewGamma(1, wl.GammaConfig{Rate: rate, CV: 1})
	if err != nil {
		t.Fatal(err)
	}
	due := map[time.Duration]bool{}
	for _, s := range res.samples {
		due[s.start] = true
	}
	for i := 0; i < len(res.samples); i++ {
		if at := time.Duration(arrivals.Next() * float64(time.Second)); !due[at] {
			t.Fatalf("arrival %d due at %v has no sample: ops are not timed from their due time", i, at)
		}
	}
	// Ops that fell due while the generator was stalled carry the wait.
	late, worst := 0, time.Duration(0)
	for _, s := range res.samples {
		if lat := s.done - s.start; lat > 0 {
			late++
			worst = max(worst, lat)
		}
	}
	if late < 10 || worst < stall {
		t.Errorf("%d late ops, worst %v: a %v generator stall at 1000 ops/s must delay dozens of ops, the first by the whole stall", late, worst, stall)
	}
	lag := 0.0
	for _, l := range res.genLag {
		lag = max(lag, l)
	}
	if lag < 40 {
		t.Errorf("generator lag peaks at %g ms, want the stall to show", lag)
	}
}

func scanner(text string) *bufio.Scanner { return bufio.NewScanner(strings.NewReader(text)) }

func judgeableRefusal() answer {
	// What the client returns for a CAC rejection with the delay-bound code.
	return answer{err: refusal{}}
}

// refusal satisfies judge the way a *wire.RemoteError built by the client
// does; the oracle test below uses the real type.
type refusal struct{}

func (refusal) Error() string { return "refused" }
func (refusal) Unwrap() error { return core.ErrRejected }
func (refusal) As(target any) bool {
	if re, ok := target.(**wire.RemoteError); ok {
		*re = &wire.RemoteError{Op: "setup", Code: core.CodeDelayBound}
		return true
	}
	return false
}

func TestOracleCatchesAPlantedWrongAccept(t *testing.T) {
	w := findWorkload("churn_empty")
	gen, err := newGenerator(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	var refused, setup op
	for refused.req.ID == "" || setup.req.ID == "" {
		switch o := gen.next(); o.kind {
		case opRefused:
			refused = o
		case opSetup:
			setup = o
		}
	}
	good := &wire.Admission{ID: setup.req.ID, EndToEndGuaranteed: guaranteedSum(setup.req.Route, setup.req.Priority), EndToEndComputed: 3}
	if err := judge(setup, answer{adm: good}, 0); err != nil {
		t.Errorf("a correct accept was judged wrong: %v", err)
	}
	if err := judge(refused, judgeableRefusal(), 0); err != nil {
		t.Errorf("a correct refusal was judged wrong: %v", err)
	}

	planted := &wire.Admission{ID: refused.req.ID, EndToEndGuaranteed: guaranteedSum(refused.req.Route, refused.req.Priority)}
	if judge(refused, answer{adm: planted}, 0) == nil {
		t.Error("an infeasible setup that was accepted passed the oracle")
	}
	over := *good
	over.EndToEndComputed = over.EndToEndGuaranteed + 1
	if judge(setup, answer{adm: &over}, 0) == nil {
		t.Error("an accept whose computed bound exceeds its guarantee passed the oracle")
	}
	if judge(setup, answer{err: refusal{}}, 0) == nil {
		t.Error("a feasible setup that was refused passed the oracle")
	}
	if judge(refused, answer{err: errors.New("connection reset")}, 0) == nil {
		t.Error("a transport error on a to-be-refused setup passed as a refusal")
	}
	if judge(op{kind: opList}, answer{ids: make([]core.ConnID, 10)}, 11) == nil {
		t.Error("a list shorter than the resident set passed the oracle")
	}

	// The end-of-run set comparison catches a lost ack and a ghost.
	want := []core.ConnRequest{{ID: "a"}, {ID: "b"}}
	if sameIDs([]core.ConnID{"b", "a"}, want) != nil {
		t.Error("equal sets in different order were judged different")
	}
	if sameIDs([]core.ConnID{"a"}, want) == nil || sameIDs([]core.ConnID{"a", "b", "c"}, want) == nil {
		t.Error("a missing or an unexpected connection passed the list check")
	}
}

func TestRebuildRefusesAnInadmissibleSet(t *testing.T) {
	w := findWorkload("churn_empty")
	gen, err := newGenerator(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	fat := gen.next()
	for fat.kind != opSetup {
		fat = gen.next()
	}
	var set []core.ConnRequest
	for i := 0; i < 40; i++ {
		// Forty full-rate bursts from distinct terminals into one port
		// overflow a 4096-cell FIFO.
		req := fat.req
		req.ID = core.ConnID(fmt.Sprintf("fat-%d", i))
		req.Spec.PCR, req.Spec.SCR, req.Spec.MBS = 1, 0.02, 400
		route, err := gen.topo.SegmentRoute(0, i%terminalsPerNode, 1)
		if err != nil {
			t.Fatal(err)
		}
		req.Route, req.Priority = route, 1
		set = append(set, req)
	}
	if _, err := rebuild(w, set); err == nil {
		t.Error("the serial rebuild accepted a set that overflows a queue")
	}
	if _, err := rebuild(w, gen.residents); err != nil {
		t.Errorf("the serial rebuild refused an empty resident set: %v", err)
	}
}

func TestParsePromSumsSeriesAndSkipsBuckets(t *testing.T) {
	text := `# HELP atmcac_request_seconds x
# TYPE atmcac_request_seconds histogram
atmcac_request_seconds_bucket{op="setup",le="0.001"} 5
atmcac_request_seconds_sum{op="setup"} 0.25
atmcac_request_seconds_count{op="setup"} 10
atmcac_request_seconds_sum{op="teardown"} 0.5
atmcac_request_seconds_count{op="teardown"} 30
atmcac_journal_append_bytes_total 4096
`
	c := counters{}
	if err := parseProm(c, scanner(text)); err != nil {
		t.Fatal(err)
	}
	if c["atmcac_request_seconds_sum"] != 0.75 || c["atmcac_request_seconds_count"] != 40 || c["atmcac_journal_append_bytes_total"] != 4096 {
		t.Errorf("parsed %v", c)
	}
	if _, ok := c["atmcac_request_seconds_bucket"]; ok {
		t.Error("histogram buckets must be left out")
	}
}
