package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total"); again != c {
		t.Fatalf("same (name, labels) returned a different counter")
	}
	if other := r.Counter("test_total", L("op", "x")); other == c {
		t.Fatalf("different labels returned the same counter")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	r.GaugeFunc("test_fn", func() float64 { return 7 })
	if got := r.Snapshot()["test_fn"]; got != 7 {
		t.Fatalf("gauge func snapshot = %v, want 7", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_total")
}

// TestHistogramBucketBoundaries is the bucket-boundary property test: for
// random bucket layouts and random observations (with values placed exactly
// on boundaries), every observation must land in the first bucket whose
// upper bound is >= the value (le inclusive), cumulative exposition counts
// must be monotonic and end at the total, and count/sum must match.
func TestHistogramBucketBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + rng.Intn(12)
		bounds := make([]float64, 0, nb)
		x := rng.Float64()
		for i := 0; i < nb; i++ {
			bounds = append(bounds, x)
			x += 0.01 + rng.Float64()
		}
		r := NewRegistry()
		h := r.Histogram("test_seconds", bounds)

		want := make([]uint64, len(bounds)+1)
		var wantSum float64
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(3) {
			case 0: // exactly on a boundary: must land in that bucket (inclusive le)
				v = bounds[rng.Intn(len(bounds))]
			case 1: // beyond the last bound: must land in +Inf
				v = bounds[len(bounds)-1] + rng.Float64() + 0.001
			default:
				v = rng.Float64() * (bounds[len(bounds)-1] + 1)
			}
			h.Observe(v)
			wantSum += v
			idx := len(bounds) // +Inf
			for j, b := range bounds {
				if v <= b {
					idx = j
					break
				}
			}
			want[idx]++
		}

		got := h.BucketCounts()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: bucket %d = %d, want %d (bounds %v)", trial, i, got[i], want[i], bounds)
			}
		}
		if h.Count() != uint64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, h.Count(), n)
		}
		if math.Abs(h.Sum()-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) {
			t.Fatalf("trial %d: sum = %v, want %v", trial, h.Sum(), wantSum)
		}

		// Cumulative exposition: monotonic, +Inf equals count.
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var prev, last uint64
		lines := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "test_seconds_bucket") {
				continue
			}
			lines++
			var cum uint64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
				t.Fatalf("trial %d: bad bucket line %q: %v", trial, line, err)
			}
			if cum < prev {
				t.Fatalf("trial %d: cumulative counts not monotonic: %q", trial, line)
			}
			prev, last = cum, cum
		}
		if lines != len(bounds)+1 {
			t.Fatalf("trial %d: %d bucket lines, want %d", trial, lines, len(bounds)+1)
		}
		if last != uint64(n) {
			t.Fatalf("trial %d: +Inf bucket = %d, want %d", trial, last, n)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("op", "y")).Add(2)
	r.Counter("b_total", L("op", "x")).Inc()
	r.Help("b_total", "ops by kind.")
	r.Gauge("a_gauge").Set(0.25)
	h := r.Histogram("c_seconds", []float64{0.01, 0.1})
	h.Observe(0.01) // boundary: le="0.01" is inclusive
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# TYPE a_gauge gauge",
		"a_gauge 0.25",
		"# HELP b_total ops by kind.",
		"# TYPE b_total counter",
		`b_total{op="x"} 1`,
		`b_total{op="y"} 2`,
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="0.01"} 1`,
		`c_seconds_bucket{le="0.1"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_sum 5.06",
		"c_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestHandlerAndVars(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", L("q", `a"b\c`)).Inc()
	r.Histogram("test_seconds", []float64{1}).Observe(0.5)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `test_total{q="a\"b\\c"} 1`) {
		t.Fatalf("label escaping broken:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var snap map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if snap["test_seconds_count"] != 1 || snap["test_seconds_sum"] != 0.5 {
		t.Fatalf("vars snapshot = %v", snap)
	}
}

// TestConcurrentObserveScrape drives writers against scrapers; run under
// -race -count=3 this is the registry's data-race certification. Every
// observation carries label values nobody has used before, so series are
// being inserted into their families for as long as the scrapers run.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	tr := NewMetricsTracer(r)
	stop := make(chan struct{})
	var observers, scrapers sync.WaitGroup

	for w := 0; w < 4; w++ {
		observers.Add(1)
		go func(w int) {
			defer observers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			kinds := []Kind{KindSetup, KindHopCheck, KindTeardown, KindShed, KindJournalAppend, KindRequest, KindReadmit}
			outcomes := []string{OutcomeAccepted, OutcomeRejected, OutcomeError, OutcomeOK}
			for i := 0; i < 60; i++ {
				fresh := fmt.Sprintf("%d-%d", w, i)
				tr.Trace(Event{
					Kind:     kinds[rng.Intn(len(kinds))],
					Outcome:  outcomes[rng.Intn(len(outcomes))],
					Code:     "code-" + fresh,
					Op:       "op-" + fresh,
					Class:    "class-" + fresh,
					Duration: time.Duration(rng.Intn(1000)) * time.Microsecond,
					Slack:    rng.Float64() * 100,
					Bytes:    int64(rng.Intn(512)),
					Retries:  rng.Intn(2),
				})
				runtime.Gosched() // let a scraper in between two insertions, whatever GOMAXPROCS is
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_ = r.Snapshot()
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	observers.Wait()
	close(stop)
	scrapers.Wait()

	// Internal consistency after the dust settles: setup outcomes sum to
	// the setup latency histogram count.
	snap := r.Snapshot()
	var outcomes float64
	for k, v := range snap {
		if strings.HasPrefix(k, "atmcac_admission_setups_total") {
			outcomes += v
		}
	}
	if outcomes != snap["atmcac_admission_setup_seconds_count"] {
		t.Fatalf("setup outcomes (%v) != setup histogram count (%v)", outcomes, snap["atmcac_admission_setup_seconds_count"])
	}
}

func TestMetricsTracerMapping(t *testing.T) {
	r := NewRegistry()
	tr := NewMetricsTracer(r)
	tr.Trace(Event{Kind: KindSetup, Outcome: OutcomeAccepted, Hops: 3, Duration: time.Millisecond})
	tr.Trace(Event{Kind: KindSetup, Outcome: OutcomeRejected, Code: "delay-bound"})
	tr.Trace(Event{Kind: KindHopCheck, Outcome: OutcomeAccepted, Slack: 4, Duration: time.Microsecond})
	tr.Trace(Event{Kind: KindHopCheck, Outcome: OutcomeRejected, Code: "queue-unstable"})
	tr.Trace(Event{Kind: KindTeardown, Outcome: OutcomeOK})
	tr.Trace(Event{Kind: KindFailLink, Evicted: 5})
	tr.Trace(Event{Kind: KindReadmit, Outcome: OutcomeAccepted, Crankback: 4, Retries: 1})
	tr.Trace(Event{Kind: KindReadmit, Outcome: OutcomeError})
	tr.Trace(Event{Kind: KindShed, Op: "setup", Class: "setup-low", Code: "overloaded-rate"})
	tr.Trace(Event{Kind: KindJournalAppend, Outcome: OutcomeOK, Duration: 40 * time.Microsecond, Bytes: 128})
	tr.Trace(Event{Kind: KindJournalAppend, Outcome: OutcomeError})
	// The group commit, not the append, counts the fsync.
	tr.Trace(Event{Kind: KindGroupCommit, Outcome: OutcomeOK, Records: 2, Duration: 40 * time.Microsecond})
	tr.Trace(Event{Kind: KindReplay, Restored: 7, Failed: 1, Records: 9})
	tr.Trace(Event{Kind: KindAudit, Violations: 2, Duration: time.Millisecond})

	snap := r.Snapshot()
	want := map[string]float64{
		`atmcac_admission_setups_total{outcome="accepted"}`:     1,
		`atmcac_admission_setups_total{outcome="rejected"}`:     1,
		`atmcac_admission_rejections_total{code="delay-bound"}`: 1,
		"atmcac_admission_hop_check_seconds_count":              2,
		"atmcac_admission_hop_slack_cells_count":                1, // only the accepted hop
		`atmcac_admission_teardowns_total{outcome="ok"}`:        1,
		"atmcac_failover_faillink_total":                        1,
		"atmcac_failover_evicted_total":                         5,
		"atmcac_failover_readmitted_total":                      1,
		"atmcac_failover_down_total":                            1,
		"atmcac_failover_readmit_attempts_total":                3, // (1+1) + (1+0)
		"atmcac_failover_crankback_hops_total":                  4,
		`atmcac_overload_shed_total{class="setup-low"}`:         1,
		"atmcac_journal_append_seconds_count":                   1,
		"atmcac_journal_fsync_seconds_count":                    1,
		"atmcac_journal_append_bytes_total":                     128,
		"atmcac_journal_append_errors_total":                    1,
		`atmcac_journal_group_commits_total{outcome="ok"}`:      1,
		"atmcac_recovery_restored_total":                        7,
		"atmcac_recovery_failed_total":                          1,
		"atmcac_recovery_journal_records_total":                 9,
		"atmcac_audit_violations":                               2,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %v, want %v", k, snap[k], v)
		}
	}
}
