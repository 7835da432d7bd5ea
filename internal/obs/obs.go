// Package obs is the dependency-free observability layer of the CAC
// daemon: a metrics registry (atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition) and a structured per-admission
// trace API (see trace.go).
//
// The paper's admission procedure (Section 4.3) is judged by its measured
// behavior — utilization, rejection rates, per-hop check cost — so every
// admission decision the daemon makes flows through one obs.Tracer and
// lands in one Registry. Nothing here imports another atmcac package, so
// core, wire, journal and overload can all emit into it without cycles, and
// nothing external is required: the exposition is plain Prometheus text
// over net/http from the standard library.
//
// Metric naming convention: atmcac_<subsystem>_<quantity>[_<unit>], with
// _total for counters, _seconds for latency histograms, and label values
// drawn from the stable taxonomies (rejection codes, overload classes).
package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Label sets are small and fixed (outcome,
// code, class, op); the registry canonicalizes them into the series key.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket latency/size distribution. Observations are
// lock-free; the bucket layout is immutable after creation. Buckets follow
// the Prometheus convention: an observation lands in the first bucket whose
// upper bound is >= the value (le is inclusive), and exposition emits
// cumulative counts plus the implicit +Inf bucket, _sum and _count.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (tens); linear scan beats binary search at this size
	// and keeps the hot path branch-predictable.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the non-cumulative per-bucket counts; the final
// element is the +Inf bucket. The slice is a snapshot, not live.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for i := range h.bounds {
		out[i] = h.buckets[i].Load()
	}
	out[len(h.bounds)] = h.inf.Load()
	return out
}

// DefLatencyBuckets spans 1µs to 2.5s: the fast path (lock-free CAC checks,
// unsynced journal appends) sits in the low microseconds, group-commit
// fsyncs and compactions in the milliseconds, and full-ring admissions
// under churn can reach high milliseconds.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// DefSlackBuckets grades queueing-bound slack in cell times: how far the
// computed bound D'(j,p) sat below the guarantee D(j,p) at admission.
var DefSlackBuckets = []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// DefCountBuckets grades small cardinalities: operations coalesced per
// group-commit fsync, items per batch request.
var DefCountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// metricKind discriminates the exposition type of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// family is one named metric with all its label series.
type family struct {
	name   string
	kind   metricKind
	help   string
	series map[string]any // canonical label string -> *Counter/*Gauge/*Histogram/func() float64
}

// Registry holds metric families. All methods are safe for concurrent use;
// metric lookup takes a short lock, while updating a retrieved metric is
// lock-free. Keep the returned handles when the call site is hot.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order is not stable; exposition sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// canonLabels renders labels in sorted-key Prometheus form: {k="v",...}.
func canonLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the series slot for (name, labels), creating family and
// series as needed. A name registered with one kind cannot be reused with
// another; that is a programming error and panics early.
func (r *Registry) lookup(name string, kind metricKind, labels []Label, make func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	key := canonLabels(labels)
	m, ok := f.series[key]
	if !ok {
		m = make()
		f.series[key] = m
	}
	return m
}

// Counter returns (creating on first use) the counter series for the name
// and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read by calling fn at scrape
// time — for state that already has an authoritative owner (limiter token
// level, journal size) where mirroring into a stored gauge would race the
// owner. fn must be safe for concurrent use. Re-registering the same
// (name, labels) replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kindGaugeFunc, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kindGaugeFunc {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
	}
	f.series[canonLabels(labels)] = fn
}

// Histogram returns (creating on first use) the histogram series with the
// given bucket upper bounds. bounds must be sorted ascending; they are
// fixed by the first registration of the family and later calls reuse them.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, labels, func() any {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds))
		return h
	}).(*Histogram)
}

// Help sets the HELP line of a family (optional; families without help
// expose only the TYPE line).
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	}
}

// snapshotFamilies copies the family table, each family with its own copy
// of the series map, so exposition can run without holding the registry
// lock while formatting: lookup inserts first-seen label series into the
// live maps at any time, and metric reads themselves are atomic.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, name := range r.order {
		f := *r.families[name]
		f.series = maps.Clone(f.series)
		out = append(out, &f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// seriesKeys returns a family's label keys in sorted order.
func (f *family) seriesKeys() []string {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in deterministic order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		typ := "untyped"
		switch f.kind {
		case kindCounter:
			typ = "counter"
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		for _, key := range f.seriesKeys() {
			if err := writeSeries(w, f, key); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one label series of a family.
func writeSeries(w io.Writer, f *family, key string) error {
	switch m := f.series[key].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m.Value()))
		return err
	case func() float64:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(m()))
		return err
	case *Histogram:
		// Cumulative buckets; le labels merge with the series labels.
		counts := m.BucketCounts()
		var cum uint64
		for i, b := range m.Bounds() {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.name, mergeLE(key, formatFloat(b)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLE(key, "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, key, formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, key, m.Count())
		return err
	}
	return nil
}

// mergeLE inserts the le label into a canonical label string.
func mergeLE(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float compactly ("0.005", not "5e-03") while
// keeping full precision, matching common Prometheus client output.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot flattens the registry into metric-name -> value: counters and
// gauges directly, histograms as <name>_count and <name>_sum. It backs the
// health operation's counter snapshot and /debug/vars.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.snapshotFamilies() {
		for _, key := range f.seriesKeys() {
			switch m := f.series[key].(type) {
			case *Counter:
				out[f.name+key] = float64(m.Value())
			case *Gauge:
				out[f.name+key] = m.Value()
			case func() float64:
				out[f.name+key] = m()
			case *Histogram:
				out[f.name+key+"_count"] = float64(m.Count())
				out[f.name+key+"_sum"] = m.Sum()
			}
		}
	}
	return out
}

// Handler serves the Prometheus text exposition (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// VarsHandler serves the flattened snapshot as JSON (mount at /debug/vars).
// Keys are written in sorted order so scrapes diff cleanly.
func (r *Registry) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		snap := r.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "{")
		for i, k := range keys {
			comma := ","
			if i == len(keys)-1 {
				comma = ""
			}
			fmt.Fprintf(w, "  %q: %s%s\n", k, formatFloat(snap[k]), comma)
		}
		fmt.Fprintln(w, "}")
	})
}
