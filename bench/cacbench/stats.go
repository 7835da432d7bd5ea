package main

import (
	"math"
	"sort"
	"time"
)

// window is about how long one slice of a timed phase is. The reference
// box is a few cores of a shared host whose speed drifts by a third over
// seconds: neighbours only ever add time, so each phase is cut into
// windows, every window gives one value, and what is reported is the
// quartile of the window values on the undisturbed side (quietShare).
// Between runs of the same code it repeats up to twice as well as the
// median over the phase and never worse (bench/README.md has the record).
const (
	window     = time.Second
	quietShare = 0.25
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest value with at least p of the sample at
// or below it. It returns NaN on an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for an even
// count); NaN when empty. It does not modify its argument.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sample is one completed operation of a timed phase: when it was due
// (open loop) or started (closed loop) and when its answer arrived, both
// as offsets from the phase start.
type sample struct {
	kind  opKind
	start time.Duration
	done  time.Duration
}

func (s sample) latencyMs() float64 {
	return float64(s.done-s.start) / float64(time.Millisecond)
}

// windowsIn says how many windows a phase of the given length is cut
// into: whole, equal, each about one window long, at least one.
func windowsIn(phase time.Duration) int {
	return max(1, int((phase+window/2)/window))
}

// windowOf maps an offset into a phase onto its window index, clamping
// stragglers past the end into the last window.
func windowOf(at, phase time.Duration) int {
	if phase <= 0 {
		return 0
	}
	n := windowsIn(phase)
	return min(max(int(int64(at)*int64(n)/int64(phase)), 0), n-1)
}

// quietLatency groups the samples accepted by keep into windows by their
// start offset, takes percentile p of the latencies inside each window,
// and returns the lower quartile of the window values plus the total
// sample count. Empty windows are left out.
func quietLatency(samples []sample, phase time.Duration, keep func(opKind) bool, p float64) (ms float64, n int) {
	byWin := make([][]float64, windowsIn(phase))
	for _, s := range samples {
		if !keep(s.kind) {
			continue
		}
		i := windowOf(s.start, phase)
		byWin[i] = append(byWin[i], s.latencyMs())
		n++
	}
	var vals []float64
	for _, lat := range byWin {
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		vals = append(vals, percentile(lat, p))
	}
	sort.Float64s(vals)
	return percentile(vals, quietShare), n
}

// quietRate counts the samples finishing inside each window and returns
// the upper quartile of the windows' completions per second plus the
// total count.
func quietRate(samples []sample, phase time.Duration) (perSecond float64, n int) {
	counts := make([]int, windowsIn(phase))
	for _, s := range samples {
		if s.done > phase {
			continue // finished after the phase closed; not this phase's throughput
		}
		counts[windowOf(s.done, phase)]++
		n++
	}
	winLen := phase.Seconds() / float64(len(counts))
	vals := make([]float64, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, float64(c)/winLen)
	}
	sort.Float64s(vals)
	return percentile(vals, 1-quietShare), n
}

// phasePercentile is percentile p of the latencies of every sample keep
// accepts, over the whole phase: what the tails are reported as, since a
// stall is exactly what a tail is there to show.
func phasePercentile(samples []sample, keep func(opKind) bool, p float64) (ms float64, n int) {
	var lat []float64
	for _, s := range samples {
		if keep(s.kind) {
			lat = append(lat, s.latencyMs())
		}
	}
	sort.Float64s(lat)
	return percentile(lat, p), len(lat)
}
