// Package bitstream implements the bit-stream traffic model of Zheng et al.,
// "Connection Admission Control for Hard Real-Time Communication in ATM
// Networks" (MERL TR-96-21 / ICDCS 1997).
//
// A bit stream S = {(r(k), t(k)); k = 0..m} represents a worst-case traffic
// envelope as a monotone non-increasing, step-wise rate function of time: the
// stream has rate r(k) during [t(k), t(k+1)), with t(m+1) = +inf. Time is
// measured in cell times (the time to transmit one ATM cell at full link
// bandwidth) and rates are normalized so that the link bandwidth is 1.
//
// The monotonicity invariant is what makes the paper's analysis tractable:
// filtering and worst-case delay have a single busy period, and the queueing
// delay bound of Algorithm 4.1 is reached at a unique crossing point.
//
// The package provides the complete algebra of the paper:
//
//   - FromVBR: Algorithm 2.1, the worst-case envelope of a (PCR, SCR, MBS)
//     connection.
//   - Stream.Delayed: Algorithm 3.1, worst-case clumping after an accumulated
//     cell delay variation CDV.
//   - Add / Sum: Algorithm 3.2, multiplexing.
//   - Sub: Algorithm 3.3, demultiplexing.
//   - Stream.Filtered: Algorithm 3.4, smoothing by a unit-bandwidth link.
//   - DelayBound: Algorithm 4.1, the worst-case queueing delay at a
//     static-priority FIFO queueing point.
//   - MaxBacklog: the companion buffer bound (AREA1 of the paper's Figure 7).
//
// Every rate is rounded up to a multiple of 2⁻³² where it is made, which
// only widens an envelope, so every bound stays sound. Sums and differences
// of such rates are exact below a ceiling of 2²¹ link rates (2²¹·2³² = 2⁵³):
// there Sum does not depend on the order of its arguments and
// Sub(Sum(xs...), x) is exactly the Sum of the rest. An aggregate kept up to
// date by Add and Sub, as the paper's CAC state is, must stay under it.
//
// Admission re-runs Algorithms 3.1, 3.2 and 3.4 on every setup, so each
// operation that builds a stream allocates its segments once: Sum and Sub
// merge their inputs' breakpoints, which are already sorted, and the
// constructors hand the slice they build to the same validation New runs
// instead of having New copy it.
package bitstream

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Eps is the numerical tolerance for times, the crossing points of
// Algorithms 3.1, 3.4 and 4.1, and checks of a rate against the link rate.
// Rates are compared exactly.
const Eps = 1e-9

// onGrid rounds a rate up to the next multiple of 2⁻³². A rate of 2²¹ or
// more is one already; a rate that is not positive is left for validation.
func onGrid(r float64) float64 {
	if r > 0 && r < 1<<21 {
		return math.Ceil(r*0x1p32) / 0x1p32
	}
	return r
}

var (
	// ErrInvalidStream reports a stream that violates the bit-stream model
	// invariants (t(0) != 0, non-increasing breakpoints, increasing or
	// negative rates).
	ErrInvalidStream = errors.New("bitstream: invalid stream")

	// ErrRateAboveLink reports an operation that requires a stream already
	// conforming to a unit-bandwidth link (rate <= 1 everywhere), applied to
	// a stream that exceeds it.
	ErrRateAboveLink = errors.New("bitstream: stream rate exceeds link bandwidth")

	// ErrNotComponent reports a demultiplexing (Sub) whose result would not
	// be a valid bit stream; the subtrahend was not a component of the
	// aggregate.
	ErrNotComponent = errors.New("bitstream: subtrahend is not a component of the aggregate")

	// ErrUnstable reports a queueing point whose long-run arrival rate
	// exceeds the long-run service rate: the queueing delay is unbounded.
	ErrUnstable = errors.New("bitstream: queueing point is unstable (unbounded delay)")

	// ErrNegative reports a negative parameter (CDV, rate, time).
	ErrNegative = errors.New("bitstream: negative parameter")
)

// Segment is one step of a bit stream: the stream has rate Rate from time
// Start until the start of the next segment (or forever, for the last one).
type Segment struct {
	Start float64 `json:"t"` // cell times
	Rate  float64 `json:"r"` // normalized to link bandwidth
}

// Stream is a canonical bit stream: segment starts are strictly increasing
// beginning at 0, and rates are strictly decreasing. The zero value is the
// empty stream (rate 0 everywhere).
type Stream struct {
	segs []Segment
}

// New validates and canonicalizes segs into a Stream. The segments must start
// at time 0, have strictly increasing start times, finite non-negative rates,
// and non-increasing rates once rounded up to the rate grid. Adjacent
// segments with equal rates are merged. New does not retain segs.
func New(segs []Segment) (Stream, error) {
	return own(slices.Clone(segs))
}

// own is New for a slice the caller hands over: it rounds the rates up to
// the grid, validates segs, merges equal rates in place, and the Stream it
// returns keeps segs' array. Every constructor builds a fresh slice and
// passes it here, so each stream costs one allocation.
func own(segs []Segment) (Stream, error) {
	if len(segs) == 0 {
		return Stream{}, nil
	}
	if segs[0].Start != 0 {
		return Stream{}, fmt.Errorf("%w: first segment starts at %g, want 0", ErrInvalidStream, segs[0].Start)
	}
	for i := range segs {
		segs[i].Rate = onGrid(segs[i].Rate)
		sg := segs[i]
		if math.IsNaN(sg.Rate) || math.IsInf(sg.Rate, 0) || sg.Rate < 0 {
			return Stream{}, fmt.Errorf("%w: segment %d has rate %g", ErrInvalidStream, i, sg.Rate)
		}
		if math.IsNaN(sg.Start) || math.IsInf(sg.Start, 0) || sg.Start < 0 {
			return Stream{}, fmt.Errorf("%w: segment %d has start %g", ErrInvalidStream, i, sg.Start)
		}
		if i > 0 {
			if sg.Start <= segs[i-1].Start {
				return Stream{}, fmt.Errorf("%w: segment %d start %g <= previous start %g",
					ErrInvalidStream, i, sg.Start, segs[i-1].Start)
			}
			if sg.Rate > segs[i-1].Rate {
				return Stream{}, fmt.Errorf("%w: segment %d rate %g > previous rate %g (must be non-increasing)",
					ErrInvalidStream, i, sg.Rate, segs[i-1].Rate)
			}
		}
	}
	out := segs[:0]
	for _, sg := range segs {
		if n := len(out); n > 0 && out[n-1].Rate == sg.Rate {
			continue // same rate: extend previous segment
		}
		out = append(out, sg)
	}
	// An all-zero stream canonicalizes to the empty stream.
	if len(out) == 1 && out[0].Rate == 0 {
		return Stream{}, nil
	}
	return Stream{segs: out}, nil
}

// Constant returns the stream with constant rate r (>= 0), rounded up to
// the rate grid.
func Constant(r float64) Stream {
	if r == 0 {
		return Stream{}
	}
	return Stream{segs: []Segment{{Start: 0, Rate: onGrid(r)}}}
}

// Zero returns the empty stream (rate 0 everywhere).
func Zero() Stream { return Stream{} }

// FromVBR implements Algorithm 2.1: the bit stream bounding the worst-case
// traffic generation of a VBR connection with peak cell rate pcr, sustainable
// cell rate scr and maximum burst size mbs (cells). The result is
//
//	S = {(1, 0), (PCR, 1), (SCR, 1 + (MBS-1)/PCR)}
//
// A CBR connection is the special case scr == pcr (mbs is then irrelevant).
// Requirements: 0 < scr <= pcr <= 1 and mbs >= 1.
func FromVBR(pcr, scr, mbs float64) (Stream, error) {
	switch {
	case !(pcr > 0) || pcr > 1+Eps:
		return Stream{}, fmt.Errorf("%w: PCR %g not in (0, 1]", ErrInvalidStream, pcr)
	case !(scr > 0) || scr > pcr+Eps:
		return Stream{}, fmt.Errorf("%w: SCR %g not in (0, PCR=%g]", ErrInvalidStream, scr, pcr)
	case !(mbs >= 1):
		return Stream{}, fmt.Errorf("%w: MBS %g < 1", ErrInvalidStream, mbs)
	}
	if scr > pcr {
		scr = pcr // clamp tolerance case
	}
	if pcr > 1 {
		pcr = 1
	}
	tail := 1 + (mbs-1)/pcr // end of the PCR burst
	segs := append(make([]Segment, 0, 3), Segment{Start: 0, Rate: 1})
	if tail > 1 {
		segs = append(segs, Segment{Start: 1, Rate: pcr})
		segs = append(segs, Segment{Start: tail, Rate: scr})
	} else {
		// MBS == 1: the single-cell burst is the initial unit-rate cell.
		segs = append(segs, Segment{Start: 1, Rate: scr})
	}
	return own(segs)
}

// Len returns the number of segments.
func (s Stream) Len() int { return len(s.segs) }

// IsZero reports whether the stream carries no traffic.
func (s Stream) IsZero() bool { return len(s.segs) == 0 }

// Segments returns a copy of the stream's segments.
func (s Stream) Segments() []Segment {
	out := make([]Segment, len(s.segs))
	copy(out, s.segs)
	return out
}

// RateAt returns r(t), the stream rate at time t (cell times).
func (s Stream) RateAt(t float64) float64 {
	if t < 0 {
		return 0
	}
	r := 0.0
	for _, sg := range s.segs {
		if sg.Start > t {
			break
		}
		r = sg.Rate
	}
	return r
}

// TailRate returns the long-run rate of the stream (the rate of the final
// segment), which governs stability of queueing points fed by it.
func (s Stream) TailRate() float64 {
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[len(s.segs)-1].Rate
}

// PeakRate returns the maximum instantaneous rate, r(0).
func (s Stream) PeakRate() float64 {
	if len(s.segs) == 0 {
		return 0
	}
	return s.segs[0].Rate
}

// CumAt returns A(t) = integral of r over [0, t]: the worst-case number of
// cells the stream delivers during [0, t].
func (s Stream) CumAt(t float64) float64 {
	if t <= 0 {
		return 0
	}
	area := 0.0
	for i, sg := range s.segs {
		end := t
		if i+1 < len(s.segs) && s.segs[i+1].Start < t {
			end = s.segs[i+1].Start
		}
		if end <= sg.Start {
			break
		}
		area += sg.Rate * (end - sg.Start)
	}
	return area
}

// InvCum returns the earliest time t with A(t) >= cells: how long the
// worst case needs to deliver that many cells. It returns ok=false when the
// stream never accumulates that much (a finite stream, or cells < 0).
func (s Stream) InvCum(cells float64) (float64, bool) {
	if cells <= 0 {
		return 0, cells == 0
	}
	area := 0.0
	for i, sg := range s.segs {
		end := math.Inf(1)
		if i+1 < len(s.segs) {
			end = s.segs[i+1].Start
		}
		if sg.Rate > 0 {
			t := sg.Start + (cells-area)/sg.Rate
			if t <= end {
				return t, true
			}
		}
		if math.IsInf(end, 1) {
			return 0, false // zero tail rate: the stream ends short
		}
		area += sg.Rate * (end - sg.Start)
	}
	return 0, false
}

// Scaled returns the stream with every rate multiplied by f >= 0. Scaling is
// used to express homogeneous aggregates without repeated addition.
func (s Stream) Scaled(f float64) (Stream, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return Stream{}, fmt.Errorf("%w: scale factor %g", ErrNegative, f)
	}
	if f == 0 || s.IsZero() {
		return Stream{}, nil
	}
	segs := s.Segments()
	for i := range segs {
		segs[i].Rate *= f
	}
	return own(segs)
}

// String renders the stream as {(r0,t0),(r1,t1),...} in the paper's notation.
func (s Stream) String() string {
	if s.IsZero() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, sg := range s.segs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%.6g,%.6g)", sg.Rate, sg.Start)
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether the two streams describe the same rate function to
// within eps, comparing at every breakpoint of either stream.
func (s Stream) Equal(o Stream, eps float64) bool {
	for _, t := range mergedBreakpoints(s, o) {
		if math.Abs(s.RateAt(t)-o.RateAt(t)) > eps {
			return false
		}
		// Probe just after the breakpoint as well: two streams could agree
		// at breakpoints but use slightly different ones.
		if math.Abs(s.RateAt(t+2*eps)-o.RateAt(t+2*eps)) > eps {
			return false
		}
	}
	return true
}

func mergedBreakpoints(a, b Stream) []float64 {
	out := make([]float64, 0, len(a.segs)+len(b.segs))
	i, j := 0, 0
	for i < len(a.segs) || j < len(b.segs) {
		var t float64
		switch {
		case i >= len(a.segs):
			t = b.segs[j].Start
			j++
		case j >= len(b.segs):
			t = a.segs[i].Start
			i++
		case a.segs[i].Start < b.segs[j].Start:
			t = a.segs[i].Start
			i++
		case a.segs[i].Start > b.segs[j].Start:
			t = b.segs[j].Start
			j++
		default:
			t = a.segs[i].Start
			i++
			j++
		}
		if n := len(out); n == 0 || out[n-1] != t {
			out = append(out, t)
		}
	}
	return out
}
