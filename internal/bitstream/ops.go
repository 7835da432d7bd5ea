package bitstream

import (
	"fmt"
	"math"
	"slices"
)

// Add implements Algorithm 3.2 (bit stream multiplexing) for two streams:
// the worst-case aggregate of two streams arriving at the same queueing
// point has rate r(t) = r1(t) + r2(t) at every instant. It is Sum(a, b).
func Add(a, b Stream) Stream { return Sum(a, b) }

// fanIn is how many non-zero inputs Sum merges with its cursors on the
// stack: enough for a ring node's output port, fed by 16 terminal links and
// the two ring inputs. More inputs cost one more allocation.
const fanIn = 18

// cursor is one input of Sum's merge: segs[i] is the segment in force at
// the merge's current breakpoint, rate its rate and next the start of
// segs[i+1], +Inf past the last.
type cursor struct {
	segs       []Segment
	i          int
	rate, next float64
}

// seek moves c to segment i.
func (c *cursor) seek(i int) {
	c.i, c.rate, c.next = i, c.segs[i].Rate, math.Inf(1)
	if i+1 < len(c.segs) {
		c.next = c.segs[i+1].Start
	}
}

// Sum multiplexes any number of streams in one k-way merge. A cursor per
// non-zero input walks that input's breakpoints, which are already in
// order; at each distinct breakpoint the rates in force are added in
// argument order, starting from 0, so the float result is a function of the
// arguments and their order. The output slice is the only allocation for up
// to fanIn arguments.
func Sum(streams ...Stream) Stream {
	var buf [fanIn]cursor
	cs := buf[:0]
	if len(streams) > fanIn {
		cs = make([]cursor, 0, len(streams))
	}
	total := 0
	for _, s := range streams {
		if !s.IsZero() {
			c := cursor{segs: s.segs}
			c.seek(0)
			cs = append(cs, c)
			total += len(s.segs)
		}
	}
	switch len(cs) {
	case 0:
		return Zero()
	case 1:
		return Stream{segs: cs[0].segs}
	}
	segs := make([]Segment, 0, total)
	for t := cs[0].segs[0].Start; ; {
		rate, next := 0.0, math.Inf(1)
		for i := range cs {
			c := &cs[i]
			if c.next <= t {
				c.seek(c.i + 1)
			}
			rate += c.rate
			if c.next < next {
				next = c.next
			}
		}
		segs = append(segs, Segment{Start: t, Rate: rate})
		if math.IsInf(next, 1) {
			break
		}
		t = next
	}
	out, err := own(segs)
	if err != nil {
		panic(fmt.Sprintf("bitstream: Sum produced invalid stream: %v", err))
	}
	return out
}

// Sub implements Algorithm 3.3 (bit stream demultiplexing): removing a
// component stream b from an aggregate a yields r(t) = ra(t) - rb(t),
// exactly below the package's ceiling. A negative or rising difference
// means b was not a component of a: Sub returns ErrNotComponent and clamps
// nothing. Like Sum, it merges its inputs' breakpoints with two cursors and
// allocates only its output.
func Sub(a, b Stream) (Stream, error) {
	if b.IsZero() {
		return a, nil
	}
	if a.IsZero() {
		return Stream{}, fmt.Errorf("%w: %v from the empty stream", ErrNotComponent, b)
	}
	ca, cb := cursor{segs: a.segs}, cursor{segs: b.segs}
	ca.seek(0)
	cb.seek(0)
	segs := make([]Segment, 0, len(a.segs)+len(b.segs))
	for t := 0.0; !math.IsInf(t, 1); t = min(ca.next, cb.next) {
		if ca.next <= t {
			ca.seek(ca.i + 1)
		}
		if cb.next <= t {
			cb.seek(cb.i + 1)
		}
		r := ca.rate - cb.rate
		if n := len(segs); r < 0 || n > 0 && r > segs[n-1].Rate {
			return Stream{}, fmt.Errorf("%w: the difference turns negative or rises, to rate %g at t=%g",
				ErrNotComponent, r, t)
		}
		segs = append(segs, Segment{Start: t, Rate: r})
	}
	return own(segs)
}

// Replace swaps one component of an aggregate for another: it returns
// Sum(Sub(agg, old), new), with the same segments and the same
// ErrNotComponent, in one merge of three cursors that allocates only its
// output. A swap that changes nothing — agg is old, or old is new —
// allocates nothing.
func Replace(agg, old, new Stream) (Stream, error) {
	if old.IsZero() {
		return Sum(agg, new), nil
	}
	if agg.IsZero() {
		return Stream{}, fmt.Errorf("%w: %v from the empty stream", ErrNotComponent, old)
	}
	if slices.Equal(agg.segs, old.segs) {
		return new, nil
	}
	// When old is new the merge only checks that old is a component.
	var segs []Segment
	keep := slices.Equal(old.segs, new.segs)
	if !keep {
		segs = make([]Segment, 0, len(agg.segs)+len(old.segs)+len(new.segs))
	}
	ca, co, cn := cursor{segs: agg.segs}, cursor{segs: old.segs}, cursor{segs: new.segs, next: math.Inf(1)}
	ca.seek(0)
	co.seek(0)
	if !new.IsZero() {
		cn.seek(0)
	}
	last := math.Inf(1)
	for t := 0.0; !math.IsInf(t, 1); t = min(ca.next, co.next, cn.next) {
		for _, c := range [...]*cursor{&ca, &co, &cn} {
			if c.next <= t {
				c.seek(c.i + 1)
			}
		}
		d := ca.rate - co.rate
		if d < 0 || d > last {
			return Stream{}, fmt.Errorf("%w: the difference turns negative or rises, to rate %g at t=%g",
				ErrNotComponent, d, t)
		}
		last = d
		if !keep {
			segs = append(segs, Segment{Start: t, Rate: d + cn.rate})
		}
	}
	if keep {
		return agg, nil
	}
	return own(segs)
}

// Delayed implements Algorithm 3.1: the worst-case distortion of the stream
// after passing through queueing points with an accumulated maximum delay
// variation cdv (cell times). In the worst case every bit generated during
// [0, cdv] is held until time cdv and then released at full link rate,
// producing
//
//	r'(t) = 1            for t in [0, t'-cdv)
//	r'(t) = r(t + cdv)   for t >= t'-cdv
//
// where t' is the instant all accumulated bits have drained: the smallest
// t >= cdv with A(t) = t - cdv (AREA1 = AREA2 in the paper's Figure 4).
//
// The stream must already conform to the link (rate <= 1 everywhere), which
// holds for every per-connection envelope produced by FromVBR.
func (s Stream) Delayed(cdv float64) (Stream, error) {
	if cdv < 0 || math.IsNaN(cdv) {
		return Stream{}, fmt.Errorf("%w: CDV %g", ErrNegative, cdv)
	}
	if cdv == 0 || s.IsZero() {
		return s, nil
	}
	if s.PeakRate() > 1+Eps {
		return Stream{}, fmt.Errorf("%w: peak rate %g", ErrRateAboveLink, s.PeakRate())
	}
	tPrime, drains := s.crossLine(cdv)
	if !drains {
		// r == 1 forever: the delayed stream is saturated at link rate.
		return Constant(1), nil
	}
	// Construct S': unit rate during [0, t'-cdv), then the original stream
	// shifted left by cdv. Rates are clamped to 1 to absorb the +Eps
	// tolerance admitted by the peak-rate guard above.
	clamp := func(r float64) float64 {
		if r > 1 {
			return 1
		}
		return r
	}
	segs := make([]Segment, 0, len(s.segs)+2)
	shift := tPrime - cdv
	if shift > 0 {
		segs = append(segs, Segment{Start: 0, Rate: 1})
		segs = append(segs, Segment{Start: shift, Rate: clamp(s.RateAt(tPrime))})
	} else {
		segs = append(segs, Segment{Start: 0, Rate: clamp(s.RateAt(cdv))})
	}
	for _, sg := range s.segs {
		if sg.Start > tPrime {
			segs = append(segs, Segment{Start: sg.Start - cdv, Rate: clamp(sg.Rate)})
		}
	}
	return own(segs)
}

// crossLine finds the smallest t >= offset with A(t) = t - offset, i.e. where
// the cumulative arrivals meet a unit-rate drain line started at time offset.
// The second return value is false when the stream never drains (tail rate
// >= 1).
func (s Stream) crossLine(offset float64) (float64, bool) {
	// f(t) = A(t) - (t - offset); f(offset) = A(offset) >= 0; f' = r(t) - 1.
	// With r <= 1 and monotone non-increasing, f is non-increasing for
	// t >= offset, so the first zero crossing is unique.
	area := 0.0 // A at segment start
	for i, sg := range s.segs {
		end := math.Inf(1)
		if i+1 < len(s.segs) {
			end = s.segs[i+1].Start
		}
		segStart := sg.Start
		segArea := area
		if segStart < offset {
			if end <= offset {
				area += sg.Rate * (end - segStart)
				continue
			}
			segArea += sg.Rate * (offset - segStart)
			segStart = offset
		}
		// Within [segStart, end): f(t) = segArea + rate*(t-segStart) - (t-offset).
		if sg.Rate < 1-Eps {
			t := segStart + (segArea-(segStart-offset))/(1-sg.Rate)
			if t <= end+Eps {
				if t < segStart {
					t = segStart
				}
				return t, true
			}
		}
		if !math.IsInf(end, 1) {
			area += sg.Rate * (end - sg.Start)
		}
	}
	// Ran out of segments with rate >= 1, or the final rate is < 1 but the
	// crossing computed above was within the last (infinite) segment and
	// was returned there. The only way to get here is tail rate >= 1-Eps.
	if s.TailRate() < 1-Eps {
		// Defensive: solve in the tail segment explicitly.
		last := s.segs[len(s.segs)-1]
		segStart := math.Max(last.Start, offset)
		segArea := s.CumAt(segStart)
		return segStart + (segArea-(segStart-offset))/(1-last.Rate), true
	}
	return 0, false
}

// Filtered implements Algorithm 3.4: the stream after passing through a
// transmission link of bandwidth 1 cell per cell time. While the incoming
// rate exceeds 1 a queue builds at the link; the output is capped at rate 1
// until the backlog drains at time t' (the smallest t > 0 with A(t) = t),
// after which the output equals the input:
//
//	r'(t) = 1      for t in [0, t')
//	r'(t) = r(t)   for t >= t'
//
// Filtering smooths aggregated streams and is what yields the tighter delay
// bounds the paper highlights. A stream that never drains (tail rate >= 1)
// filters to the saturated unit-rate stream.
func (s Stream) Filtered() Stream {
	if s.IsZero() || s.PeakRate() <= 1+Eps {
		return s
	}
	tPrime, drains := s.crossBusyPeriod()
	if !drains {
		return Constant(1)
	}
	segs := make([]Segment, 0, len(s.segs)+2)
	segs = append(segs, Segment{Start: 0, Rate: 1})
	if tPrime > 0 {
		segs = append(segs, Segment{Start: tPrime, Rate: s.RateAt(tPrime)})
	}
	for _, sg := range s.segs {
		if sg.Start > tPrime {
			segs = append(segs, Segment{Start: sg.Start, Rate: sg.Rate})
		}
	}
	out, err := own(segs)
	if err != nil {
		panic(fmt.Sprintf("bitstream: Filtered produced invalid stream: %v", err))
	}
	return out
}

// crossBusyPeriod finds the end of the initial busy period of a stream whose
// peak rate exceeds 1: the smallest t > 0 with A(t) = t after the rate has
// dropped below 1. Returns false when the backlog never drains.
func (s Stream) crossBusyPeriod() (float64, bool) {
	area := 0.0
	for i, sg := range s.segs {
		end := math.Inf(1)
		if i+1 < len(s.segs) {
			end = s.segs[i+1].Start
		}
		if sg.Rate < 1-Eps {
			// Within this segment: area + rate*(t-start) = t.
			t := sg.Start + (area-sg.Start)/(1-sg.Rate)
			if t <= end+Eps {
				if t < sg.Start {
					t = sg.Start
				}
				return t, true
			}
		}
		if math.IsInf(end, 1) {
			return 0, false // tail rate >= 1: never drains
		}
		area += sg.Rate * (end - sg.Start)
	}
	return 0, false
}

// DelayBound implements Algorithm 4.1: the worst-case queueing delay at a
// static-priority FIFO queueing point for the aggregated arriving stream s of
// priority p, given the filtered aggregated arriving stream higher of all
// priorities above p. The service available to s at time t is 1 - r1(t); a
// bit of s arriving at time t departs at g(t) with C(g(t)) = A(t), where
// C(t) = integral of (1 - r1), and the bound is max over t of g(t) - t.
//
// higher must conform to the link (rate <= 1; it is a filtered stream). For
// the highest priority level pass Zero(); the bound then reduces to the
// maximum backlog behind a unit-rate server (AREA1 of the paper's Figure 7).
//
// DelayBound returns ErrUnstable when the tail arrival rate exceeds the tail
// service rate, in which case the delay is unbounded.
func DelayBound(s, higher Stream) (float64, error) {
	if s.IsZero() {
		return 0, nil
	}
	if higher.PeakRate() > 1+Eps {
		return 0, fmt.Errorf("%w: higher-priority stream has peak rate %g (must be filtered)",
			ErrRateAboveLink, higher.PeakRate())
	}
	var (
		t, g float64 // current arrival instant and its worst-case departure
		best float64
		k    int // segment index into s
		k1   int // segment index into higher
	)
	hRateAt := func(i int) float64 {
		if higher.IsZero() {
			return 0
		}
		return higher.segs[i].Rate
	}
	hNext := func(i int) float64 {
		if higher.IsZero() || i+1 >= len(higher.segs) {
			return math.Inf(1)
		}
		return higher.segs[i+1].Start
	}
	sNext := func(i int) float64 {
		if i+1 >= len(s.segs) {
			return math.Inf(1)
		}
		return s.segs[i+1].Start
	}
	// Advance g to cover arrivals before the first s segment? s starts at 0
	// by canonical form, so t = g = 0 and C(0) = A(0) = 0 holds initially.
	for iter := 0; ; iter++ {
		if iter > 4*(len(s.segs)+higher.Len())+8 {
			// Each iteration advances k or k1 or terminates; this is a
			// defensive bound against float pathology.
			return 0, fmt.Errorf("bitstream: DelayBound failed to converge for S=%v, S1=%v", s, higher)
		}
		rate := s.segs[k].Rate
		srv := 1 - hRateAt(k1)
		if srv < 0 {
			srv = 0
		}
		if rate <= srv+Eps {
			// D(t) is non-increasing from here on (rate only decreases,
			// service only increases): the recorded maximum is final.
			return best, nil
		}
		if srv <= Eps {
			// No service while higher priority saturates the link: g jumps
			// to the end of the saturated interval.
			tn := hNext(k1)
			if math.IsInf(tn, 1) {
				return 0, ErrUnstable
			}
			k1++
			if tn > g {
				g = tn
			}
			if d := g - t; d > best {
				best = d
			}
			continue
		}
		tnS := sNext(k)  // next arrival-rate change (in t)
		tnH := hNext(k1) // next service-rate change (in g)
		dtS := tnS - t   // time until arrival-rate change
		dtH := math.Inf(1)
		if !math.IsInf(tnH, 1) {
			dtH = (tnH - g) * srv / rate // time until g reaches tnH
		}
		if math.IsInf(dtS, 1) && math.IsInf(dtH, 1) {
			return 0, ErrUnstable // rate > srv forever
		}
		switch {
		case dtH < dtS-Eps:
			t += dtH
			g = tnH
			k1++
		case dtS < dtH-Eps:
			g += rate * dtS / srv
			t = tnS
			k++
		default: // simultaneous (within tolerance)
			t = tnS
			g = tnH
			k++
			k1++
		}
		if d := g - t; d > best {
			best = d
		}
	}
}

// MaxBacklog returns the worst-case backlog (in cells) of priority-p traffic
// s at a static-priority FIFO queueing point whose higher-priority filtered
// aggregate is higher: max over t of A(t) - C(t) with C the available
// service. It returns ErrUnstable when the backlog grows without bound.
//
// The backlog bound never exceeds the delay bound (service rate <= 1 cell
// per cell time), which is why a FIFO queue of D cells both bounds the delay
// by D cell times and never overflows.
func MaxBacklog(s, higher Stream) (float64, error) {
	if s.IsZero() {
		return 0, nil
	}
	if higher.PeakRate() > 1+Eps {
		return 0, fmt.Errorf("%w: higher-priority stream has peak rate %g (must be filtered)",
			ErrRateAboveLink, higher.PeakRate())
	}
	// Q(t) = A(t) - C(t) is concave (integrand r - (1-r1) is non-increasing),
	// so the peak is at the crossing r(t) = 1 - r1(t); sweep merged
	// breakpoints while the integrand is positive.
	q, best := 0.0, 0.0
	bps := mergedBreakpoints(s, higher)
	for i, t := range bps {
		rate := s.RateAt(t)
		srv := 1 - higher.RateAt(t)
		if srv < 0 {
			srv = 0
		}
		if rate <= srv+Eps {
			return best, nil
		}
		if i+1 >= len(bps) {
			return 0, ErrUnstable // positive net inflow forever
		}
		q += (rate - srv) * (bps[i+1] - t)
		if q > best {
			best = q
		}
	}
	return best, nil
}
