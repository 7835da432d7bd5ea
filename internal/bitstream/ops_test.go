package bitstream

import (
	"errors"
	"math"
	"testing"
)

func TestDelayedZeroCDV(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	got, err := s.Delayed(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s, 0) {
		t.Fatalf("Delayed(0) = %v, want unchanged %v", got, s)
	}
}

func TestDelayedNegativeCDV(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	if _, err := s.Delayed(-1); !errors.Is(err, ErrNegative) {
		t.Fatalf("Delayed(-1) error = %v, want ErrNegative", err)
	}
}

func TestDelayedRejectsAggregate(t *testing.T) {
	agg := MustNew([]Segment{{0, 3}, {1, 0.5}})
	if _, err := agg.Delayed(1); !errors.Is(err, ErrRateAboveLink) {
		t.Fatalf("Delayed on aggregate error = %v, want ErrRateAboveLink", err)
	}
}

func TestDelayedZeroStream(t *testing.T) {
	got, err := Zero().Delayed(10)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Fatalf("Zero().Delayed(10) = %v, want zero", got)
	}
}

// TestDelayedHandComputed verifies Algorithm 3.1 on a worked example.
// S = {(1,0),(0.5,1)} delayed by CDV=2: bits in [0,2] are 1 + 0.5 = 1.5
// (AREA1). After CDV the stream arrives at 0.5, so the unit-rate release
// drains the backlog at rate 1-0.5: t' solves A(t') = t'-2, i.e.
// 1 + 0.5(t'-1) = t'-2 -> t' = 5. S' = {(1,0),(0.5,3)}.
func TestDelayedHandComputed(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	got, err := s.Delayed(2)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {3, 0.5}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Delayed(2) = %v, want %v", got, want)
	}
}

// TestDelayedVBRHandComputed delays a full VBR envelope past its burst.
// S = {(1,0),(0.5,1),(q,9)} (PCR=0.5, SCR=0.1, MBS=5), where q is 0.1 on
// the rate grid, CDV=20. AREA1 = A(20) = 1 + 0.5*8 + 11q. t' solves
// A(t') = t'-20 in the tail: 5 + q(t'-9) = t'-20 -> t' = (25-9q)/(1-q),
// 26.777... S' = {(1,0),(q, t'-20)}.
func TestDelayedVBRHandComputed(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}, {9, 0.1}})
	got, err := s.Delayed(20)
	if err != nil {
		t.Fatal(err)
	}
	tPrime := (25 - 9*tenthOnGrid) / (1 - tenthOnGrid)
	want := MustNew([]Segment{{0, 1}, {tPrime - 20, tenthOnGrid}})
	if !got.Equal(want, 1e-9) {
		t.Fatalf("Delayed(20) = %v, want %v", got, want)
	}
}

func TestDelayedSaturatedStream(t *testing.T) {
	// A stream at permanent link rate stays saturated under any delay.
	got, err := Constant(1).Delayed(5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Constant(1), 0) {
		t.Fatalf("Constant(1).Delayed(5) = %v, want constant 1", got)
	}
}

// delayedCumCharacterization checks the exact cumulative characterization of
// Algorithm 3.1: A'(tau) = min(tau, A(tau + cdv)) for all tau >= 0.
func delayedCumCharacterization(t *testing.T, s Stream, cdv float64) {
	t.Helper()
	got, err := s.Delayed(cdv)
	if err != nil {
		t.Fatalf("Delayed(%g) on %v: %v", cdv, s, err)
	}
	samples := []float64{0, 0.1, 0.5, 1, 1.5, 2, 3, 5, 8, 13, 21, 34, 55, 100, 1000}
	for _, sg := range got.Segments() {
		samples = append(samples, sg.Start, sg.Start+1e-3)
	}
	for _, tau := range samples {
		want := math.Min(tau, s.CumAt(tau+cdv))
		if g := got.CumAt(tau); math.Abs(g-want) > 1e-6 {
			t.Fatalf("Delayed(%g) of %v: A'(%g) = %g, want min(%g, A(%g)=%g)",
				cdv, s, tau, g, tau, tau+cdv, s.CumAt(tau+cdv))
		}
	}
}

func TestDelayedCumulativeCharacterization(t *testing.T) {
	streams := []Stream{
		MustNew([]Segment{{0, 1}, {1, 0.5}}),
		MustNew([]Segment{{0, 1}, {1, 0.5}, {9, 0.1}}),
		MustNew([]Segment{{0, 1}, {3, 0.9}, {10, 0.3}, {40, 0.05}}),
		MustNew([]Segment{{0, 0.4}}),
		MustNew([]Segment{{0, 1}, {2, 0}}), // finite stream: 2 cells then silence
	}
	cdvs := []float64{0.25, 1, 2, 7, 32, 500}
	for _, s := range streams {
		for _, cdv := range cdvs {
			delayedCumCharacterization(t, s, cdv)
		}
	}
}

func TestDelayedFiniteStreamDrainsCompletely(t *testing.T) {
	// Two cells then silence, delayed by 10: both cells clump at the delay
	// horizon and are released back-to-back.
	s := MustNew([]Segment{{0, 1}, {2, 0}})
	got, err := s.Delayed(10)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {2, 0}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Delayed(10) = %v, want %v", got, want)
	}
}

func TestFilteredIdentityBelowLinkRate(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	if got := s.Filtered(); !got.Equal(s, 0) {
		t.Fatalf("Filtered() changed a conforming stream: %v -> %v", s, got)
	}
	if got := Zero().Filtered(); !got.IsZero() {
		t.Fatalf("Zero().Filtered() = %v, want zero", got)
	}
}

// TestFilteredHandComputed verifies Algorithm 3.4 on a worked example.
// S = {(3,0),(0.5,2)}: queue builds at rate 2 during [0,2) (AREA1 = 4), then
// drains at rate 0.5: t' solves A(t') = t', i.e. 6 + 0.5(t'-2) = t' ->
// t' = 10. S' = {(1,0),(0.5,10)}.
func TestFilteredHandComputed(t *testing.T) {
	s := MustNew([]Segment{{0, 3}, {2, 0.5}})
	got := s.Filtered()
	want := MustNew([]Segment{{0, 1}, {10, 0.5}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Filtered = %v, want %v", got, want)
	}
}

func TestFilteredNeverDrains(t *testing.T) {
	// Tail rate >= 1: the link stays saturated forever.
	s := MustNew([]Segment{{0, 3}, {2, 1.5}})
	got := s.Filtered()
	if !got.Equal(Constant(1), 0) {
		t.Fatalf("Filtered = %v, want constant 1", got)
	}
}

// filteredCumCharacterization checks the exact cumulative characterization of
// Algorithm 3.4: A_f(t) = min(t, A(t)) for all t >= 0.
func filteredCumCharacterization(t *testing.T, s Stream) {
	t.Helper()
	got := s.Filtered()
	samples := []float64{0, 0.1, 0.5, 1, 2, 3, 5, 8, 13, 21, 55, 144, 1000}
	for _, sg := range got.Segments() {
		samples = append(samples, sg.Start, sg.Start+1e-3)
	}
	for _, at := range samples {
		want := math.Min(at, s.CumAt(at))
		if g := got.CumAt(at); math.Abs(g-want) > 1e-6 {
			t.Fatalf("Filtered of %v: A_f(%g) = %g, want min(%g, %g)",
				s, at, g, at, s.CumAt(at))
		}
	}
}

func TestFilteredCumulativeCharacterization(t *testing.T) {
	streams := []Stream{
		MustNew([]Segment{{0, 3}, {2, 0.5}}),
		MustNew([]Segment{{0, 5}, {1, 2}, {3, 0.2}}),
		MustNew([]Segment{{0, 2}, {4, 0}}),
		MustNew([]Segment{{0, 1.2}, {10, 0.9}, {20, 0.1}}),
		MustNew([]Segment{{0, 0.8}}),
	}
	for _, s := range streams {
		filteredCumCharacterization(t, s)
	}
}

func TestFilteredIdempotent(t *testing.T) {
	streams := []Stream{
		MustNew([]Segment{{0, 3}, {2, 0.5}}),
		MustNew([]Segment{{0, 5}, {1, 2}, {3, 0.2}}),
		MustNew([]Segment{{0, 2}, {4, 0}}),
	}
	for _, s := range streams {
		once := s.Filtered()
		twice := once.Filtered()
		if !twice.Equal(once, 1e-12) {
			t.Errorf("Filtered not idempotent: %v -> %v -> %v", s, once, twice)
		}
	}
}

func TestDelayBoundZeroStream(t *testing.T) {
	d, err := DelayBound(Zero(), Constant(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("DelayBound(zero) = %g, want 0", d)
	}
}

func TestDelayBoundConformingStream(t *testing.T) {
	// A stream that never exceeds the available service has zero queueing.
	s := MustNew([]Segment{{0, 1}, {1, 0.3}})
	d, err := DelayBound(s, Zero())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("DelayBound = %g, want 0 (rate never exceeds service)", d)
	}
}

// TestDelayBoundBurstAggregate: two unit-rate bursts of K cells each arrive
// simultaneously. 2K cells arrive in K cell times on a unit link; the last
// bit of the aggregate waits exactly K cell times.
func TestDelayBoundBurstAggregate(t *testing.T) {
	const k = 32
	s := MustNew([]Segment{{0, 2}, {k, 0}})
	d, err := DelayBound(s, Zero())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-k) > 1e-9 {
		t.Fatalf("DelayBound = %g, want %d", d, k)
	}
}

// TestDelayBoundWithHigherPriority: one cell arriving at t in [0,1] against a
// constant higher-priority load of 0.5 sees service rate 0.5; g(t) = 2 A(t),
// so D peaks at t=1 with D = 2*1 - 1 = 1.
func TestDelayBoundWithHigherPriority(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0}})
	d, err := DelayBound(s, Constant(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-9 {
		t.Fatalf("DelayBound = %g, want 1", d)
	}
}

// TestDelayBoundSaturatedInterval: the higher priority saturates the link for
// the first 5 cell times; low-priority bits arriving at t=0 wait until t=5.
func TestDelayBoundSaturatedInterval(t *testing.T) {
	higher := MustNew([]Segment{{0, 1}, {5, 0}})
	s := MustNew([]Segment{{0, 0.5}, {2, 0}})
	d, err := DelayBound(s, higher)
	if err != nil {
		t.Fatal(err)
	}
	// A bit of S arriving at t=2 (the last) has A(2)=1 bits ahead of it; the
	// link is busy with higher traffic until 5, then serves 1 bit by 6:
	// D = 6 - 2 = 4. The first bit (t=0) waits 5. Max over t: at t=0, g=5
	// (no S bits served before 5), D=5.
	if math.Abs(d-5) > 1e-9 {
		t.Fatalf("DelayBound = %g, want 5", d)
	}
}

func TestDelayBoundUnstable(t *testing.T) {
	s := Constant(0.6)
	if _, err := DelayBound(s, Constant(0.5)); !errors.Is(err, ErrUnstable) {
		t.Fatalf("DelayBound error = %v, want ErrUnstable", err)
	}
	if _, err := DelayBound(Constant(0.1), Constant(1)); !errors.Is(err, ErrUnstable) {
		t.Fatalf("DelayBound with saturated higher priority error = %v, want ErrUnstable", err)
	}
}

func TestDelayBoundStableAtExactCapacity(t *testing.T) {
	// Tail arrival rate exactly equals tail service rate: delay is bounded
	// (D stops growing once rates balance).
	s := MustNew([]Segment{{0, 1}, {4, 0.5}})
	d, err := DelayBound(s, Constant(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// During [0,4): arrivals at 1, service at 0.5; backlog grows to 2 by
	// t=4- ... g(4) = A(4)/0.5 = 8, D = 8-4 = 4.
	if math.Abs(d-4) > 1e-9 {
		t.Fatalf("DelayBound = %g, want 4", d)
	}
}

func TestDelayBoundRejectsUnfilteredHigher(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0}})
	agg := MustNew([]Segment{{0, 2}, {1, 0.1}})
	if _, err := DelayBound(s, agg); !errors.Is(err, ErrRateAboveLink) {
		t.Fatalf("DelayBound error = %v, want ErrRateAboveLink", err)
	}
}

// TestDelayBoundEqualsBacklogAtHighestPriority: with no higher-priority
// traffic the service slope is 1, so the delay bound equals the maximum
// backlog (the paper's AREA1 remark after Algorithm 4.1).
func TestDelayBoundEqualsBacklogAtHighestPriority(t *testing.T) {
	streams := []Stream{
		MustNew([]Segment{{0, 2}, {32, 0}}),
		MustNew([]Segment{{0, 5}, {1, 2}, {3, 0.2}}),
		MustNew([]Segment{{0, 3}, {2, 0.5}}),
		MustNew([]Segment{{0, 1.5}, {8, 0.9}, {30, 0.1}}),
	}
	for _, s := range streams {
		d, err := DelayBound(s, Zero())
		if err != nil {
			t.Fatalf("DelayBound(%v): %v", s, err)
		}
		q, err := MaxBacklog(s, Zero())
		if err != nil {
			t.Fatalf("MaxBacklog(%v): %v", s, err)
		}
		if math.Abs(d-q) > 1e-9 {
			t.Errorf("stream %v: delay bound %g != backlog %g at highest priority", s, d, q)
		}
	}
}

func TestMaxBacklogHandComputed(t *testing.T) {
	// S = {(3,0),(0.5,2)} on a unit link: backlog peaks at t=2 with
	// (3-1)*2 = 4 cells.
	s := MustNew([]Segment{{0, 3}, {2, 0.5}})
	q, err := MaxBacklog(s, Zero())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-4) > 1e-12 {
		t.Fatalf("MaxBacklog = %g, want 4", q)
	}
}

func TestMaxBacklogWithHigherPriority(t *testing.T) {
	// Service rate is 1-0.5=0.5; S at rate 2 for 3 cell times: backlog
	// peaks at (2-0.5)*3 = 4.5.
	s := MustNew([]Segment{{0, 2}, {3, 0.2}})
	q, err := MaxBacklog(s, Constant(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-4.5) > 1e-12 {
		t.Fatalf("MaxBacklog = %g, want 4.5", q)
	}
}

func TestMaxBacklogUnstable(t *testing.T) {
	if _, err := MaxBacklog(Constant(0.6), Constant(0.5)); !errors.Is(err, ErrUnstable) {
		t.Fatalf("MaxBacklog error = %v, want ErrUnstable", err)
	}
}

func TestMaxBacklogZero(t *testing.T) {
	q, err := MaxBacklog(Zero(), Zero())
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Fatalf("MaxBacklog(zero) = %g, want 0", q)
	}
	q, err = MaxBacklog(Constant(0.5), Zero())
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Fatalf("MaxBacklog(conforming) = %g, want 0", q)
	}
}

// TestBacklogNeverExceedsDelayBound: with service rate <= 1 cell per cell
// time, a backlog of Q cells implies the bit at the back waits at least Q
// cell times, so Q <= D. This is why a FIFO of D cells suffices.
func TestBacklogNeverExceedsDelayBound(t *testing.T) {
	cases := []struct {
		s, higher Stream
	}{
		{MustNew([]Segment{{0, 2}, {32, 0}}), Zero()},
		{MustNew([]Segment{{0, 5}, {1, 2}, {3, 0.2}}), Zero()},
		{MustNew([]Segment{{0, 2}, {3, 0.2}}), Constant(0.5)},
		{MustNew([]Segment{{0, 1}, {1, 0}}), MustNew([]Segment{{0, 1}, {5, 0}})},
	}
	for _, c := range cases {
		d, err := DelayBound(c.s, c.higher)
		if err != nil {
			t.Fatal(err)
		}
		q, err := MaxBacklog(c.s, c.higher)
		if err != nil {
			t.Fatal(err)
		}
		if q > d+1e-9 {
			t.Errorf("S=%v S1=%v: backlog %g > delay bound %g", c.s, c.higher, q, d)
		}
	}
}
