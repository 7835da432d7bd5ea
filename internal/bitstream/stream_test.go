package bitstream

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		segs    []Segment
		wantErr bool
	}{
		{name: "empty", segs: nil},
		{name: "single", segs: []Segment{{0, 0.5}}},
		{name: "decreasing", segs: []Segment{{0, 1}, {1, 0.5}, {3, 0.1}}},
		{name: "nonzero start", segs: []Segment{{1, 0.5}}, wantErr: true},
		{name: "negative rate", segs: []Segment{{0, -0.5}}, wantErr: true},
		{name: "nan rate", segs: []Segment{{0, math.NaN()}}, wantErr: true},
		{name: "inf rate", segs: []Segment{{0, math.Inf(1)}}, wantErr: true},
		{name: "nan start", segs: []Segment{{0, 1}, {math.NaN(), 0.5}}, wantErr: true},
		{name: "non increasing times", segs: []Segment{{0, 1}, {1, 0.5}, {1, 0.2}}, wantErr: true},
		{name: "decreasing times", segs: []Segment{{0, 1}, {2, 0.5}, {1, 0.2}}, wantErr: true},
		{name: "increasing rates", segs: []Segment{{0, 0.5}, {1, 0.8}}, wantErr: true},
		{name: "rate above one is allowed for aggregates", segs: []Segment{{0, 4}, {1, 0.5}}},
		{name: "equal adjacent rates merge", segs: []Segment{{0, 1}, {1, 0.5}, {2, 0.5}, {3, 0.1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := New(tt.segs)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("New(%v) = %v, want error", tt.segs, s)
				}
				if !errors.Is(err, ErrInvalidStream) {
					t.Fatalf("New(%v) error = %v, want ErrInvalidStream", tt.segs, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("New(%v) unexpected error: %v", tt.segs, err)
			}
		})
	}
}

func TestNewCanonicalizesEqualRates(t *testing.T) {
	in := []Segment{{0, 1}, {1, 0.5}, {2, 0.5}, {3, 0.5}}
	s := MustNew(in)
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (equal-rate segments merged); stream %v", got, s)
	}
	if in[2] != (Segment{2, 0.5}) {
		t.Fatalf("New merged in the caller's slice: %v", in)
	}
}

func TestNewAllZeroIsEmpty(t *testing.T) {
	s := MustNew([]Segment{{0, 0}})
	if !s.IsZero() {
		t.Fatalf("all-zero stream should canonicalize to empty, got %v", s)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid segments did not panic")
		}
	}()
	MustNew([]Segment{{1, 0.5}})
}

func TestConstant(t *testing.T) {
	if !Constant(0).IsZero() {
		t.Error("Constant(0) should be the zero stream")
	}
	c := Constant(0.25)
	for _, at := range []float64{0, 1, 1e6} {
		if got := c.RateAt(at); got != 0.25 {
			t.Errorf("Constant(0.25).RateAt(%g) = %g, want 0.25", at, got)
		}
	}
	if got := c.TailRate(); got != 0.25 {
		t.Errorf("TailRate = %g, want 0.25", got)
	}
}

func TestFromVBR(t *testing.T) {
	// Algorithm 2.1: S = {(1,0), (PCR,1), (SCR, 1+(MBS-1)/PCR)}.
	s, err := FromVBR(0.5, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {1, 0.5}, {21, 0.1}})
	if !s.Equal(want, 1e-12) {
		t.Fatalf("FromVBR(0.5, 0.1, 11) = %v, want %v", s, want)
	}
}

func TestFromVBRCBRSpecialCase(t *testing.T) {
	// A CBR connection is VBR with SCR == PCR: the burst segment merges
	// with the sustained segment.
	s, err := FromVBR(0.25, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {1, 0.25}})
	if !s.Equal(want, 1e-12) {
		t.Fatalf("FromVBR CBR = %v, want %v", s, want)
	}
}

func TestFromVBRSingleCellBurst(t *testing.T) {
	// MBS == 1: the whole burst is the initial unit-rate cell.
	s, err := FromVBR(0.5, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {1, 0.1}})
	if !s.Equal(want, 1e-12) {
		t.Fatalf("FromVBR(0.5,0.1,1) = %v, want %v", s, want)
	}
}

func TestFromVBRPeakRateOne(t *testing.T) {
	// PCR == 1: the initial cell and the burst merge into one unit-rate
	// segment of length MBS.
	s, err := FromVBR(1, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 1}, {5, 0.2}})
	if !s.Equal(want, 1e-12) {
		t.Fatalf("FromVBR(1,0.2,5) = %v, want %v", s, want)
	}
}

func TestFromVBRErrors(t *testing.T) {
	tests := []struct {
		name          string
		pcr, scr, mbs float64
	}{
		{"zero pcr", 0, 0.1, 2},
		{"negative pcr", -0.5, 0.1, 2},
		{"pcr above link", 1.5, 0.1, 2},
		{"zero scr", 0.5, 0, 2},
		{"scr above pcr", 0.5, 0.6, 2},
		{"mbs below one", 0.5, 0.1, 0.5},
		{"nan mbs", 0.5, 0.1, math.NaN()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := FromVBR(tt.pcr, tt.scr, tt.mbs); err == nil {
				t.Errorf("FromVBR(%g,%g,%g) succeeded, want error", tt.pcr, tt.scr, tt.mbs)
			}
		})
	}
}

// tenthOnGrid is 0.1 rounded up to the 2⁻³² rate grid: 429496730·2⁻³².
const tenthOnGrid = 0x1.999999ap-4

func TestRateAt(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}, {21, 0.1}})
	tests := []struct {
		at   float64
		want float64
	}{
		{-1, 0}, {0, 1}, {0.5, 1}, {1, 0.5}, {20.999, 0.5}, {21, tenthOnGrid}, {1e9, tenthOnGrid},
	}
	for _, tt := range tests {
		if got := s.RateAt(tt.at); got != tt.want {
			t.Errorf("RateAt(%g) = %g, want %g", tt.at, got, tt.want)
		}
	}
}

func TestCumAt(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}, {21, 0.1}})
	tests := []struct {
		at   float64
		want float64
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 1.5}, {21, 11}, {31, 11 + 10*tenthOnGrid},
	}
	for _, tt := range tests {
		if got := s.CumAt(tt.at); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("CumAt(%g) = %g, want %g", tt.at, got, tt.want)
		}
	}
}

func TestPeakAndTailRate(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}, {21, 0.1}})
	if got := s.PeakRate(); got != 1 {
		t.Errorf("PeakRate = %g, want 1", got)
	}
	if got := s.TailRate(); got != tenthOnGrid {
		t.Errorf("TailRate = %v, want %v", got, tenthOnGrid)
	}
	if got := Zero().PeakRate(); got != 0 {
		t.Errorf("Zero().PeakRate = %g, want 0", got)
	}
	if got := Zero().TailRate(); got != 0 {
		t.Errorf("Zero().TailRate = %g, want 0", got)
	}
}

func TestScaled(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	doubled, err := s.Scaled(2)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew([]Segment{{0, 2}, {1, 1}})
	if !doubled.Equal(want, 1e-12) {
		t.Fatalf("Scaled(2) = %v, want %v", doubled, want)
	}
	zero, err := s.Scaled(0)
	if err != nil {
		t.Fatal(err)
	}
	if !zero.IsZero() {
		t.Errorf("Scaled(0) = %v, want zero", zero)
	}
	if _, err := s.Scaled(-1); err == nil {
		t.Error("Scaled(-1) succeeded, want error")
	}
	if _, err := s.Scaled(math.NaN()); err == nil {
		t.Error("Scaled(NaN) succeeded, want error")
	}
}

func TestSegmentsReturnsCopy(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	segs := s.Segments()
	segs[0].Rate = 99
	if got := s.RateAt(0); got != 1 {
		t.Fatalf("mutating Segments() result changed the stream: RateAt(0) = %g", got)
	}
}

func TestString(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}})
	got := s.String()
	if !strings.Contains(got, "(1,0)") || !strings.Contains(got, "(0.5,1)") {
		t.Errorf("String() = %q, want it to contain (1,0) and (0.5,1)", got)
	}
	if got := Zero().String(); got != "{}" {
		t.Errorf("Zero().String() = %q, want {}", got)
	}
}

func TestEqual(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	b := MustNew([]Segment{{0, 1}, {1, 0.5}})
	c := MustNew([]Segment{{0, 1}, {2, 0.5}})
	if !a.Equal(b, 1e-12) {
		t.Error("identical streams not Equal")
	}
	if a.Equal(c, 1e-12) {
		t.Error("streams with different breakpoints reported Equal")
	}
	if !Zero().Equal(Zero(), 0) {
		t.Error("Zero() not Equal to itself")
	}
}

func TestAdd(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	b := MustNew([]Segment{{0, 1}, {2, 0.25}})
	got := Add(a, b)
	want := MustNew([]Segment{{0, 2}, {1, 1.5}, {2, 0.75}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Add = %v, want %v", got, want)
	}
}

func TestAddZeroIdentity(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	if got := Add(a, Zero()); !got.Equal(a, 0) {
		t.Errorf("Add(a, 0) = %v, want %v", got, a)
	}
	if got := Add(Zero(), a); !got.Equal(a, 0) {
		t.Errorf("Add(0, a) = %v, want %v", got, a)
	}
}

func TestAddCommutative(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}, {7, 0.1}})
	b := MustNew([]Segment{{0, 0.9}, {3, 0.25}})
	if !Add(a, b).Equal(Add(b, a), 1e-12) {
		t.Error("Add is not commutative")
	}
}

func TestSumMatchesRepeatedAdd(t *testing.T) {
	streams := []Stream{
		MustNew([]Segment{{0, 1}, {1, 0.5}}),
		MustNew([]Segment{{0, 1}, {2, 0.25}}),
		MustNew([]Segment{{0, 0.7}, {5, 0.1}}),
		Zero(),
		MustNew([]Segment{{0, 1}, {1, 0.9}, {10, 0.05}}),
	}
	want := Zero()
	for _, s := range streams {
		want = Add(want, s)
	}
	got := Sum(streams...)
	if !got.Equal(want, 1e-9) {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestSumEmptyAndSingle(t *testing.T) {
	if !Sum().IsZero() {
		t.Error("Sum() should be zero")
	}
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	if got := Sum(a); !got.Equal(a, 0) {
		t.Errorf("Sum(a) = %v, want %v", got, a)
	}
	if got := Sum(Zero(), a, Zero()); !got.Equal(a, 0) {
		t.Errorf("Sum(0,a,0) = %v, want %v", got, a)
	}
}

func TestSubRecoverComponent(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	b := MustNew([]Segment{{0, 1}, {2, 0.25}})
	agg := Add(a, b)
	got, err := Sub(agg, b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a, 1e-12) {
		t.Fatalf("Sub(a+b, b) = %v, want %v", got, a)
	}
	got, err = Sub(agg, a)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b, 1e-12) {
		t.Fatalf("Sub(a+b, a) = %v, want %v", got, b)
	}
}

func TestSubZero(t *testing.T) {
	a := MustNew([]Segment{{0, 1}, {1, 0.5}})
	got, err := Sub(a, Zero())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a, 0) {
		t.Errorf("Sub(a, 0) = %v, want %v", got, a)
	}
	got, err = Sub(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Errorf("Sub(a, a) = %v, want zero", got)
	}
}

func TestSubNotComponent(t *testing.T) {
	a := MustNew([]Segment{{0, 0.5}})
	b := MustNew([]Segment{{0, 1}, {1, 0.2}})
	if _, err := Sub(a, b); !errors.Is(err, ErrNotComponent) {
		t.Errorf("Sub error = %v, want ErrNotComponent (negative rate)", err)
	}
	// Difference that would produce an increasing rate function: the
	// subtrahend drops earlier than the aggregate would allow.
	agg := MustNew([]Segment{{0, 1}, {5, 0.6}})
	comp := MustNew([]Segment{{0, 0.9}, {1, 0.1}})
	if _, err := Sub(agg, comp); !errors.Is(err, ErrNotComponent) {
		t.Errorf("Sub error = %v, want ErrNotComponent (increasing rate)", err)
	}
}

// TestCBRAggregationEqualsVBR verifies the equivalence the paper uses in
// Section 5: the worst-case aggregated traffic of N CBR connections of peak
// rate R equals that of a VBR connection with PCR=N, SCR=N*R, MBS=N.
func TestCBRAggregationEqualsVBR(t *testing.T) {
	const (
		n = 16
		r = 0.02
	)
	cbr, err := FromVBR(r, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]Stream, n)
	for i := range streams {
		streams[i] = cbr
	}
	agg := Sum(streams...)
	// The equivalent VBR envelope with PCR=N (an aggregate rate, so built
	// directly rather than through FromVBR, which models a single source on
	// a unit link): MBS=N cells at rate PCR=N last MBS/PCR = 1 cell time.
	want := MustNew([]Segment{{0, n}, {1, n * r}})
	if !agg.Equal(want, 1e-9) {
		t.Fatalf("aggregate of %d CBR(%g) = %v, want VBR equivalent %v", n, r, agg, want)
	}
}

func TestInvCum(t *testing.T) {
	s := MustNew([]Segment{{0, 1}, {1, 0.5}, {21, 0.1}})
	tests := []struct {
		cells float64
		want  float64
	}{
		{0, 0}, {0.5, 0.5}, {1, 1}, {1.5, 2}, {11, 21}, {12, 21 + 1/tenthOnGrid},
	}
	for _, tt := range tests {
		got, ok := s.InvCum(tt.cells)
		if !ok {
			t.Fatalf("InvCum(%g) not ok", tt.cells)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("InvCum(%g) = %g, want %g", tt.cells, got, tt.want)
		}
	}
	if _, ok := s.InvCum(-1); ok {
		t.Error("negative cells reported ok")
	}
	// A finite stream (2 cells then silence) cannot deliver 3.
	finite := MustNew([]Segment{{0, 1}, {2, 0}})
	if _, ok := finite.InvCum(3); ok {
		t.Error("finite stream claimed to deliver 3 cells")
	}
	if got, ok := finite.InvCum(2); !ok || got != 2 {
		t.Errorf("InvCum(2) = %g, %v", got, ok)
	}
	if _, ok := Zero().InvCum(1); ok {
		t.Error("zero stream claimed delivery")
	}
}

// TestInvCumRoundTrip: InvCum inverts CumAt on random envelopes.
func TestInvCumRoundTrip(t *testing.T) {
	specs := [][3]float64{{0.5, 0.1, 11}, {0.9, 0.3, 4}, {0.2, 0.01, 40}}
	for _, p := range specs {
		s, err := FromVBR(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range []float64{0.25, 1, 2.5, 7, 30, 123} {
			at, ok := s.InvCum(cells)
			if !ok {
				t.Fatalf("InvCum(%g) on %v not ok", cells, s)
			}
			if got := s.CumAt(at); math.Abs(got-cells) > 1e-9 {
				t.Errorf("CumAt(InvCum(%g)) = %g on %v", cells, got, s)
			}
		}
	}
}

// MustNew is New for statically known inputs; it panics on invalid segments.
func MustNew(segs []Segment) Stream {
	s, err := New(segs)
	if err != nil {
		panic(err)
	}
	return s
}
