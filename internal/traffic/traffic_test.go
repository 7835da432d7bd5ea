package traffic

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"atmcac/internal/bitstream"
)

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"valid VBR", VBR(0.5, 0.1, 10), false},
		{"valid CBR", CBR(0.25), false},
		{"full-rate CBR", CBR(1), false},
		{"zero PCR", VBR(0, 0.1, 10), true},
		{"PCR above one", VBR(1.5, 0.1, 10), true},
		{"zero SCR", VBR(0.5, 0, 10), true},
		{"SCR above PCR", VBR(0.5, 0.6, 10), true},
		{"MBS below one", VBR(0.5, 0.1, 0.5), true},
		{"NaN PCR", VBR(math.NaN(), 0.1, 10), true},
		{"NaN MBS", VBR(0.5, 0.1, math.NaN()), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate(%v) error = %v, wantErr %v", tt.spec, err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidSpec) {
				t.Errorf("error %v does not wrap ErrInvalidSpec", err)
			}
		})
	}
}

func TestCBRIsSpecialCase(t *testing.T) {
	c := CBR(0.3)
	if !c.IsCBR() {
		t.Error("CBR(0.3).IsCBR() = false")
	}
	if VBR(0.5, 0.1, 4).IsCBR() {
		t.Error("VBR with SCR<PCR reported as CBR")
	}
}

func TestSpecStream(t *testing.T) {
	s, err := VBR(0.5, 0.1, 11).Stream()
	if err != nil {
		t.Fatal(err)
	}
	want, err := bitstream.New([]bitstream.Segment{{Start: 0, Rate: 1}, {Start: 1, Rate: 0.5}, {Start: 21, Rate: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(want, 1e-12) {
		t.Fatalf("Stream() = %v, want %v", s, want)
	}
	if _, err := VBR(0, 0, 0).Stream(); err == nil {
		t.Error("Stream() on invalid spec succeeded")
	}
}

func TestSpecString(t *testing.T) {
	if got := CBR(0.25).String(); !strings.HasPrefix(got, "CBR") {
		t.Errorf("CBR String = %q", got)
	}
	if got := VBR(0.5, 0.1, 4).String(); !strings.HasPrefix(got, "VBR") {
		t.Errorf("VBR String = %q", got)
	}
}

func TestOC3CellTime(t *testing.T) {
	// The paper: "At a 155 Mbps transmission speed, one cell time is about
	// 2.7 microseconds."
	ct := OC3.CellTime()
	if ct < 2600*time.Nanosecond || ct > 2800*time.Nanosecond {
		t.Fatalf("OC3 cell time = %v, want about 2.7us", ct)
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	bps := 32e6
	r := OC3.Normalize(bps)
	if got := OC3.Denormalize(r); math.Abs(got-bps) > 1 {
		t.Fatalf("denormalize(normalize(%g)) = %g", bps, got)
	}
	if r <= 0.2 || r >= 0.21 {
		t.Fatalf("32 Mbps on OC3 normalized to %g, want about 0.206", r)
	}
}

func TestCellTimesDurationRoundTrip(t *testing.T) {
	d := 1 * time.Millisecond
	cells := OC3.CellTimes(d)
	// The paper: a 1 ms budget is about 370 cell times (they round from
	// 366.8).
	if cells < 360 || cells < 1 || cells > 375 {
		t.Fatalf("1ms = %g cell times on OC3, want about 367", cells)
	}
	back := OC3.Duration(cells)
	if diff := back - d; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("Duration(CellTimes(1ms)) = %v", back)
	}
}

func TestCellsForBytes(t *testing.T) {
	tests := []struct {
		bytes int
		want  int
	}{
		{0, 0}, {1, 1}, {48, 1}, {49, 2}, {4096, 86},
	}
	for _, tt := range tests {
		got, err := CellsForBytes(tt.bytes)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("CellsForBytes(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
	if _, err := CellsForBytes(-1); err == nil {
		t.Error("CellsForBytes(-1) succeeded")
	}
}

func TestPayloadBandwidthTable1(t *testing.T) {
	// The paper's Table 1 bandwidths (raw payload accounting):
	// high speed: 4 KB / 1 ms = 32 Mbps; medium: 64 KB / 30 ms = 17.5 Mbps;
	// low: 128 KB / 150 ms = 6.8 Mbps. (The paper quotes KB as 2^10 bytes.)
	tests := []struct {
		bytes  int
		period time.Duration
		want   float64 // Mbps
	}{
		{4 * 1024, time.Millisecond, 32},
		{64 * 1024, 30 * time.Millisecond, 17.5},
		{128 * 1024, 150 * time.Millisecond, 6.8},
	}
	for _, tt := range tests {
		got, err := PayloadBandwidth(tt.bytes, tt.period)
		if err != nil {
			t.Fatal(err)
		}
		gotMbps := got / 1e6
		if math.Abs(gotMbps-tt.want)/tt.want > 0.05 {
			t.Errorf("PayloadBandwidth(%dB, %v) = %.2f Mbps, want about %g",
				tt.bytes, tt.period, gotMbps, tt.want)
		}
	}
	if _, err := PayloadBandwidth(-1, time.Second); err == nil {
		t.Error("negative bytes accepted")
	}
	if _, err := PayloadBandwidth(1, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestWireBandwidthExceedsPayload(t *testing.T) {
	p, err := PayloadBandwidth(4096, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WireBandwidth(4096, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if w <= p {
		t.Fatalf("wire bandwidth %g <= payload bandwidth %g", w, p)
	}
	// 53/48 overhead ratio, within one cell of rounding.
	if ratio := w / p; ratio < 1.10 || ratio > 1.12 {
		t.Fatalf("overhead ratio = %g, want about 53/48", ratio)
	}
	if _, err := WireBandwidth(10, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestPacerGreedyMatchesFigure1(t *testing.T) {
	// Greedy emission of VBR(0.5, 0.1, 3): three cells at 1/PCR = 2 apart
	// (the MBS burst), then SCR pacing. Cell k >= 3 is budget-limited by
	// k+1 = B + SCR*t with bucket depth B = 1+(MBS-1)(1-SCR/PCR) = 2.6,
	// i.e. t = 10k - 16: exactly the Algorithm 2.1 envelope.
	p, err := NewPacer(VBR(0.5, 0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	for i := 0; i < 6; i++ {
		times = append(times, p.NextAfter(0))
	}
	want := []float64{0, 2, 4, 14, 24, 34}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-9 {
			t.Fatalf("greedy emission times = %v, want %v", times, want)
		}
	}
	if p.Sent() != 6 {
		t.Fatalf("Sent = %d, want 6", p.Sent())
	}
}

func TestPacerCBR(t *testing.T) {
	p, err := NewPacer(CBR(0.25))
	if err != nil {
		t.Fatal(err)
	}
	prev := p.NextAfter(0)
	for i := 0; i < 10; i++ {
		next := p.NextAfter(0)
		if math.Abs(next-prev-4) > 1e-9 {
			t.Fatalf("CBR(0.25) spacing = %g, want 4", next-prev)
		}
		prev = next
	}
}

func TestPacerRespectsEarliest(t *testing.T) {
	p, err := NewPacer(CBR(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NextAfter(7); got != 7 {
		t.Fatalf("first emission at %g, want 7", got)
	}
	if got := p.NextAfter(7.5); math.Abs(got-9) > 1e-9 {
		t.Fatalf("second emission at %g, want 9 (peak spacing)", got)
	}
	if got := p.NextAfter(100); got != 100 {
		t.Fatalf("idle source emission at %g, want 100", got)
	}
}

func TestPacerInvalidSpec(t *testing.T) {
	if _, err := NewPacer(VBR(0, 0, 0)); err == nil {
		t.Error("NewPacer with invalid spec succeeded")
	}
}

func TestCheckerAcceptsPacer(t *testing.T) {
	spec := VBR(0.5, 0.05, 8)
	p, err := NewPacer(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(spec, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		at := p.NextAfter(0)
		ok, err := c.Observe(at)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("cell %d at t=%g flagged non-conforming", i, at)
		}
	}
}

func TestCheckerRejectsBurstAbovePCR(t *testing.T) {
	c, err := NewChecker(CBR(0.5), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.Observe(0); !ok {
		t.Fatal("first cell rejected")
	}
	ok, err := c.Observe(1) // spacing 1 < 1/PCR = 2
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("cell violating peak spacing accepted")
	}
}

func TestCheckerRejectsSustainedOverload(t *testing.T) {
	// VBR(1, 0.1, 4): after the 4-cell burst at full rate, cells every
	// 1 cell time violate SCR.
	c, err := NewChecker(VBR(1, 0.1, 4), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for i := 0; i < 20; i++ {
		ok, err := c.Observe(float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			violations++
		}
	}
	if violations == 0 {
		t.Fatal("sustained overload never flagged")
	}
	// The first MBS cells must conform.
	c2, _ := NewChecker(VBR(1, 0.1, 4), 1e-9)
	for i := 0; i < 4; i++ {
		if ok, _ := c2.Observe(float64(i)); !ok {
			t.Fatalf("cell %d of initial burst rejected", i)
		}
	}
}

func TestCheckerRejectsTimeTravel(t *testing.T) {
	c, err := NewChecker(CBR(0.5), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(5); err == nil {
		t.Fatal("decreasing arrival times accepted")
	}
}

func TestCheckerInvalid(t *testing.T) {
	if _, err := NewChecker(VBR(0, 0, 0), 0); err == nil {
		t.Error("NewChecker with invalid spec succeeded")
	}
	if _, err := NewChecker(CBR(0.5), -1); err == nil {
		t.Error("NewChecker with negative tolerance succeeded")
	}
}

// randomSpec generates valid specs for property tests.
type randomSpec struct{ S Spec }

func (randomSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	pcr := 0.02 + 0.98*r.Float64()
	scr := pcr * (0.05 + 0.95*r.Float64())
	mbs := 1 + math.Floor(32*r.Float64())
	return reflect.ValueOf(randomSpec{S: Spec{PCR: pcr, SCR: scr, MBS: mbs}})
}

// TestPropPacerConformsToChecker: every greedy schedule passes its own
// conformance check, and every schedule with random extra idle time does
// too (a source that under-uses its allocation stays conforming).
func TestPropPacerConformsToChecker(t *testing.T) {
	f := func(rs randomSpec, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewPacer(rs.S)
		if err != nil {
			return false
		}
		c, err := NewChecker(rs.S, 1e-9)
		if err != nil {
			return false
		}
		at := 0.0
		for i := 0; i < 60; i++ {
			at = p.NextAfter(at + 5*rng.Float64()*float64(rng.Intn(2)))
			ok, err := c.Observe(at)
			if err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropPacerWithinEnvelope: the cumulative cell count of any conforming
// schedule stays within the bit-stream envelope of Algorithm 2.1, which is
// the soundness property the whole CAC rests on.
func TestPropPacerWithinEnvelope(t *testing.T) {
	f := func(rs randomSpec, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewPacer(rs.S)
		if err != nil {
			return false
		}
		env, err := rs.S.Stream()
		if err != nil {
			return false
		}
		at := 0.0
		for i := 0; i < 80; i++ {
			gap := 0.0
			if rng.Intn(3) == 0 {
				gap = 10 * rng.Float64()
			}
			at = p.NextAfter(at + gap)
			// i+1 cells have been emitted by time at; the envelope must
			// account for them within one cell transmission time.
			if env.CumAt(at+1) < float64(i+1)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSpecCDVT(t *testing.T) {
	base := VBR(0.5, 0.05, 8)
	env, err := base.Stream()
	if err != nil {
		t.Fatal(err)
	}
	jittered, err := base.WithCDVT(32).Stream()
	if err != nil {
		t.Fatal(err)
	}
	// The CDVT envelope equals the Algorithm 3.1 clumping of the base.
	want, err := env.Delayed(32)
	if err != nil {
		t.Fatal(err)
	}
	if !jittered.Equal(want, 1e-12) {
		t.Fatalf("CDVT envelope = %v, want %v", jittered, want)
	}
	// CDVT only dominates: cumulative never shrinks.
	for _, at := range []float64{0.5, 1, 5, 20, 100} {
		if jittered.CumAt(at) < env.CumAt(at)-1e-9 {
			t.Errorf("CDVT envelope below base at t=%g", at)
		}
	}
	if err := base.WithCDVT(-1).Validate(); err == nil {
		t.Error("negative CDVT accepted")
	}
	if err := base.WithCDVT(math.NaN()).Validate(); err == nil {
		t.Error("NaN CDVT accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		CBR(0.25),
		VBR(0.5, 0.05, 8),
		VBR(0.5, 0.05, 8).WithCDVT(32),
	}
	for _, want := range specs {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("round trip %v -> %s -> %v", want, data, got)
		}
	}
	// CDVT is omitted from the encoding when zero.
	data, err := json.Marshal(CBR(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "cdvt") {
		t.Errorf("zero CDVT encoded: %s", data)
	}
}
