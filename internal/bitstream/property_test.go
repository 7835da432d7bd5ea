package bitstream

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// vbrParams is a quick-generable VBR descriptor with sane ranges.
type vbrParams struct {
	PCR, SCR, MBS float64
}

// Generate implements quick.Generator, drawing PCR in (0,1], SCR in (0,PCR]
// and MBS in [1,64].
func (vbrParams) Generate(r *rand.Rand, _ int) reflect.Value {
	pcr := 0.01 + 0.99*r.Float64()
	scr := pcr * (0.05 + 0.95*r.Float64())
	mbs := 1 + math.Floor(64*r.Float64())
	return reflect.ValueOf(vbrParams{PCR: pcr, SCR: scr, MBS: mbs})
}

func (p vbrParams) stream(t *testing.T) Stream {
	t.Helper()
	s, err := FromVBR(p.PCR, p.SCR, p.MBS)
	if err != nil {
		t.Fatalf("FromVBR(%+v): %v", p, err)
	}
	return s
}

// randomAggregate builds a multiplexed stream of up to four delayed VBR
// envelopes, the shape the CAC engine manipulates.
type randomAggregate struct {
	Parts [4]vbrParams
	CDVs  [4]float64
	N     int
}

func (randomAggregate) Generate(r *rand.Rand, size int) reflect.Value {
	var a randomAggregate
	a.N = 1 + r.Intn(4)
	for i := 0; i < a.N; i++ {
		a.Parts[i] = vbrParams{}.Generate(r, size).Interface().(vbrParams)
		a.CDVs[i] = 64 * r.Float64()
	}
	return reflect.ValueOf(a)
}

func (a randomAggregate) stream(t *testing.T) Stream {
	t.Helper()
	streams := make([]Stream, 0, a.N)
	for i := 0; i < a.N; i++ {
		s := a.Parts[i].stream(t)
		d, err := s.Delayed(a.CDVs[i])
		if err != nil {
			t.Fatalf("Delayed(%g) on %v: %v", a.CDVs[i], s, err)
		}
		streams = append(streams, d)
	}
	return Sum(streams...)
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300}
}

// TestPropVBRStreamIsCanonical: every generated envelope satisfies the model
// invariants: t(0)=0, strictly increasing breakpoints, strictly decreasing
// rates, peak rate 1.
func TestPropVBRStreamIsCanonical(t *testing.T) {
	f := func(p vbrParams) bool {
		s := p.stream(t)
		segs := s.Segments()
		if segs[0].Start != 0 || segs[0].Rate != 1 {
			return false
		}
		for i := 1; i < len(segs); i++ {
			if segs[i].Start <= segs[i-1].Start || segs[i].Rate >= segs[i-1].Rate {
				return false
			}
		}
		return s.TailRate() > 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropVBRCumMatchesTokenBucket: the envelope's cumulative function
// dominates the discrete worst-case generation (MBS cells at PCR then SCR)
// and matches it exactly at cell boundaries, which is the defining property
// of the continuous approximation in the paper's Figure 2.
func TestPropVBRCumMatchesTokenBucket(t *testing.T) {
	f := func(p vbrParams) bool {
		s := p.stream(t)
		// Worst-case discrete generation times: cell k at time t_k.
		mbs := int(p.MBS)
		tk := 0.0
		for k := 0; k < mbs+16; k++ {
			if k > 0 {
				if k < mbs {
					tk += 1 / p.PCR
				} else {
					tk += 1 / p.SCR
				}
			}
			// By time t_k + 1 (the cell occupies one cell time at link
			// rate), the envelope must account for at least k+1 cells.
			if s.CumAt(tk+1) < float64(k+1)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropDelayedCharacterization: A'(tau) = min(tau, A(tau+cdv)).
func TestPropDelayedCharacterization(t *testing.T) {
	f := func(p vbrParams, cdvSeed float64) bool {
		s := p.stream(t)
		cdv := math.Abs(cdvSeed)
		cdv = math.Mod(cdv, 512)
		got, err := s.Delayed(cdv)
		if err != nil {
			return false
		}
		for _, tau := range []float64{0, 0.5, 1, 2, 5, 17, 63, 255, 1024} {
			want := math.Min(tau, s.CumAt(tau+cdv))
			if math.Abs(got.CumAt(tau)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropDelayedDominates: delaying can only add traffic to every prefix,
// A'(tau) >= A(tau), so worst-case envelopes remain valid upper bounds as a
// connection crosses the network.
func TestPropDelayedDominates(t *testing.T) {
	f := func(p vbrParams, cdvSeed float64) bool {
		s := p.stream(t)
		cdv := math.Mod(math.Abs(cdvSeed), 512)
		got, err := s.Delayed(cdv)
		if err != nil {
			return false
		}
		for _, tau := range []float64{0.25, 1, 3, 10, 40, 160, 640} {
			if got.CumAt(tau) < s.CumAt(tau)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropFilteredCharacterization: A_f(t) = min(t, A(t)) on aggregates.
func TestPropFilteredCharacterization(t *testing.T) {
	f := func(a randomAggregate) bool {
		s := a.stream(t)
		got := s.Filtered()
		for _, at := range []float64{0, 0.5, 1, 2, 5, 17, 63, 255, 1024, 4096} {
			want := math.Min(at, s.CumAt(at))
			if math.Abs(got.CumAt(at)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropFilteredIdempotent on random aggregates.
func TestPropFilteredIdempotent(t *testing.T) {
	f := func(a randomAggregate) bool {
		once := a.stream(t).Filtered()
		return once.Filtered().Equal(once, 1e-9)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropAddSubRoundTrip: demultiplexing recovers a multiplexed component
// exactly, segment for segment.
func TestPropAddSubRoundTrip(t *testing.T) {
	f := func(p1, p2 vbrParams) bool {
		a, b := p1.stream(t), p2.stream(t)
		agg := Add(a, b)
		gotA, err := Sub(agg, b)
		if err != nil {
			return false
		}
		gotB, err := Sub(agg, a)
		if err != nil {
			return false
		}
		return slices.Equal(gotA.Segments(), a.Segments()) && slices.Equal(gotB.Segments(), b.Segments())
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// algebraTrials is how many random member sets the exact-algebra oracles
// below draw.
const algebraTrials = 300

// cellStreams draws 2-61 delayed VBR envelopes: the members of one cell of
// the CAC state.
func cellStreams(t *testing.T, r *rand.Rand) []Stream {
	t.Helper()
	xs := make([]Stream, 2+r.Intn(60))
	for i := range xs {
		p := vbrParams{}.Generate(r, 0).Interface().(vbrParams)
		d, err := p.stream(t).Delayed(64 * r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = d
	}
	return xs
}

// TestPropSumOrderIndependent: on the rate grid every addition is exact, so
// Sum over a shuffled order and a left fold of Add over it both hold the
// segments of Sum in the original order, compared with ==.
func TestPropSumOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shuffledBad, foldBad := 0, 0
	for trial := 0; trial < algebraTrials; trial++ {
		xs := cellStreams(t, r)
		want := Sum(xs...).Segments()
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		if !slices.Equal(Sum(xs...).Segments(), want) {
			shuffledBad++
		}
		fold := Zero()
		for _, x := range xs {
			fold = Add(fold, x)
		}
		if !slices.Equal(fold.Segments(), want) {
			foldBad++
		}
	}
	if shuffledBad > 0 || foldBad > 0 {
		t.Errorf("of %d member sets, %d differ from Sum when summed shuffled and %d when folded by Add",
			algebraTrials, shuffledBad, foldBad)
	}
}

// TestPropSubInvertsSum: demultiplexing is the exact inverse of
// multiplexing, Sub(Sum(xs), x) == Sum(xs without x) segment for segment —
// what lets a cell's Sia be updated by Algorithm 3.3 on release.
func TestPropSubInvertsSum(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	bad := 0
	for trial := 0; trial < algebraTrials; trial++ {
		xs := cellStreams(t, r)
		i := r.Intn(len(xs))
		got, err := Sub(Sum(xs...), xs[i])
		rest := Sum(slices.Delete(slices.Clone(xs), i, i+1)...)
		if err != nil || !slices.Equal(got.Segments(), rest.Segments()) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d member sets: Sub(Sum(xs), x) differs from Sum(xs without x)", bad, algebraTrials)
	}
}

// TestPropReplaceMatchesSubSum: Replace(agg, out, in) is Sum(Sub(agg, out),
// in) segment for segment, compared with ==, whether in is a new stream,
// nothing, out itself, or out is all of agg. An out that is not a component
// of agg — more than agg carries, or a member clumped by more CDV than it
// joined with — is refused with ErrNotComponent exactly when Sub refuses it.
func TestPropReplaceMatchesSubSum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	bad, refused := 0, 0
	for trial := 0; trial < algebraTrials; trial++ {
		xs := cellStreams(t, r)
		member := xs[1+r.Intn(len(xs)-1)]
		agg, out, in := Sum(xs[1:]...), member, xs[0]
		switch trial % 4 {
		case 1:
			in = Zero()
		case 2:
			in = out
		case 3:
			out = agg
		}
		rest, err := Sub(agg, out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Replace(agg, out, in)
		if err != nil || !slices.Equal(got.Segments(), Sum(rest, in).Segments()) {
			bad++
		}

		clumped, err := member.Delayed(1 + 64*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		for _, notOut := range []Stream{Add(agg, xs[0]), clumped} {
			_, subErr := Sub(agg, notOut)
			_, err := Replace(agg, notOut, in)
			if (err == nil) != (subErr == nil) || err != nil && !errors.Is(err, ErrNotComponent) {
				bad++
			}
			if err != nil {
				refused++
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d member sets: Replace differs from Sum(Sub(agg, out), in) or from Sub's refusal", bad, algebraTrials)
	}
	if refused < algebraTrials {
		t.Errorf("only %d refusals over %d sets, each with an out larger than agg", refused, algebraTrials)
	}
}

// TestPropSumRateAdditive: the aggregate rate is the sum of component rates
// at every probe instant (Algorithm 3.2's defining property).
func TestPropSumRateAdditive(t *testing.T) {
	f := func(p1, p2, p3 vbrParams) bool {
		s1, s2, s3 := p1.stream(t), p2.stream(t), p3.stream(t)
		agg := Sum(s1, s2, s3)
		for _, at := range []float64{0, 0.5, 1, 1.5, 2, 5, 20, 100, 1000} {
			want := s1.RateAt(at) + s2.RateAt(at) + s3.RateAt(at)
			if math.Abs(agg.RateAt(at)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropDelayBoundMonotoneInTraffic: Algorithm 4.1's D' never falls
// when a stream, clumped by any CDV, joins Soa, or joins the raw sum of the
// higher-priority shares that Sof is filtered from. This is what lets the
// CAC admit connections one at a time without revisiting earlier decisions.
// A stable bound is compared without tolerance; an unstable one must stay
// unstable.
func TestPropDelayBoundMonotoneInTraffic(t *testing.T) {
	stable := 0
	f := func(a, h randomAggregate, p vbrParams, cdv float64) bool {
		soa, raw := a.stream(t), h.stream(t)
		x, err := p.stream(t).Delayed(64 * math.Abs(math.Mod(cdv, 1)))
		if err != nil {
			t.Fatal(err)
		}
		sof := raw.Filtered()
		d0, err0 := DelayBound(soa, sof)
		d1, err1 := DelayBound(Add(soa, x), sof)
		d2, err2 := DelayBound(soa, Add(raw, x).Filtered())
		grew := func(d float64, err error) bool {
			return errors.Is(err, ErrUnstable) || err == nil && err0 == nil && d >= d0
		}
		if err0 == nil {
			stable++
		} else if !errors.Is(err0, ErrUnstable) {
			return false
		}
		return grew(d1, err1) && grew(d2, err2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
	if stable < 200 {
		t.Errorf("only %d of 2000 draws had a stable bound", stable)
	}
}

// TestPropFilteringTightensBound: filtering an aggregate through a link can
// only reduce (or preserve) the downstream delay bound — the "filtering
// effect" the paper exploits for tighter bounds.
func TestPropFilteringTightensBound(t *testing.T) {
	f := func(a randomAggregate) bool {
		s := a.stream(t)
		dRaw, errRaw := DelayBound(s, Zero())
		dFil, errFil := DelayBound(s.Filtered(), Zero())
		if errRaw != nil {
			// Unstable raw aggregate (tail rate >= 1): the filtered stream
			// is the saturated unit-rate stream, whose downstream bound is
			// finite (the upstream link cannot deliver more than rate 1).
			// Any finite bound tightens an infinite one.
			return true
		}
		if errFil != nil {
			return false
		}
		return dFil <= dRaw+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropDelayWorsensBound: jitter clumping never reduces the delay bound
// a stream induces downstream.
func TestPropDelayWorsensBound(t *testing.T) {
	f := func(p vbrParams, cdvSeed float64) bool {
		s := p.stream(t)
		cdv := math.Mod(math.Abs(cdvSeed), 256)
		d, err := s.Delayed(cdv)
		if err != nil {
			return false
		}
		b1, err1 := DelayBound(s, Constant(0.3))
		b2, err2 := DelayBound(d, Constant(0.3))
		if err1 != nil || err2 != nil {
			// Tail rates are unchanged by Delayed, so stability must agree.
			return (err1 == nil) == (err2 == nil)
		}
		return b2 >= b1-1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestPropBacklogAtMostDelay: Q <= D at every queueing point.
func TestPropBacklogAtMostDelay(t *testing.T) {
	f := func(a randomAggregate) bool {
		s := a.stream(t)
		d, errD := DelayBound(s, Zero())
		q, errQ := MaxBacklog(s, Zero())
		if errD != nil || errQ != nil {
			return (errD == nil) == (errQ == nil)
		}
		return q <= d+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// bruteForceRuns numbers the runs of TestPropDelayBoundMatchesBruteForce:
// each run seeds its generator with its number, so -count=N checks N
// distinct seeds and a failure names the one that reproduces it.
var bruteForceRuns atomic.Int64

// TestPropDelayBoundMatchesBruteForce cross-validates Algorithm 4.1 against
// a direct numerical evaluation of D(t) = g(t) - t on a dense grid.
func TestPropDelayBoundMatchesBruteForce(t *testing.T) {
	f := func(a randomAggregate, hp vbrParams) bool {
		s := a.stream(t)
		higher := hp.stream(t).Filtered()
		// Keep the scenario stable.
		if s.TailRate()+higher.TailRate() >= 1 {
			return true
		}
		d, err := DelayBound(s, higher)
		if err != nil {
			return false
		}
		brute, dt := bruteForceDelayBound(s, higher)
		// While higher sends at r, its peak below the link rate, the
		// service curve rises at 1 - r, so a grid step of cells is
		// dt/(1 - r) of delay; the grid's error is a few such units.
		return math.Abs(d-brute) < 8*dt/(1-belowLinkPeak(higher))+1e-6
	}
	seed := bruteForceRuns.Add(1)
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

// belowLinkPeak is the highest rate below the link rate at which a
// filtered stream sends: its first segment may hold the link at rate 1.
func belowLinkPeak(s Stream) float64 {
	for _, sg := range s.Segments() {
		if sg.Rate < 1 {
			return sg.Rate
		}
	}
	return 0
}

// bruteForceDelayBound numerically inverts the service curve on a dense
// grid, returning the bound and the grid step (which scales its error).
func bruteForceDelayBound(s, higher Stream) (bound, dt float64) {
	// Grid horizon: past all breakpoints plus drain time, which stretches
	// by 1/(1 - r) while higher sends at r (see belowLinkPeak).
	horizon := 1.0
	for _, sg := range s.Segments() {
		horizon = math.Max(horizon, sg.Start)
	}
	for _, sg := range higher.Segments() {
		horizon = math.Max(horizon, sg.Start)
	}
	horizon = (horizon*2 + 256) / (1 - belowLinkPeak(higher))
	const steps = 800000
	dt = horizon / steps
	// Cumulative arrivals and service on the grid.
	best := 0.0
	a, c := 0.0, 0.0
	cGrid := make([]float64, steps+1)
	for i := 1; i <= steps; i++ {
		tm := float64(i-1) * dt
		c += (1 - higher.RateAt(tm)) * dt
		cGrid[i] = c
	}
	j := 0
	for i := 0; i <= steps; i++ {
		tm := float64(i) * dt
		if i > 0 {
			a += s.RateAt(float64(i-1)*dt) * dt
		}
		for j <= steps && cGrid[j] < a-1e-12 {
			j++
		}
		if j > steps {
			break
		}
		if d := float64(j)*dt - tm; d > best {
			best = d
		}
	}
	return best, dt
}
