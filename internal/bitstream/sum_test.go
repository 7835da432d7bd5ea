package bitstream

import (
	"fmt"
	"slices"
	"sort"
	"testing"
)

// sumRef is the sort-based Algorithm 3.2 kernel that Sum replaced, kept as
// the reference Sum must match bit for bit: gather every breakpoint, sort
// and dedup them, then add the rates in force at each one in argument
// order, starting from 0.
func sumRef(streams ...Stream) Stream {
	nonzero := make([]Stream, 0, len(streams))
	total := 0
	for _, s := range streams {
		if !s.IsZero() {
			nonzero = append(nonzero, s)
			total += s.Len()
		}
	}
	switch len(nonzero) {
	case 0:
		return Zero()
	case 1:
		return nonzero[0]
	}
	points := make([]float64, 0, total)
	for _, s := range nonzero {
		for _, sg := range s.segs {
			points = append(points, sg.Start)
		}
	}
	sortFloats(points)
	points = dedupFloats(points)

	cursors := make([]int, len(nonzero))
	segs := make([]Segment, 0, len(points))
	for _, t := range points {
		rate := 0.0
		for i, s := range nonzero {
			for cursors[i]+1 < len(s.segs) && s.segs[cursors[i]+1].Start <= t {
				cursors[i]++
			}
			if s.segs[cursors[i]].Start <= t {
				rate += s.segs[cursors[i]].Rate
			}
		}
		segs = append(segs, Segment{Start: t, Rate: rate})
	}
	out, err := New(segs)
	if err != nil {
		panic(fmt.Sprintf("bitstream: sumRef produced invalid stream: %v", err))
	}
	return out
}

func sortFloats(x []float64) {
	sort.Float64s(x)
}

func dedupFloats(x []float64) []float64 {
	out := x[:0]
	for i, v := range x {
		if i == 0 || v != x[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// requireSameSum fails unless Sum(in...) holds exactly sumRef's segments,
// compared with ==.
func requireSameSum(t *testing.T, in []Stream) {
	t.Helper()
	if got, want := Sum(in...), sumRef(in...); !slices.Equal(got.segs, want.segs) {
		t.Fatalf("Sum over %d inputs = %v, sumRef = %v", len(in), got.segs, want.segs)
	}
}

// delayedEnvelopes returns n delayed copies of one VBR envelope with CDVs
// that repeat every 15 inputs, so the inputs share some breakpoints and
// not others.
func delayedEnvelopes(t *testing.T, n int) []Stream {
	t.Helper()
	env, err := FromVBR(0.5, 0.002, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]Stream, n)
	for i := range in {
		if in[i], err = env.Delayed(float64(32*(i%15)) + 0.1*float64(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestSumParity(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3, 17, 300} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			in := delayedEnvelopes(t, k)
			requireSameSum(t, in)
			if k > 0 {
				in[k/2] = Zero() // a zero input drops out of the order
			}
			requireSameSum(t, in)
		})
	}
}

// TestSumParityPermutations sums one input set in every order. In float64
// 0.1 + 0.2 + 0.3 differs from 0.3 + 0.2 + 0.1, so a kernel that added the
// rates in any other order than the arguments' fails here.
func TestSumParityPermutations(t *testing.T) {
	set := []Stream{
		Constant(0.1),
		MustNew([]Segment{{0, 0.2}, {1, 0.1}}),
		MustNew([]Segment{{0, 0.3}, {2, 0.05}}),
		MustNew([]Segment{{0, 0.7}, {1, 1.0 / 3}, {3, 0.01}}),
	}
	var permute func(n int)
	permute = func(n int) { // Heap's algorithm over set[:n]
		if n == 1 {
			requireSameSum(t, set)
			return
		}
		for i := 0; i < n; i++ {
			permute(n - 1)
			if n%2 == 0 {
				set[i], set[n-1] = set[n-1], set[i]
			} else {
				set[0], set[n-1] = set[n-1], set[0]
			}
		}
	}
	permute(len(set))
}

// Palettes for fuzzStreams: few distinct steps, so inputs share breakpoints
// and near-breakpoints; rate drops from zero to a few steps of the 2⁻³² rate
// grid, so inputs meet New's rounding up to the grid and its merge of equal
// rates.
var (
	fuzzRates = []float64{1, 0.9, 0.5, 1.0 / 3, 0.3, 0.2, 0.1, 0.0004, 1e-5}
	fuzzSteps = []float64{1, 0.5, 2, 1.0 / 3, 7, 4096, 1e-9}
	fuzzDrops = []float64{0, 0x1p-33, 0x1p-32, 0x1p-31, 3 * 0x1p-32, 1e-9, 0.01, 0.1, 0.25}
)

// fuzzStreams decodes data into at most 40 canonical streams, zero streams
// among them.
func fuzzStreams(t *testing.T, data []byte) []Stream {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	in := make([]Stream, next(41))
	for i := range in {
		segs := make([]Segment, next(6))
		start, rate := 0.0, fuzzRates[next(len(fuzzRates))]
		for j := range segs {
			if j > 0 {
				start += fuzzSteps[next(len(fuzzSteps))]
				rate = max(rate-fuzzDrops[next(len(fuzzDrops))], 0)
			}
			segs[j] = Segment{Start: start, Rate: rate}
		}
		s, err := New(segs)
		if err != nil {
			t.Fatalf("fuzz input %v: %v", segs, err)
		}
		in[i] = s
	}
	return in
}

// FuzzSumParity requires Sum, and Add on the first two inputs, to match the
// reference kernel segment by segment.
func FuzzSumParity(f *testing.F) {
	f.Add([]byte{3, 3, 0, 1, 2, 2, 2, 5, 3, 3, 2, 0, 3, 1})
	f.Add([]byte{17, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 4, 2, 1, 0, 6})
	f.Add([]byte{40, 5, 2, 6, 2, 6, 3, 6, 4, 6, 5, 5, 2, 6, 1, 6, 2, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzStreams(t, data)
		requireSameSum(t, in)
		if len(in) >= 2 {
			if got, want := Add(in[0], in[1]), sumRef(in[0], in[1]); !slices.Equal(got.segs, want.segs) {
				t.Fatalf("Add = %v, sumRef = %v", got.segs, want.segs)
			}
		}
	})
}

// TestConstructorsAllocateOnce pins what the admission path pays per
// stream it builds: the result's segment slice and nothing else.
func TestConstructorsAllocateOnce(t *testing.T) {
	env, err := FromVBR(0.5, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := delayedEnvelopes(t, 17)
	agg := Sum(in[:3]...)
	if agg.PeakRate() <= 1 || agg.TailRate() >= 1 {
		t.Fatalf("aggregate %v must exceed the link rate and drain", agg)
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Sum/2", func() { _ = Sum(in[:2]...) }},
		{"Sum/3", func() { _ = Sum(in[:3]...) }},
		{"Sum/17", func() { _ = Sum(in...) }},
		{"Filtered", func() { _ = agg.Filtered() }},
		{"Delayed", func() { _, _ = env.Delayed(32) }},
		{"FromVBR", func() { _, _ = FromVBR(0.5, 0.1, 8) }},
		{"Replace", func() { _, _ = Replace(agg, in[1], in[5]) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, got)
		}
	}
}

// TestReplaceWithoutChangeAllocatesNothing: a swap that changes nothing — a
// port gaining its first stream or losing its last, or a share swapped for
// an equal one — returns a stream it was given.
func TestReplaceWithoutChangeAllocatesNothing(t *testing.T) {
	in := delayedEnvelopes(t, 3)
	agg := Sum(in...)
	for _, c := range []struct {
		name               string
		agg, old, new, out Stream
	}{
		{"first", Zero(), Zero(), in[0], in[0]},
		{"last", in[0], in[0], Zero(), Zero()},
		{"equal", agg, in[1], in[1], agg},
	} {
		allocs := testing.AllocsPerRun(100, func() { _, _ = Replace(c.agg, c.old, c.new) })
		got, err := Replace(c.agg, c.old, c.new)
		if err != nil || allocs != 0 || !slices.Equal(got.Segments(), c.out.Segments()) {
			t.Errorf("%s: %v allocations, %v (%v), want 0 allocations and %v", c.name, allocs, got, err, c.out)
		}
	}
}
