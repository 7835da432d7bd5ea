package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"atmcac/internal/bitstream"
	"atmcac/internal/obs"
	"atmcac/internal/traffic"
)

// tally counts trace events by kind, outcome and code: the counters a
// metrics tracer derives from them.
type tally struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *tally) Trace(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[fmt.Sprintf("%s/%s/%s", ev.Kind, ev.Outcome, ev.Code)]++
}

// setNetwork is a ring of four three-priority switches whose queues are
// tight enough that a random set is refused about as often as admitted.
func setNetwork(t *testing.T, policy CDVPolicy) *Network {
	t.Helper()
	n := NewNetwork(policy)
	for i := 0; i < 4; i++ {
		if _, err := n.AddSwitch(SwitchConfig{
			Name:       fmt.Sprintf("sw%d", i),
			QueueCells: map[Priority]float64{1: 8, 2: 16, 3: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// setRequest draws a connection over 1-6 consecutive ring hops, leaving by
// one of three output ports. Five or six hops on four switches come back
// to the first ones through other ports: a wrapped route. A few requests
// are malformed, name an unknown switch or ask for a delay bound below
// their guarantees.
func setRequest(rng *rand.Rand, id ConnID) ConnRequest {
	first, hops := rng.Intn(4), 1+rng.Intn(6)
	route := make(Route, hops)
	for h := range route {
		route[h] = Hop{
			Switch: fmt.Sprintf("sw%d", (first+h)%4),
			In:     PortID(4*h + rng.Intn(4)),
			Out:    PortID(rng.Intn(3)),
		}
	}
	pcr := 0.02 + 0.2*rng.Float64()
	req := ConnRequest{
		ID:        id,
		Spec:      traffic.VBR(pcr, pcr*(0.05+0.3*rng.Float64()), float64(1+rng.Intn(12))),
		Priority:  Priority(1 + rng.Intn(3)),
		Route:     route,
		SourceCDV: float64(4 * rng.Intn(4)),
	}
	switch rng.Intn(40) {
	case 0:
		req.Spec.PCR = 0
	case 1:
		req.Route[rng.Intn(hops)].Switch = "nowhere"
	case 2:
		req.DelayBound = 10
	}
	return req
}

// setTrial is one differential trial: a loaded network and a set.
type setTrial struct {
	residents []ConnRequest
	fail      *Link
	set       []ConnRequest
}

// drawTrial draws residents, an optional failed ring link, and a set with
// duplicate IDs — of an earlier member or of a resident — and, rarely, a
// route through one port pair twice, which no admission path accepts.
func drawTrial(rng *rand.Rand, trial int) setTrial {
	var tr setTrial
	for i := rng.Intn(12); i > 0; i-- {
		tr.residents = append(tr.residents, setRequest(rng, ConnID(fmt.Sprintf("r%d-%d", trial, i))))
	}
	if rng.Intn(4) == 0 {
		from := rng.Intn(4)
		tr.fail = &Link{From: fmt.Sprintf("sw%d", from), To: fmt.Sprintf("sw%d", (from+1)%4)}
	}
	for i := 3 + rng.Intn(20); i > 0; i-- {
		req := setRequest(rng, ConnID(fmt.Sprintf("s%d-%d", trial, i)))
		switch k := rng.Intn(12); {
		case k == 0 && len(tr.set) > 0:
			req.ID = tr.set[rng.Intn(len(tr.set))].ID
		case k == 1 && len(tr.residents) > 0:
			req.ID = tr.residents[rng.Intn(len(tr.residents))].ID
		}
		tr.set = append(tr.set, req)
	}
	if rng.Intn(15) == 0 {
		req := &tr.set[rng.Intn(len(tr.set))]
		req.Route = append(slices.Clone(req.Route), req.Route[0])
	}
	return tr
}

// load builds a network carrying the trial's residents, admitted one by
// one, with its link failed.
func (tr setTrial) load(t *testing.T, policy CDVPolicy) *Network {
	t.Helper()
	n := setNetwork(t, policy)
	for _, req := range tr.residents {
		_, _ = n.Setup(context.Background(), req)
	}
	if tr.fail != nil {
		if _, err := n.FailLink(tr.fail.From, tr.fail.To); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// sameNetworks compares two quiescent networks switch by switch with
// sameState, and their admitted sets.
func sameNetworks(t *testing.T, what string, a, b *Network) {
	t.Helper()
	for _, name := range a.SwitchNames() {
		swA, _ := a.Switch(name)
		swB, _ := b.Switch(name)
		sameState(t, what+" "+name, swA, swB)
	}
	if ca, cb := a.Connections(), b.Connections(); !slices.Equal(ca, cb) {
		t.Errorf("%s: admitted %v against %v", what, ca, cb)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSetMatchesSequential is the differential oracle of set admission.
// Random sets, under both CDV policies, over networks with residents and
// sometimes a failed link, with wrapped routes and duplicate IDs, are
// admitted as a set by SetupSet and one by one in request order by Setup,
// and loaded by InstallSet and by Install. Every request's error and code
// must be the same both ways, as must the trace counters and every
// switch's state, compared with ==. When no member fails at a hop one by
// one, the set path commits: each admission then reports the bounds of the
// committed state, which are at least those reported one by one. When a
// member fails at a hop, the admissions are equal.
func TestSetMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []CDVPolicy{HardCDV{}, SoftCDV{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(48))
			committed, refused := 0, 0
			for trial := 0; trial < 150; trial++ {
				tr := drawTrial(rng, trial)
				what := fmt.Sprintf("trial %d", trial)

				set, seq := tr.load(t, policy), tr.load(t, policy)
				setTally, seqTally := &tally{}, &tally{}
				set.SetTracer(setTally)
				seq.SetTracer(seqTally)
				adms, errs := set.SetupSet(ctx, tr.set)
				seqAdms := make([]*Admission, len(tr.set))
				seqErrs := make([]error, len(tr.set))
				for i, req := range tr.set {
					seqAdms[i], seqErrs[i] = seq.Setup(ctx, req)
				}
				atHop := 0
				for key, c := range seqTally.n {
					if key[:len(obs.KindHopCheck)] == string(obs.KindHopCheck) && key != fmt.Sprintf("%s/%s/", obs.KindHopCheck, obs.OutcomeAccepted) {
						atHop += c
					}
				}
				if atHop == 0 {
					committed++
				} else {
					refused++
				}
				for i, req := range tr.set {
					where := fmt.Sprintf("%s request %d (%s)", what, i, req.ID)
					if errText(errs[i]) != errText(seqErrs[i]) || ErrorCode(errs[i]) != ErrorCode(seqErrs[i]) {
						t.Fatalf("%s: set says %v (%s), one by one %v (%s)",
							where, errs[i], ErrorCode(errs[i]), seqErrs[i], ErrorCode(seqErrs[i]))
					}
					if (adms[i] == nil) == (errs[i] == nil) {
						t.Fatalf("%s: admission %v with error %v", where, adms[i], errs[i])
					}
					if adms[i] != nil {
						checkSetAdmission(t, where, seq, req, adms[i], seqAdms[i], atHop == 0)
					}
				}
				if !maps.Equal(setTally.n, seqTally.n) {
					t.Fatalf("%s: set traced %v, one by one %v", what, setTally.n, seqTally.n)
				}
				sameNetworks(t, what+" setup", set, seq)

				installed, loaded := tr.load(t, policy), tr.load(t, policy)
				ierrs := installed.InstallSet(tr.set)
				for i, req := range tr.set {
					if err := loaded.Install(req); errText(err) != errText(ierrs[i]) {
						t.Fatalf("%s request %d (%s): InstallSet says %v, Install %v", what, i, req.ID, ierrs[i], err)
					}
				}
				sameNetworks(t, what+" install", installed, loaded)
				if t.Failed() {
					t.FailNow()
				}
			}
			t.Logf("%d sets committed whole, %d refused at a hop", committed, refused)
			if committed < 30 || refused < 30 {
				t.Fatalf("%d sets committed whole and %d refused at a hop; the oracle needs both", committed, refused)
			}
		})
	}
}

// checkSetAdmission compares an admission of SetupSet with the one Setup
// made of the same request. With whole, the set committed: each hop's
// bound is the one in the final state, seq, and at least the one reported
// one by one. Otherwise the two are equal.
func checkSetAdmission(t *testing.T, where string, seq *Network, req ConnRequest, got, want *Admission, whole bool) {
	t.Helper()
	if !slices.Equal(got.PerHopGuaranteed, want.PerHopGuaranteed) || got.EndToEndGuaranteed != want.EndToEndGuaranteed {
		t.Fatalf("%s: guarantees %v (%v), one by one %v (%v)", where,
			got.PerHopGuaranteed, got.EndToEndGuaranteed, want.PerHopGuaranteed, want.EndToEndGuaranteed)
	}
	if !whole {
		if !slices.Equal(got.PerHopComputed, want.PerHopComputed) || got.EndToEndComputed != want.EndToEndComputed {
			t.Fatalf("%s: bounds %v, one by one %v", where, got.PerHopComputed, want.PerHopComputed)
		}
		return
	}
	sum := 0.0
	for h, d := range got.PerHopComputed {
		hop := req.Route[h]
		sw, _ := seq.Switch(hop.Switch)
		final, err := sw.ComputedBound(hop.Out, req.Priority)
		if err != nil || d != final || d < want.PerHopComputed[h] || d > got.PerHopGuaranteed[h]+bitstream.Eps {
			t.Fatalf("%s hop %d: bound %v, final state %v (%v), one by one %v, guaranteed %v",
				where, h, d, final, err, want.PerHopComputed[h], got.PerHopGuaranteed[h])
		}
		sum += d
	}
	if got.EndToEndComputed != sum {
		t.Fatalf("%s: end-to-end bound %v, hops sum to %v", where, got.EndToEndComputed, sum)
	}
}

// TestSetLeavesNothingOnRefusal: a set that does not fit as a whole
// reserves no ID and publishes nothing before it is admitted one by one.
func TestSetLeavesNothingOnRefusal(t *testing.T) {
	n := setNetwork(t, HardCDV{})
	route := Route{{Switch: "sw0", In: 0, Out: 0}}
	fat := traffic.CBR(0.6)
	_, errs, ok := n.admitSet(context.Background(), []ConnRequest{
		{ID: "x", Spec: fat, Priority: 1, Route: route},
		{ID: "y", Spec: fat, Priority: 1, Route: Route{{Switch: "sw0", In: 1, Out: 0}}},
	}, true)
	if ok || errs != nil {
		t.Fatalf("an overloaded set committed: %v", errs)
	}
	sw, _ := n.Switch("sw0")
	if sw.ConnectionCount() != 0 || len(sw.OutPorts()) != 0 || len(n.pending) != 0 {
		t.Fatalf("refused set left %d connections, ports %v, %d pending", sw.ConnectionCount(), sw.OutPorts(), len(n.pending))
	}
}
