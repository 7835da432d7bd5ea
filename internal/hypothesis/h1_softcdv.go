package hypothesis

import (
	"context"
	"fmt"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/sim"
	"atmcac/internal/workload"
)

func init() {
	Register(&Hypothesis{
		Name:  "h1-soft-cdv-utilization",
		Title: "H1: Soft-CDV accumulation raises admitted utilization without delay-bound violations",
		Statement: "Replacing worst-case linear CDV accumulation (hard) with the square-root " +
			"accumulation rule (soft) admits at least as many connections of an identical " +
			"offered fleet on an identical ring — strictly more load at every seed — while a " +
			"cell-level replay of the soft-admitted set still meets every guaranteed delay " +
			"bound with zero drops.",
		Family: "admission-control",
		Controlled: []string{
			"ring topology (same node count, terminals, and per-priority queue budgets in both arms)",
			"offered fleet (same seeded CBR/VBR templates, offered in the same order)",
			"per-connection routes, priorities, and delay bounds",
			"simulator replay configuration (greedy conforming sources, same horizon)",
		},
		Varied: "CDV accumulation policy: core.HardCDV vs core.SoftCDV",
		Seeds:  []uint64{42, 123, 456},
		Postmortem: "A falsification means one of two mechanisms broke. If soft admitted " +
			"*fewer* connections than hard, the accumulation policies are inverted or the " +
			"sqrt rule regressed to over-counting — inspect core.SoftCDV.Accumulate. If the " +
			"replay violated a delay bound or dropped cells, the soft rule under-accounts " +
			"clumping on this workload and the paper's soft-CDV safety argument does not " +
			"extend to it — the admitted set, not the policy code, is the evidence to study.",
		Run: runH1,
	})
}

// h1Offer is one positioned fleet member: a template bound to a ring
// segment.
type h1Offer struct {
	tmpl   workload.ConnTemplate
	origin int
	term   int
	hops   int
}

func h1Offers(seed uint64, nodes, terminals, count int) ([]h1Offer, error) {
	fleet, err := workload.SampleFleet(seed, workload.FleetConfig{
		// VBR-heavy with large bursts so CDV clumping, not raw bandwidth,
		// is the binding constraint the two policies price differently.
		CBRFraction: 0.2,
		MBSMin:      8,
		MBSMax:      32,
	}, count)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(seed).Split("h1-placement")
	offers := make([]h1Offer, len(fleet))
	for i, tmpl := range fleet {
		offers[i] = h1Offer{
			tmpl:   tmpl,
			origin: rng.Intn(nodes),
			term:   rng.Intn(terminals),
			// Bias long segments: CDV accumulates per hop, so the policy
			// gap grows with route length.
			hops: 2 + rng.Intn(nodes-2),
		}
	}
	return offers, nil
}

// h1Admit offers the fleet in order to a fresh ring under the given policy
// and returns the admitted subset with its admission results.
func h1Admit(policy core.CDVPolicy, offers []h1Offer, nodes, terminals int,
	queues map[core.Priority]float64, delayBound float64) (*rtnet.Network, []int, []*core.Admission, error) {
	rt, err := rtnet.New(rtnet.Config{
		RingNodes:        nodes,
		TerminalsPerNode: terminals,
		QueueCells:       queues,
		Policy:           policy,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var admitted []int
	var adms []*core.Admission
	for i, off := range offers {
		route, err := rt.SegmentRoute(off.origin, off.term, off.hops)
		if err != nil {
			return nil, nil, nil, err
		}
		adm, err := rt.Core().Setup(context.Background(), core.ConnRequest{
			ID:         core.ConnID(fmt.Sprintf("h1-%04d", i)),
			Spec:       off.tmpl.Spec,
			Priority:   off.tmpl.Priority,
			Route:      route,
			DelayBound: delayBound,
		})
		if err != nil {
			continue // rejection is the measurement, not an error
		}
		admitted = append(admitted, i)
		adms = append(adms, adm)
	}
	return rt, admitted, adms, nil
}

// h1Replay drives the admitted set through the cell-level simulator with
// greedy conforming sources and returns the worst delay-vs-guarantee
// violation margin and the drop count.
func h1Replay(offers []h1Offer, admitted []int, adms []*core.Admission,
	nodes int, queues map[core.Priority]float64, slots uint64) (worstSlack float64, drops int, err error) {
	simNet := sim.New()
	caps := make(map[sim.Priority]int, len(queues))
	for p, c := range queues {
		caps[sim.Priority(p)] = int(c)
	}
	switches := make([]*sim.Switch, nodes)
	for i := range switches {
		sw, err := simNet.AddSwitch(rtnet.SwitchName(i), caps)
		if err != nil {
			return 0, 0, err
		}
		switches[i] = sw
	}
	for i := range switches {
		if err := simNet.Link(switches[i], 0, switches[(i+1)%nodes], 0); err != nil {
			return 0, 0, err
		}
	}
	for vc, idx := range admitted {
		off := offers[idx]
		prio := sim.Priority(off.tmpl.Priority)
		// Transit hops queue at the ring output port; the final queueing
		// point is remapped to a dedicated sink port, mirroring
		// ValidateRTnet's consistent exclusion of delivery-port contention.
		for h := 0; h < off.hops-1; h++ {
			if err := switches[(off.origin+h)%nodes].SetRoute(vc, 0, prio); err != nil {
				return 0, 0, err
			}
		}
		if err := switches[(off.origin+off.hops-1)%nodes].SetRoute(vc, 1000+vc, prio); err != nil {
			return 0, 0, err
		}
		err := simNet.AddSource(sim.SourceConfig{
			VC:     vc,
			Spec:   off.tmpl.Spec,
			Dest:   switches[off.origin],
			InPort: 200 + vc,
			Mode:   sim.Greedy,
			Seed:   int64(vc)*7919 + 17,
		})
		if err != nil {
			return 0, 0, err
		}
	}
	stats, err := simNet.Run(slots)
	if err != nil {
		return 0, 0, err
	}
	worstSlack = 1e18
	for vc := range admitted {
		slack := adms[vc].EndToEndGuaranteed - float64(stats.PerVC[vc].MaxDelay)
		if slack < worstSlack {
			worstSlack = slack
		}
	}
	for _, qs := range stats.Queues {
		drops += qs.Drops
	}
	return worstSlack, drops, nil
}

func runH1(scale Scale, seed uint64) (SeedResult, error) {
	nodes, terminals, count, slots := 10, 2, 160, uint64(40000)
	if scale == ScaleSmoke {
		nodes, count, slots = 6, 60, 20000
	}
	queues := map[core.Priority]float64{1: 32, 2: 128}
	const delayBound = 2000

	offers, err := h1Offers(seed, nodes, terminals, count)
	if err != nil {
		return SeedResult{}, err
	}
	hardNet, hardAdmitted, _, err := h1Admit(core.HardCDV{}, offers, nodes, terminals, queues, delayBound)
	if err != nil {
		return SeedResult{}, err
	}
	softNet, softAdmitted, softAdms, err := h1Admit(core.SoftCDV{}, offers, nodes, terminals, queues, delayBound)
	if err != nil {
		return SeedResult{}, err
	}

	// Utilization: mean admitted load per ring port, in fractions of link
	// bandwidth — each admitted connection loads `hops` ring ports with its
	// PCR.
	util := func(idxs []int) float64 {
		var sum float64
		for _, i := range idxs {
			sum += offers[i].tmpl.Spec.PCR * float64(offers[i].hops)
		}
		return sum / float64(nodes)
	}
	hardUtil, softUtil := util(hardAdmitted), util(softAdmitted)

	hardViol, err := hardNet.Audit()
	if err != nil {
		return SeedResult{}, err
	}
	softViol, err := softNet.Audit()
	if err != nil {
		return SeedResult{}, err
	}
	worstSlack, drops, err := h1Replay(offers, softAdmitted, softAdms, nodes, queues, slots)
	if err != nil {
		return SeedResult{}, err
	}

	return SeedResult{
		Metrics: []Metric{
			{Name: "offered", Value: float64(len(offers))},
			{Name: "hard-admitted", Value: float64(len(hardAdmitted))},
			{Name: "soft-admitted", Value: float64(len(softAdmitted))},
			{Name: "hard-ring-util", Value: hardUtil},
			{Name: "soft-ring-util", Value: softUtil},
			{Name: "replay-worst-slack", Value: worstSlack},
			{Name: "replay-drops", Value: float64(drops)},
		},
		Checks: []Check{
			{
				Name: "soft-admits-strictly-more",
				Pass: len(softAdmitted) > len(hardAdmitted),
				Detail: fmt.Sprintf("soft admitted %d, hard admitted %d of %d offered",
					len(softAdmitted), len(hardAdmitted), len(offers)),
			},
			{
				Name: "soft-raises-utilization",
				Pass: softUtil > hardUtil,
				Detail: fmt.Sprintf("soft ring utilization %.4g vs hard %.4g",
					softUtil, hardUtil),
			},
			{
				Name:   "audit-clean-both-policies",
				Pass:   len(hardViol) == 0 && len(softViol) == 0,
				Detail: fmt.Sprintf("hard violations %d, soft violations %d", len(hardViol), len(softViol)),
			},
			{
				Name: "replay-meets-delay-bounds",
				Pass: worstSlack >= 0 && drops == 0,
				Detail: fmt.Sprintf("worst slack %.4g cell times (guarantee minus measured), %d drops",
					worstSlack, drops),
			},
		},
	}, nil
}
