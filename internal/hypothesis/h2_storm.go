package hypothesis

import (
	"fmt"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/faultinject"
	"atmcac/internal/overload"
	"atmcac/internal/rtnet"
	"atmcac/internal/workload"
)

func init() {
	Register(&Hypothesis{
		Name:  "h2-overload-degradation-storm",
		Title: "H2: Degradation order survives an adversarial MMPP storm",
		Statement: "Under a bursty MMPP arrival storm against the live control plane — including a " +
			"mid-storm link failure and repair — the overload limiter sheds strictly in class " +
			"order (reads before low-priority setups before high-priority setups, recovery " +
			"never shed), and high-priority setups retain admission goodput in the storm " +
			"windows where lower classes are already being shed.",
		Family: "overload-control",
		Controlled: []string{
			"ring topology and queue budgets (same rtnet config across seeds)",
			"limiter shape (rate, burst, and reserve fractions held fixed)",
			"event mix probabilities (read / low setup / high setup shares)",
			"fault schedule (one link failure and one repair at fixed event indices)",
		},
		Varied: "arrival pattern: seeded 2-state MMPP interarrival gaps (quiet spells vs bursts)",
		Seeds:  []uint64{42, 123, 456},
		Postmortem: "A falsification means the limiter's reserve thresholds no longer order the " +
			"classes: either a recovery/high request was shed while a cheaper class kept being " +
			"admitted in the same refill window (inspect overload.Class.reserveFraction and " +
			"the token accounting in Acquire), or high-priority goodput vanished in windows " +
			"where the reserve should have protected it. The window transcript in the report " +
			"pinpoints the first out-of-order shed.",
		Run: runH2,
	})
}

// h2Rank orders the shedding classes: a class sheds before every class
// with a lower rank, because its token reserve threshold is higher.
func h2Rank(ev faultinject.OverloadEvent) (rank int, countable bool) {
	switch ev.Kind {
	case faultinject.OvRead:
		return 3, true
	case faultinject.OvSetup:
		if ev.Priority > 1 {
			return 2, true
		}
		return 1, true
	default:
		return 0, false
	}
}

func runH2(scale Scale, seed uint64) (SeedResult, error) {
	nodes, events := 8, 240
	if scale == ScaleSmoke {
		nodes, events = 6, 80
	}
	failAt, restoreAt := events/2, events*3/4

	harness, err := faultinject.NewOverload(
		rtnet.Config{
			RingNodes:        nodes,
			TerminalsPerNode: 2,
			QueueCells:       map[core.Priority]float64{1: 32, 2: 128},
		},
		overload.LimiterConfig{Rate: 5, Burst: 8},
	)
	if err != nil {
		return SeedResult{}, err
	}
	defer harness.Close()

	// The storm clock: MMPP gaps in seconds drive the limiter's manual
	// clock, so quiet spells refill the bucket and bursts drain it.
	mmpp, err := workload.NewMMPP(seed, workload.MMPPConfig{
		QuietRate: 2, BurstRate: 50, MeanQuiet: 5, MeanBurst: 1,
	})
	if err != nil {
		return SeedResult{}, err
	}
	rng := workload.NewRNG(seed).Split("h2-mix")

	var script faultinject.OverloadScript
	prev := 0.0
	pending := 0.0
	setups := 0
	var established []core.ConnID
	for i := 0; i < events; i++ {
		at := mmpp.Next()
		pending += at - prev
		prev = at
		// The limiter refills on a coarse 250 ms tick: quiet-spell arrivals
		// each get their own refill, while burst arrivals pile into one
		// window and drain the bucket — the shape the degradation order
		// must survive.
		if pending >= 0.25 {
			script = append(script, faultinject.OverloadEvent{
				Kind: faultinject.OvAdvance,
				D:    time.Duration(pending * float64(time.Second)),
			})
			pending = 0
		}
		switch {
		case i == failAt:
			script = append(script, faultinject.OverloadEvent{Kind: faultinject.OvFail, Node: 2})
			continue
		case i == restoreAt:
			script = append(script, faultinject.OverloadEvent{Kind: faultinject.OvRestore, Node: 2})
			continue
		}
		p := rng.Float64()
		switch {
		case p < 0.30:
			script = append(script, faultinject.OverloadEvent{Kind: faultinject.OvRead})
		case p < 0.40 && len(established) > 0:
			id := established[0]
			established = established[1:]
			script = append(script, faultinject.OverloadEvent{Kind: faultinject.OvTeardown, ID: id})
		default:
			prio := core.Priority(2)
			if rng.Float64() < 0.5 {
				prio = 1
			}
			id := core.ConnID(fmt.Sprintf("h2-%04d", setups))
			setups++
			script = append(script, faultinject.OverloadEvent{
				Kind:     faultinject.OvSetup,
				ID:       id,
				Origin:   rng.Intn(nodes),
				Terminal: rng.Intn(2),
				PCR:      0.0005,
				Priority: prio,
			})
			established = append(established, id)
		}
	}

	outcomes, runErr := harness.Run(script)

	// Window analysis: within each refill window (between clock advances)
	// tokens only decrease, so once a class sheds, every class of equal or
	// higher rank must keep shedding until the next refill.
	orderOK := true
	orderDetail := "class order held in every refill window"
	var admitted, shed [4]int
	stormWindows, protectedWindows := 0, 0
	shedRank := 0 // 0 = nothing shed yet this window
	lowShedThisWindow, highOfferedThisWindow, highAdmittedThisWindow := false, false, false
	endWindow := func() {
		// A storm window sheds a lower class while high-priority work is
		// on offer — the configuration in which the reserve must protect
		// high-priority goodput.
		if lowShedThisWindow && highOfferedThisWindow {
			stormWindows++
			if highAdmittedThisWindow {
				protectedWindows++
			}
		}
		shedRank = 0
		lowShedThisWindow, highOfferedThisWindow, highAdmittedThisWindow = false, false, false
	}
	for i, out := range outcomes {
		if out.Event.Kind == faultinject.OvAdvance {
			endWindow()
			continue
		}
		rank, countable := h2Rank(out.Event)
		if !countable {
			continue
		}
		if rank == 1 {
			highOfferedThisWindow = true
		}
		if out.Shed {
			shed[rank]++
			if shedRank == 0 || rank < shedRank {
				shedRank = rank
			}
			if rank >= 2 {
				lowShedThisWindow = true
			}
		} else {
			admitted[rank]++
			if shedRank != 0 && rank >= shedRank && orderOK {
				orderOK = false
				orderDetail = fmt.Sprintf(
					"event %d (%s, rank %d) admitted after rank %d shed in the same window",
					i, out.Event.Kind, rank, shedRank)
			}
			if rank == 1 {
				highAdmittedThisWindow = true
			}
		}
	}
	endWindow()

	shedRate := func(r int) float64 {
		total := admitted[r] + shed[r]
		if total == 0 {
			return 0
		}
		return float64(shed[r]) / float64(total)
	}

	checks := []Check{
		{
			Name: "harness-invariants",
			Pass: runErr == nil,
			Detail: func() string {
				if runErr == nil {
					return "typed sheds, recovery never shed, connection accounting and audit clean"
				}
				return runErr.Error()
			}(),
		},
		{
			Name: "window-degradation-order",
			Pass: orderOK,
			Detail: fmt.Sprintf("%s (high adm/shed %d/%d, low %d/%d, read %d/%d)",
				orderDetail, admitted[1], shed[1], admitted[2], shed[2], admitted[3], shed[3]),
		},
		{
			Name: "shed-rate-ordering",
			Pass: shedRate(3) >= shedRate(2) && shedRate(2) >= shedRate(1),
			Detail: fmt.Sprintf("shed rates read %.3f >= low %.3f >= high %.3f",
				shedRate(3), shedRate(2), shedRate(1)),
		},
		{
			Name: "high-goodput-floor",
			Pass: stormWindows > 0 && protectedWindows == stormWindows && shed[2]+shed[3] > 0,
			Detail: fmt.Sprintf(
				"high-priority setups admitted in %d/%d windows that shed a lower class (%d total sheds)",
				protectedWindows, stormWindows, shed[1]+shed[2]+shed[3]),
		},
	}

	return SeedResult{
		Metrics: []Metric{
			{Name: "events", Value: float64(len(script))},
			{Name: "high-admitted", Value: float64(admitted[1])},
			{Name: "high-shed", Value: float64(shed[1])},
			{Name: "low-admitted", Value: float64(admitted[2])},
			{Name: "low-shed", Value: float64(shed[2])},
			{Name: "read-admitted", Value: float64(admitted[3])},
			{Name: "read-shed", Value: float64(shed[3])},
			{Name: "storm-windows", Value: float64(stormWindows)},
			{Name: "protected-windows", Value: float64(protectedWindows)},
		},
		Checks: checks,
	}, nil
}
