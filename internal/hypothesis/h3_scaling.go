package hypothesis

import (
	"context"
	"fmt"

	"atmcac/internal/core"
	"atmcac/internal/routing"
	"atmcac/internal/topology"
	"atmcac/internal/workload"
)

func init() {
	Register(&Hypothesis{
		Name:  "h3-capacity-vs-topology",
		Title: "H3: Admission capacity scales with topology size, and shape sets route length",
		Statement: "For each generated topology family (multi-ring, fat tree, campus hierarchy), " +
			"growing the instance admits strictly more connections of the same per-host offered " +
			"load; and the shape sets the route length the CAC must price — fat-tree routes " +
			"never exceed five switches at any size, while multi-ring routes lengthen as rings " +
			"are added.",
		Family: "admission-control",
		Controlled: []string{
			"per-priority queue budgets (identical on every switch of every instance)",
			"offered load per host (same fleet distribution, offers proportional to host count)",
			"endpoint sampling (seeded uniform host pairs, shortest-path routes)",
			"delay bound (one generous bound, so queue budget is the binding constraint)",
		},
		Varied: "topology family and instance size (hosts per instance)",
		Seeds:  []uint64{42, 123, 456},
		Postmortem: "If capacity failed to grow with size inside a family, added switches are not " +
			"adding admission headroom — suspect the generator wiring (links missing, so routes " +
			"funnel through one bottleneck) or route selection (BFS not spreading load). If " +
			"route lengths are no longer what the shapes promise — a fat-tree route above five " +
			"switches, or multi-ring routes that stopped lengthening — the generators or the " +
			"BFS changed, and every capacity number downstream of them is suspect.",
		Run: runH3,
	})
}

// h3Instance is one generated topology of a family at a size step.
type h3Instance struct {
	family string
	step   int
	build  func() (*topology.Graph, error)
	hosts  []topology.NodeID
}

func h3Instances(scale Scale) []h3Instance {
	multiRing := func(rings, nodes, hostsPer int) h3Instance {
		var hosts []topology.NodeID
		for r := 0; r < rings; r++ {
			for i := 0; i < nodes; i++ {
				for h := 0; h < hostsPer; h++ {
					hosts = append(hosts, topology.MultiRingHost(r, i, h))
				}
			}
		}
		return h3Instance{
			family: "multi-ring",
			build: func() (*topology.Graph, error) {
				return topology.MultiRing(topology.MultiRingConfig{
					Rings: rings, NodesPerRing: nodes, HostsPerNode: hostsPer,
				})
			},
			hosts: hosts,
		}
	}
	fatTree := func(k, hostsPer int) h3Instance {
		var hosts []topology.NodeID
		for p := 0; p < k; p++ {
			for e := 0; e < k/2; e++ {
				for h := 0; h < hostsPer; h++ {
					hosts = append(hosts, topology.FatTreeHost(p, e, h))
				}
			}
		}
		return h3Instance{
			family: "fat-tree",
			build: func() (*topology.Graph, error) {
				return topology.FatTree(topology.FatTreeConfig{K: k, HostsPerEdge: hostsPer})
			},
			hosts: hosts,
		}
	}
	campus := func(b, f, hostsPer int) h3Instance {
		var hosts []topology.NodeID
		for bi := 0; bi < b; bi++ {
			for fi := 0; fi < f; fi++ {
				for h := 0; h < hostsPer; h++ {
					hosts = append(hosts, topology.CampusHost(bi, fi, h))
				}
			}
		}
		return h3Instance{
			family: "campus",
			build: func() (*topology.Graph, error) {
				return topology.Campus(topology.CampusConfig{
					Buildings: b, FloorsPerBuilding: f, HostsPerFloor: hostsPer,
				})
			},
			hosts: hosts,
		}
	}

	instances := []h3Instance{
		multiRing(1, 6, 1), multiRing(2, 6, 1),
		fatTree(2, 2), fatTree(4, 2),
		campus(1, 2, 2), campus(2, 3, 2),
	}
	if scale == ScaleFull {
		instances = append(instances,
			multiRing(3, 6, 1), fatTree(6, 2), campus(4, 4, 2))
	}
	// Assign per-family step indices in declaration order.
	steps := map[string]int{}
	for i := range instances {
		instances[i].step = steps[instances[i].family]
		steps[instances[i].family]++
	}
	return instances
}

// h3Result is one instance's measurement.
type h3Result struct {
	admitted int
	// meanLen and maxLen summarize route length (hops = switches) over
	// every offered non-degenerate pair.
	meanLen float64
	maxLen  int
}

// h3Measure offers a per-host-proportional fleet between seeded host pairs
// and returns the admitted count and route-length shape of the instance.
func h3Measure(seed uint64, inst h3Instance) (h3Result, error) {
	g, err := inst.build()
	if err != nil {
		return h3Result{}, err
	}
	n, err := routing.BuildNetwork(g, map[core.Priority]float64{1: 32, 2: 128}, core.HardCDV{})
	if err != nil {
		return h3Result{}, err
	}
	offered := 6 * len(inst.hosts)
	fleet, err := workload.SampleFleet(seed, workload.FleetConfig{}, offered)
	if err != nil {
		return h3Result{}, err
	}
	rng := workload.NewRNG(seed).Split("h3-pairs/" + inst.family)
	var res h3Result
	lenSum, routed := 0, 0
	for i, tmpl := range fleet {
		from := inst.hosts[rng.Intn(len(inst.hosts))]
		to := inst.hosts[rng.Intn(len(inst.hosts))]
		if from == to {
			continue // a degenerate pair counts as offered, not admitted
		}
		route, err := routing.Route(g, from, to)
		if err != nil {
			return h3Result{}, err
		}
		lenSum += len(route)
		routed++
		if len(route) > res.maxLen {
			res.maxLen = len(route)
		}
		_, err = n.Setup(context.Background(), core.ConnRequest{
			ID:         core.ConnID(fmt.Sprintf("h3-%04d", i)),
			Spec:       tmpl.Spec,
			Priority:   tmpl.Priority,
			Route:      route,
			DelayBound: 4000,
		})
		if err == nil {
			res.admitted++
		}
	}
	if routed > 0 {
		res.meanLen = float64(lenSum) / float64(routed)
	}
	if viols, err := n.Audit(); err != nil {
		return h3Result{}, err
	} else if len(viols) != 0 {
		return h3Result{}, fmt.Errorf("h3 %s step %d: %d audit violations after admission", inst.family, inst.step, len(viols))
	}
	return res, nil
}

func runH3(scale Scale, seed uint64) (SeedResult, error) {
	instances := h3Instances(scale)
	byFamily := map[string][]h3Result{}
	var metrics []Metric
	for _, inst := range instances {
		res, err := h3Measure(seed, inst)
		if err != nil {
			return SeedResult{}, err
		}
		byFamily[inst.family] = append(byFamily[inst.family], res)
		metrics = append(metrics,
			Metric{
				Name:  fmt.Sprintf("%s-%d-admitted", inst.family, inst.step),
				Value: float64(res.admitted),
			},
			Metric{
				Name:  fmt.Sprintf("%s-%d-mean-hops", inst.family, inst.step),
				Value: res.meanLen,
			},
		)
	}

	var checks []Check
	for _, family := range []string{"campus", "fat-tree", "multi-ring"} {
		steps := byFamily[family]
		grows := true
		detail := ""
		for i := 1; i < len(steps); i++ {
			if steps[i].admitted <= steps[i-1].admitted {
				grows = false
			}
			if detail != "" {
				detail += ", "
			}
			detail += fmt.Sprintf("step %d -> %d: %d -> %d", i-1, i, steps[i-1].admitted, steps[i].admitted)
		}
		checks = append(checks, Check{
			Name:   "capacity-grows-" + family,
			Pass:   grows,
			Detail: detail,
		})
	}
	ftMax := 0
	for _, res := range byFamily["fat-tree"] {
		if res.maxLen > ftMax {
			ftMax = res.maxLen
		}
	}
	checks = append(checks, Check{
		Name:   "fat-tree-routes-stay-short",
		Pass:   ftMax <= 5,
		Detail: fmt.Sprintf("longest fat-tree route at any size: %d switches (bound 5)", ftMax),
	})
	mr := byFamily["multi-ring"]
	mrFirst, mrLast := mr[0], mr[len(mr)-1]
	checks = append(checks, Check{
		Name: "multi-ring-routes-lengthen",
		Pass: mrLast.meanLen > mrFirst.meanLen,
		Detail: fmt.Sprintf("mean route length %.3f switches at smallest vs %.3f at largest",
			mrFirst.meanLen, mrLast.meanLen),
	})

	return SeedResult{Metrics: metrics, Checks: checks}, nil
}
