package main

// The four workloads; later issues cite the names verbatim. Why each was
// chosen is recorded once, in BENCHMARK.json, and at length in
// bench/README.md.
//
// Every mix carries an operator-poll share of reads, because the
// benchmark contract wants every end-to-end metric (read_p50_ms among
// them) from every workload: 15 %, which at 500 ops/s is the 75 reads a
// one-second window needs for its median to mean something. The
// coordinator front door answers only list and health, so sharded_cross
// polls with list.
//
// Paced rates sit at roughly a third of the closed-loop rate measured at
// the commit that added the benchmark (see the calibration record in
// bench/README.md): far enough from the knee that the generator shows no
// growing backlog.
var workloads = []*workloadDef{
	{
		name:      "churn_empty",
		ringNodes: 16,
		mix: []share{
			{opSetup, 40}, {opTeardown, 40}, {opRefused, 5}, {opBound, 15},
		},
		pacedRate: 2000,
	},
	{
		name:      "churn_loaded",
		ringNodes: 16,
		residents: 4096,
		mix: []share{
			{opSetup, 40}, {opTeardown, 40}, {opRefused, 5}, {opBound, 15},
		},
		pacedRate: 500,
	},
	{
		name:      "mixed_loaded",
		ringNodes: 16,
		residents: 4096,
		mix: []share{
			{opBound, 40}, {opInspect, 8}, {opList, 2}, {opSetup, 25}, {opTeardown, 25},
		},
		pacedRate: 500,
	},
	{
		name:      "sharded_cross",
		sharded:   true,
		ringNodes: 8,
		mix: []share{
			{opSetup, 40}, {opTeardown, 40}, {opRefused, 5}, {opList, 15},
		},
		pacedRate: 500,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
