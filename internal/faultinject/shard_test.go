package faultinject

import (
	"testing"
)

// TestShardHarnessSweep is the shard chaos soak: every protocol boundary
// crossed with every victim kind — coordinator kill, shard kill, shard
// partition — must recover to a uniform, residue-free fleet. The
// expected outcome of the interrupted setup is deterministic per cell:
// a coordinator that dies before its commit intent leaves presumed
// abort; after it, recovery re-drives the commit. A dead or partitioned
// shard only blocks the first prepare — any later fault resolves to
// admission once the coordinator can reach it again. Past the ack only
// the coordinator can die: with the done record still queued the commit
// is re-driven idempotently, and with the connection released before the
// kill it must stay released.
func TestShardHarnessSweep(t *testing.T) {
	points := []ShardPoint{ShardPrePrepare, ShardPostPrepare, ShardPreCommit, ShardMidCommit, ShardPostCommit}
	cases := []struct {
		name  string
		fault func(p ShardPoint) ShardFault
		// admitted reports whether the interrupted setup must survive.
		admitted func(p ShardPoint) bool
		// pastAck adds the boundaries after the client's ack, which only
		// a coordinator death can land on.
		pastAck []ShardPoint
	}{
		{
			name:  "coordinator-crash",
			fault: func(p ShardPoint) ShardFault { return ShardFault{Point: p, Victim: VictimCoordinator} },
			admitted: func(p ShardPoint) bool {
				return p == ShardMidCommit || p == ShardPostCommit || p == ShardPostAck
			},
			pastAck: []ShardPoint{ShardPostAck, ShardPostAckTeardown},
		},
		{
			name:     "shard-crash",
			fault:    func(p ShardPoint) ShardFault { return ShardFault{Point: p, Victim: "s1"} },
			admitted: func(p ShardPoint) bool { return p != ShardPrePrepare },
		},
		{
			name:     "shard-partition",
			fault:    func(p ShardPoint) ShardFault { return ShardFault{Point: p, Victim: "s2", Partition: true} },
			admitted: func(p ShardPoint) bool { return p != ShardPrePrepare },
		},
	}
	for _, tc := range cases {
		for _, p := range append(append([]ShardPoint{}, points...), tc.pastAck...) {
			t.Run(tc.name+"/"+string(p), func(t *testing.T) {
				t.Parallel()
				h := &ShardHarness{Dir: t.TempDir()}
				res, err := h.Run(tc.fault(p))
				if err != nil {
					t.Fatal(err)
				}
				if want := tc.admitted(p); res.VictimAdmitted != want {
					t.Fatalf("interrupted setup admitted=%v, want %v (recovered %+v)",
						res.VictimAdmitted, want, res.Recovered)
				}
			})
		}
	}
}
