package faultinject

import (
	"testing"
)

// TestHAShardHarnessSweep is the composed HA soak: every 2PC boundary
// crossed with every victim kind over replicated pairs. The outcomes
// differ from the unreplicated sweep in exactly the way HA promises:
// a shard-primary death or partition no longer costs the in-flight
// setup — the coordinator fails over to the pair's standby, promotes
// it and completes the transaction, so the victim setup must be
// admitted at EVERY point. Killing the active coordinator still
// resolves by decision record, now read from the promoted standby
// coordinator's shipped copy of the intent log: presumed abort before
// the commit intent, re-driven commit after it — and past the ack, a
// connection the client released before the kill stays released, because
// the teardown shipped its done record first. A replication link cut
// while a commit leg waits on the standby's ack leaves the commit in
// doubt, never aborted: Recover re-drives it once the link is back.
func TestHAShardHarnessSweep(t *testing.T) {
	points := []ShardPoint{ShardPrePrepare, ShardPostPrepare, ShardPreCommit, ShardMidCommit, ShardPostCommit}
	cases := []struct {
		name  string
		fault func(p ShardPoint) HAFault
		// admitted reports whether the interrupted setup must survive.
		admitted func(p ShardPoint) bool
		// points, when set, replaces the default boundaries.
		points []ShardPoint
		// pastAck adds the boundaries after the client's ack, which only
		// a coordinator death can land on.
		pastAck []ShardPoint
	}{
		{
			name:  "coordinator-crash",
			fault: func(p ShardPoint) HAFault { return HAFault{Point: p, Victim: VictimCoordinator} },
			admitted: func(p ShardPoint) bool {
				return p == ShardMidCommit || p == ShardPostCommit || p == ShardPostAck
			},
			pastAck: []ShardPoint{ShardPostAck, ShardPostAckTeardown},
		},
		{
			name:     "shard-primary-crash",
			fault:    func(p ShardPoint) HAFault { return HAFault{Point: p, Victim: "s1"} },
			admitted: func(ShardPoint) bool { return true },
		},
		{
			name:     "pair-partition",
			fault:    func(p ShardPoint) HAFault { return HAFault{Point: p, Victim: "s2", Partition: true} },
			admitted: func(ShardPoint) bool { return true },
		},
		{
			name:     "repl-partition",
			fault:    func(p ShardPoint) HAFault { return HAFault{Point: p, Victim: "s2", ReplCut: true} },
			admitted: func(ShardPoint) bool { return true },
			// The cut is armed at the point and fires on the victim's
			// commit leg, so only points before the commit legs apply.
			points: []ShardPoint{ShardPrePrepare, ShardPostPrepare, ShardPreCommit},
		},
	}
	for _, tc := range cases {
		pts := points
		if tc.points != nil {
			pts = tc.points
		}
		for _, p := range append(append([]ShardPoint{}, pts...), tc.pastAck...) {
			tc, p := tc, p
			t.Run(tc.name+"/"+string(p), func(t *testing.T) {
				t.Parallel()
				h := &HAShardHarness{Dir: t.TempDir()}
				res, err := h.Run(tc.fault(p))
				if err != nil {
					t.Fatal(err)
				}
				if want := tc.admitted(p); res.VictimAdmitted != want {
					t.Fatalf("interrupted setup admitted=%v, want %v (recovered %+v)",
						res.VictimAdmitted, want, res.Recovered)
				}
				if coordFault := tc.fault(p).Victim == VictimCoordinator; coordFault != res.CoordPromoted {
					t.Fatalf("coordinator promoted=%v for victim %q", res.CoordPromoted, tc.fault(p).Victim)
				}
				if f := tc.fault(p); f.Victim != VictimCoordinator && !f.ReplCut && res.ShardFailovers == 0 {
					t.Fatal("shard fault resolved without a recorded shard failover")
				}
			})
		}
	}
}
