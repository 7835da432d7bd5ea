package shard

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
)

// benchShard is startShard for benchmarks: a live wire server owning the
// given switches.
func benchShard(b *testing.B, id string, switches ...string) string {
	b.Helper()
	n := core.NewNetwork(core.HardCDV{})
	for _, sw := range switches {
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name: sw, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			b.Fatal(err)
		}
	}
	srv := wire.NewServer(n)
	srv.SetShardID(id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	b.Cleanup(func() { _ = srv.Close(); <-done })
	return l.Addr().String()
}

// BenchmarkShardedSetup pins the cost of coordination: one full
// admit+release cycle through the coordinator, on a fixed 4-hop route,
// as the route's footprint widens from a single shard (fast path — one
// RPC, no intent log) to two and three shards (two-phase reserve-commit:
// one prepare and one commit per owning shard plus two fsynced intent
// appends). Teardown always broadcasts to every shard, so the cycle is
// uniform across variants; the deltas between them are the 2PC overhead
// the trajectory tracks.
func BenchmarkShardedSetup(b *testing.B) {
	// Twelve switches in three blocks of four: s0=sw0..sw3, s1=sw4..sw7,
	// s2=sw8..sw11.
	blocks := [][]string{
		{"sw0", "sw1", "sw2", "sw3"},
		{"sw4", "sw5", "sw6", "sw7"},
		{"sw8", "sw9", "sw10", "sw11"},
	}
	variants := []struct {
		name   string
		shards int
		route  core.Route
	}{
		{"1shard/local", 1, hops("sw0", "sw1", "sw2", "sw3")},
		{"3shard/local", 3, hops("sw0", "sw1", "sw2", "sw3")},
		{"3shard/cross2", 3, hops("sw2", "sw3", "sw4", "sw5")},
		{"3shard/cross3", 3, hops("sw3", "sw4", "sw8", "sw9")},
	}
	// failover pins the retry-latency bound the HA sweep promises: s0 is
	// a replicated pair whose primary is a corpse, and every iteration
	// re-points the endpoint at it before a cross-shard setup — so the cycle
	// measured is discover-the-death (one refused dial), fail over to the
	// surviving member, and complete two-phase reserve-commit through it.
	b.Run("failover", func(b *testing.B) {
		dead, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		deadAddr := dead.Addr().String()
		_ = dead.Close()
		survivor := benchShard(b, "s0", blocks[0]...)
		other := benchShard(b, "s1", blocks[1]...)
		spec := fmt.Sprintf("s0@%s|%s=%s;s1@%s=%s",
			deadAddr, survivor, joinSwitches(blocks[0]), other, joinSwitches(blocks[1]))
		m, err := ParseMap(spec)
		if err != nil {
			b.Fatal(err)
		}
		coord, err := NewCoordinator(m, nil, filepath.Join(b.TempDir(), "intent"))
		if err != nil {
			b.Fatal(err)
		}
		defer coord.Close()
		ctx := context.Background()
		req := core.ConnRequest{ID: "bench", Spec: traffic.CBR(0.001), Priority: 1, Route: hops("sw2", "sw3", "sw4", "sw5")}
		// Warm the s1 client and perform the first failover off the clock.
		if _, err := coord.Setup(ctx, req); err != nil {
			b.Fatal(err)
		}
		if err := coord.Teardown(ctx, req.ID); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			coord.ResetEndpoint("s0", deadAddr)
			if _, err := coord.Setup(ctx, req); err != nil {
				b.Fatal(err)
			}
			if err := coord.Teardown(ctx, req.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			spec := ""
			for i := 0; i < v.shards; i++ {
				id := fmt.Sprintf("s%d", i)
				addr := benchShard(b, id, blocks[i]...)
				if spec != "" {
					spec += ";"
				}
				spec += fmt.Sprintf("%s@%s=%s", id, addr, joinSwitches(blocks[i]))
			}
			m, err := ParseMap(spec)
			if err != nil {
				b.Fatal(err)
			}
			coord, err := NewCoordinator(m, nil, filepath.Join(b.TempDir(), "intent"))
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			ctx := context.Background()
			req := core.ConnRequest{ID: "bench", Spec: traffic.CBR(0.001), Priority: 1, Route: v.route}
			// Warm the per-shard client connections off the clock.
			if _, err := coord.Setup(ctx, req); err != nil {
				b.Fatal(err)
			}
			if err := coord.Teardown(ctx, req.ID); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Setup(ctx, req); err != nil {
					b.Fatal(err)
				}
				if err := coord.Teardown(ctx, req.ID); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}

func joinSwitches(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}
