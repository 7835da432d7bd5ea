package replica_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/overload"
	"atmcac/internal/replica"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	"atmcac/internal/wire"
	"atmcac/internal/workload"
)

const (
	propRing      = 4
	propTerminals = 2
)

// node is one replicated CAC server booted for the property test.
type node struct {
	rt     *rtnet.Network
	srv    *wire.Server
	dur    *wire.Durable
	client *wire.Client
	ln     net.Listener
	replLn net.Listener
	prim   *replica.Primary
	sb     *replica.Standby
}

func (n *node) stop() {
	if n.sb != nil {
		n.sb.Close()
	}
	if n.prim != nil {
		n.prim.Close()
	}
	if n.client != nil {
		n.client.Close()
	}
	n.srv.Close()
	n.dur.Close()
}

// bootNode builds a journal-sync durable wire server on an ephemeral
// port. withRepl additionally opens a replication listener.
func bootNode(t testing.TB, statePath string, withRepl bool) *node {
	t.Helper()
	return bootNodeFS(t, statePath, withRepl, journal.OSFS{})
}

// bootNodeFS is bootNode writing through fsys.
func bootNodeFS(t testing.TB, statePath string, withRepl bool, fsys journal.FS) *node {
	t.Helper()
	rt, err := rtnet.New(rtnet.Config{
		RingNodes:        propRing,
		TerminalsPerNode: propTerminals,
		QueueCells:       map[core.Priority]float64{1: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &node{rt: rt, srv: wire.NewServer(rt.Core())}
	n.dur, err = wire.OpenDurable(wire.DurableConfig{
		StatePath: statePath,
		FS:        fsys,
		Mode:      wire.DurabilityJournalSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.dur.Recover(rt.Core()); err != nil {
		t.Fatal(err)
	}
	n.srv.SetDurable(n.dur)
	if withRepl {
		n.replLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	n.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go n.srv.Serve(n.ln)
	n.client, err = wire.Dial(n.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func stateKey(c *core.Network) string {
	ids := make([]string, 0)
	for _, id := range c.Connections() {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	links := make([]string, 0)
	for _, l := range c.FailedLinks() {
		links = append(links, l.From+"->"+l.To)
	}
	sort.Strings(links)
	return "conns{" + strings.Join(ids, ",") + "} down{" + strings.Join(links, ",") + "}"
}

func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestPropertyChurnReplicates drives a seeded setup/teardown churn
// through a sync-mode primary and asserts two properties per seed: the
// warm standby's in-memory admission state equals the primary's after
// every acked operation, and the standby's replicated on-disk bytes —
// snapshot plus shipped journal — recover to exactly that state through
// the normal wire state round-trip on a fresh network.
func TestPropertyChurnReplicates(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			pn := bootNode(t, filepath.Join(dir, "primary.json"), true)
			defer pn.stop()
			pn.prim = replica.NewPrimary(pn.srv, replica.PrimaryConfig{
				Mode:           replica.ModeSync,
				AckTimeout:     5 * time.Second,
				HeartbeatEvery: 50 * time.Millisecond,
			})
			pn.srv.SetShipper(pn.prim)
			go pn.prim.Serve(pn.replLn)

			sPath := filepath.Join(dir, "standby.json")
			sn := bootNode(t, sPath, false)
			defer sn.stop()
			sn.srv.SetStandby(true)
			sn.sb = replica.NewStandby(sn.srv, replica.StandbyConfig{
				PrimaryAddr:      pn.replLn.Addr().String(),
				ReconnectBackoff: overload.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
			})
			go sn.sb.Run()

			// Sync mode refuses mutations until a standby session exists;
			// wait for the handshake before the churn starts.
			if !waitFor(5*time.Second, func() bool {
				rep := wire.ReplicationReport{Role: "primary"}
				replica.Status(pn.prim, nil)(&rep)
				return rep.Connected
			}) {
				t.Fatal("standby never connected to the primary")
			}

			events, err := workload.Churn(seed, mustGamma(t, seed), workload.ChurnConfig{MeanHold: 3}, 60)
			if err != nil {
				t.Fatal(err)
			}
			established := map[int]bool{}
			acked := 0
			for _, ev := range events {
				id := core.ConnID(fmt.Sprintf("c%03d", ev.Index))
				switch ev.Kind {
				case workload.EvSetup:
					route, rerr := pn.rt.BroadcastRoute(ev.Index%propRing, ev.Index%propTerminals)
					if rerr != nil {
						t.Fatal(rerr)
					}
					_, serr := pn.client.Setup(context.Background(), core.ConnRequest{
						ID: id, Spec: traffic.CBR(0.001), Priority: 1, Route: route,
					})
					if serr == nil {
						established[ev.Index] = true
						acked++
					} else if !errors.Is(serr, core.ErrRejected) {
						t.Fatalf("setup %s: %v", id, serr)
					}
				case workload.EvTeardown:
					if !established[ev.Index] {
						continue
					}
					if terr := pn.client.Teardown(context.Background(), id); terr != nil {
						t.Fatalf("teardown %s: %v", id, terr)
					}
					delete(established, ev.Index)
					acked++
				}
			}
			if acked == 0 {
				t.Fatal("churn acked no operations")
			}

			// Property 1: the warm standby holds exactly the primary's state.
			want := stateKey(pn.rt.Core())
			if !waitFor(5*time.Second, func() bool { return stateKey(sn.rt.Core()) == want }) {
				t.Fatalf("standby state %s never converged to %s", stateKey(sn.rt.Core()), want)
			}

			// Property 2: the standby's replicated bytes recover to the same
			// state on a fresh network — the wire state round-trip.
			sn.stop()
			rt2, err := rtnet.New(rtnet.Config{
				RingNodes:        propRing,
				TerminalsPerNode: propTerminals,
				QueueCells:       map[core.Priority]float64{1: 1e6},
			})
			if err != nil {
				t.Fatal(err)
			}
			dur2, err := wire.OpenDurable(wire.DurableConfig{
				StatePath: sPath,
				FS:        journal.OSFS{},
				Mode:      wire.DurabilityJournalSync,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dur2.Close()
			rep, err := dur2.Recover(rt2.Core())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Failed) > 0 {
				t.Fatalf("recovery from replicated bytes lost %d connections: %+v", len(rep.Failed), rep.Failed)
			}
			if got := stateKey(rt2.Core()); got != want {
				t.Fatalf("recovered state %s != primary state %s", got, want)
			}
		})
	}
}

func mustGamma(t *testing.T, seed uint64) workload.Arrivals {
	t.Helper()
	a, err := workload.NewGamma(seed, workload.GammaConfig{Rate: 1, CV: 1})
	if err != nil {
		t.Fatal(err)
	}
	return a
}
