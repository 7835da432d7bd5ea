package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atmcac/internal/bitstream"
	"atmcac/internal/traffic"
)

// resum is the from-scratch reference for queue k of a port: Soa the sum of
// the links' Sif, and Sof the sum of the links' higher-priority shares,
// filtered once, in ascending incoming PortID — how editCell computed them
// before it swapped one cell's old values for its new ones.
func resum(port outPort, k int) (soa, higher, sof bitstream.Stream) {
	parts := make([]bitstream.Stream, len(port.links))
	for i, l := range port.links {
		parts[i] = l.cells[k].sif
	}
	soa = bitstream.Sum(parts...)
	for i, l := range port.links {
		parts[i] = l.cells[k].higher
	}
	higher = bitstream.Sum(parts...)
	return soa, higher, higher.Filtered()
}

// TestIncrementalAggregatesMatchResum: random admissions, installs and
// releases on a switch with 18 incoming links, two output ports and three
// priorities. After every step each queue's Soa, raw higher-priority sum
// and Sof equal the re-sum of its links, compared with ==, and a refused
// admission leaves the published state and the index as they were.
func TestIncrementalAggregatesMatchResum(t *testing.T) {
	sw := newTestSwitch(t, map[Priority]float64{1: 400, 2: 800, 3: 1600})
	rng := rand.New(rand.NewSource(47))
	var live []ConnID
	refused := 0
	for step := 0; step < 3000; step++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(live))
			if err := sw.Release(live[i]); err != nil {
				t.Fatalf("step %d: release %q: %v", step, live[i], err)
			}
			live = slices.Delete(live, i, i+1)
		} else {
			pcr := 0.001 + 0.05*rng.Float64()
			req := HopRequest{
				Conn:     ConnID(fmt.Sprintf("c%04d", step)),
				Spec:     traffic.VBR(pcr, pcr*(0.02+0.1*rng.Float64()), float64(1+rng.Intn(16))),
				In:       PortID(rng.Intn(18)),
				Out:      PortID(rng.Intn(2)),
				Priority: Priority(1 + rng.Intn(3)),
				CDV:      float64(64 * rng.Intn(4)),
			}
			before := sw.state.Load()
			var err error
			if step%7 == 0 {
				err = sw.Install(req)
			} else {
				_, err = sw.Admit(req)
			}
			switch {
			case errors.Is(err, ErrRejected):
				refused++
				if sw.state.Load() != before || sw.Has(req.Conn) {
					t.Fatalf("step %d: refused %q left a trace", step, req.Conn)
				}
			case err != nil:
				t.Fatalf("step %d: admit %q: %v", step, req.Conn, err)
			default:
				live = append(live, req.Conn)
			}
		}
		for _, port := range sw.state.Load().ports {
			for k, q := range port.queues {
				soa, higher, sof := resum(port, k)
				where := fmt.Sprintf("step %d out %d prio#%d", step, port.out, k)
				sameStream(t, where+" Soa", q.soa, soa)
				sameStream(t, where+" higher", q.higher, higher)
				sameStream(t, where+" Sof", q.sof, sof)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if len(live) < 100 || refused == 0 {
		t.Fatalf("%d connections live and %d refused at the end; the walk must load the switch and meet refusals", len(live), refused)
	}
}

// TestPropAdmitNeverLowersBounds: adding a connection never lowers any D'.
// Under both CDV policies a ring is loaded by Setup, with teardowns in
// between; across each setup every ComputedBound, at every switch, output
// port and priority, is at least its value before, compared without
// tolerance.
func TestPropAdmitNeverLowersBounds(t *testing.T) {
	for _, policy := range []CDVPolicy{HardCDV{}, SoftCDV{}} {
		t.Run(policy.Name(), func(t *testing.T) {
			n := NewNetwork(policy)
			for i := 0; i < 4; i++ {
				if _, err := n.AddSwitch(SwitchConfig{
					Name:       fmt.Sprintf("sw%d", i),
					QueueCells: map[Priority]float64{1: 1e6, 2: 2e6},
				}); err != nil {
					t.Fatal(err)
				}
			}
			bounds := func() map[string]float64 {
				out := make(map[string]float64)
				for _, name := range n.SwitchNames() {
					sw, _ := n.Switch(name)
					for port := PortID(0); port < 2; port++ {
						for _, p := range sw.Priorities() {
							d, err := sw.ComputedBound(port, p)
							if err != nil {
								t.Fatalf("bound %s/%d/%d: %v", name, port, p, err)
							}
							out[fmt.Sprintf("%s/%d/%d", name, port, p)] = d
						}
					}
				}
				return out
			}
			rng := rand.New(rand.NewSource(15))
			var live []ConnID
			for step := 0; step < 400; step++ {
				if len(live) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(live))
					if err := n.Teardown(live[i]); err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
					continue
				}
				before := bounds()
				req := historyRequest(rng, ConnID(fmt.Sprintf("c%03d", step)))
				if _, err := n.Setup(context.Background(), req); err != nil {
					t.Fatalf("step %d: setup: %v", step, err)
				}
				live = append(live, req.ID)
				for key, d := range bounds() {
					if d < before[key] {
						t.Errorf("step %d: setup of %q lowered D'(%s) from %v to %v", step, req.ID, key, before[key], d)
					}
				}
			}
			queued := 0
			for _, d := range bounds() {
				if d > 0 {
					queued++
				}
			}
			if queued < 8 {
				t.Fatalf("%d queues with a positive bound at the end; the load must queue", queued)
			}
			t.Logf("%d connections, %d queues with a positive bound", len(live), queued)
		})
	}
}
