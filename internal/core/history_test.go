package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"atmcac/internal/bitstream"
	"atmcac/internal/traffic"
)

// historyNetwork is a ring of four two-priority switches with queues large
// enough that the churn below is never refused for capacity.
func historyNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork(HardCDV{})
	for i := 0; i < 4; i++ {
		if _, err := n.AddSwitch(SwitchConfig{
			Name:       fmt.Sprintf("sw%d", i),
			QueueCells: map[Priority]float64{1: 1e6, 2: 2e6},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// historyRequest draws a connection over 1-5 consecutive ring hops. Five
// hops on four switches come back to the first one, through other ports:
// the wrapped-route case where one connection has two entries at a switch.
func historyRequest(rng *rand.Rand, id ConnID) ConnRequest {
	first, hops := rng.Intn(4), 1+rng.Intn(5)
	route := make(Route, hops)
	for h := range route {
		route[h] = Hop{
			Switch: fmt.Sprintf("sw%d", (first+h)%4),
			In:     PortID(4*h + rng.Intn(4)),
			Out:    PortID(h % 2),
		}
	}
	pcr := 0.001 + 0.01*rng.Float64()
	return ConnRequest{
		ID:        id,
		Spec:      traffic.VBR(pcr, pcr*(0.05+0.2*rng.Float64()), float64(1+rng.Intn(8))),
		Priority:  Priority(1 + rng.Intn(2)),
		Route:     route,
		SourceCDV: float64(16 * rng.Intn(4)),
	}
}

// TestHistoryIndependence: a switch's state is a function of the set it
// carries. A network is churned through every mutation there is while
// lock-free readers run against it; what survives is then loaded into a
// fresh network by Install in ID order, and into another by Setup from a
// JSON round trip in the shape the wire state file stores. All three must
// hold the same index entries, the same Sia, Sif, Soa and Sof segments and
// the same bounds, compared with ==.
func TestHistoryIndependence(t *testing.T) {
	churned := historyNetwork(t)
	routes := []Route{
		{{Switch: "sw0", Out: 0}, {Switch: "sw1", Out: 1}, {Switch: "sw2", Out: 0}},
		{{Switch: "sw3", Out: 1}, {Switch: "sw0", Out: 1}},
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range churned.SwitchNames() {
					sw, _ := churned.Switch(name)
					for _, out := range sw.OutPorts() {
						for _, p := range sw.Priorities() {
							if _, err := sw.ComputedBound(out, p); err != nil {
								t.Errorf("ComputedBound(%s, %d, %d): %v", name, out, p, err)
							}
							if _, err := sw.MaxBacklog(out, p); err != nil {
								t.Errorf("MaxBacklog(%s, %d, %d): %v", name, out, p, err)
							}
							if _, _, err := sw.PortEnvelope(out, p); err != nil {
								t.Errorf("PortEnvelope(%s, %d, %d): %v", name, out, p, err)
							}
						}
					}
				}
				if _, err := churned.RouteBound(routes[0], 2); err != nil {
					t.Errorf("RouteBound: %v", err)
				}
				if v, err := churned.Audit(); err != nil || len(v) != 0 {
					t.Errorf("Audit mid-churn: %v, %v", v, err)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(23))
	var live []ConnID
	pick := func() (ConnID, int) {
		i := rng.Intn(len(live))
		return live[i], i
	}
	for step := 0; step < 800; step++ {
		op := rng.Intn(18)
		if len(live) == 0 {
			op = 0
		}
		switch {
		case op < 10:
			req := historyRequest(rng, ConnID(fmt.Sprintf("c%03d", step)))
			if _, err := churned.Setup(context.Background(), req); err != nil {
				t.Fatalf("step %d: setup: %v", step, err)
			}
			live = append(live, req.ID)
		case op < 12:
			req := historyRequest(rng, ConnID(fmt.Sprintf("i%03d", step)))
			if err := churned.Install(req); err != nil {
				t.Fatalf("step %d: install: %v", step, err)
			}
			live = append(live, req.ID)
		case op < 13:
			req := historyRequest(rng, "ghost")
			sw, _ := churned.Switch(req.Route[0].Switch)
			if _, err := sw.Check(HopRequest{
				Conn: req.ID, Spec: req.Spec, In: req.Route[0].In, Out: req.Route[0].Out,
				Priority: req.Priority, CDV: req.SourceCDV,
			}); err != nil {
				t.Fatalf("step %d: check: %v", step, err)
			}
		case op < 17:
			id, i := pick()
			if err := churned.Teardown(id); err != nil {
				t.Fatalf("step %d: teardown: %v", step, err)
			}
			live = slices.Delete(live, i, i+1)
		case step%4 == 0 && step < 500:
			// A failed ring link evicts close to half of what is admitted,
			// so links fail rarely, and early enough for the set to regrow.
			from := rng.Intn(4)
			a, b := fmt.Sprintf("sw%d", from), fmt.Sprintf("sw%d", (from+1)%4)
			evicted, err := churned.FailLink(a, b)
			if err != nil {
				t.Fatalf("step %d: fail-link: %v", step, err)
			}
			for _, req := range evicted {
				live = slices.DeleteFunc(live, func(id ConnID) bool { return id == req.ID })
			}
			if err := churned.RestoreLink(a, b); err != nil {
				t.Fatalf("step %d: restore-link: %v", step, err)
			}
		}
	}
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	survivors := churned.AdmittedRequests()
	if len(survivors) != len(live) || len(survivors) < 50 {
		t.Fatalf("%d survivors, script tracked %d (want at least 50)", len(survivors), len(live))
	}

	sorted := historyNetwork(t)
	for _, req := range survivors {
		if err := sorted.Install(req); err != nil {
			t.Fatalf("sorted install of %q: %v", req.ID, err)
		}
	}

	// The payload of wire.PersistentState; importing wire here would be a cycle.
	type stateFile struct {
		Connections []ConnRequest `json:"connections"`
	}
	data, err := json.Marshal(stateFile{Connections: survivors})
	if err != nil {
		t.Fatal(err)
	}
	var loaded stateFile
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	restored := historyNetwork(t)
	for _, req := range loaded.Connections {
		if _, err := restored.Setup(context.Background(), req); err != nil {
			t.Fatalf("restore of %q: %v", req.ID, err)
		}
	}

	for _, other := range []struct {
		name string
		n    *Network
	}{{"sorted install", sorted}, {"JSON restore", restored}} {
		for _, name := range churned.SwitchNames() {
			a, _ := churned.Switch(name)
			b, _ := other.n.Switch(name)
			sameState(t, other.name+" "+name, a, b)
			for _, out := range a.OutPorts() {
				for _, p := range a.Priorities() {
					da, errA := a.ComputedBound(out, p)
					db, errB := b.ComputedBound(out, p)
					if da != db || errA != nil || errB != nil {
						t.Errorf("%s: %s bound(%d, %d) = %v (%v), churned has %v (%v)",
							other.name, name, out, p, db, errB, da, errA)
					}
				}
			}
		}
		for _, route := range routes {
			for _, p := range []Priority{1, 2} {
				da, errA := churned.RouteBound(route, p)
				db, errB := other.n.RouteBound(route, p)
				if da != db || errA != nil || errB != nil {
					t.Errorf("%s: RouteBound(%v, %d) = %v (%v), churned has %v (%v)",
						other.name, route, p, db, errB, da, errA)
				}
			}
		}
		va, errA := churned.Audit()
		vb, errB := other.n.Audit()
		if errA != nil || errB != nil || !reflect.DeepEqual(va, vb) {
			t.Errorf("%s: audit %v (%v), churned has %v (%v)", other.name, vb, errB, va, errA)
		}
	}
}

func sameStream(t *testing.T, what string, a, b bitstream.Stream) {
	t.Helper()
	if !slices.Equal(a.Segments(), b.Segments()) {
		t.Errorf("%s: segments differ:\n%v\n%v", what, a, b)
	}
}

// sameState compares two quiescent switches: their ConnID indexes entry by
// entry, and every port, link, cell and queue of their published states.
func sameState(t *testing.T, what string, swA, swB *Switch) {
	t.Helper()
	a, b := swA.state.Load(), swB.state.Load()
	if a.conns != b.conns || len(a.ports) != len(b.ports) {
		t.Fatalf("%s: %d connections on %d ports against %d on %d",
			what, a.conns, len(a.ports), b.conns, len(b.ports))
	}
	if len(swA.index) != a.conns || len(swB.index) != b.conns {
		t.Fatalf("%s: indexes hold %d and %d connections, states %d and %d",
			what, len(swA.index), len(swB.index), a.conns, b.conns)
	}
	for id, ha := range swA.index {
		hb, ok := swB.index[id]
		where := what + " index/" + string(id)
		if len(ha) != len(hb) || !ok {
			t.Errorf("%s: %d hop entries against %d", where, len(ha), len(hb))
			continue
		}
		for i := range ha {
			if ha[i].in != hb[i].in || ha[i].out != hb[i].out || ha[i].prio != hb[i].prio {
				t.Errorf("%s: hop %d is %+v against %+v", where, i, ha[i], hb[i])
			}
			sameStream(t, where+" arrival", ha[i].arrival, hb[i].arrival)
		}
	}
	for i, pa := range a.ports {
		pb := b.ports[i]
		if pa.out != pb.out || len(pa.links) != len(pb.links) {
			t.Fatalf("%s: port %d with %d links against port %d with %d",
				what, pa.out, len(pa.links), pb.out, len(pb.links))
		}
		for k := range pa.queues {
			where := fmt.Sprintf("%s out %d prio#%d", what, pa.out, k)
			if pa.queues[k].members != pb.queues[k].members {
				t.Errorf("%s: %d members against %d", where, pa.queues[k].members, pb.queues[k].members)
			}
			sameStream(t, where+" Soa", pa.queues[k].soa, pb.queues[k].soa)
			sameStream(t, where+" higher", pa.queues[k].higher, pb.queues[k].higher)
			sameStream(t, where+" Sof", pa.queues[k].sof, pb.queues[k].sof)
		}
		for j, la := range pa.links {
			lb := pb.links[j]
			if la.in != lb.in {
				t.Fatalf("%s: out %d link %d against %d", what, pa.out, la.in, lb.in)
			}
			for k := range la.cells {
				where := fmt.Sprintf("%s cell(out %d, in %d, prio#%d)", what, pa.out, la.in, k)
				sameStream(t, where+" Sif", la.cells[k].sif, lb.cells[k].sif)
				sameStream(t, where+" higher", la.cells[k].higher, lb.cells[k].higher)
				sameStream(t, where+" Sia", la.cells[k].sia, lb.cells[k].sia)
			}
		}
	}
}
