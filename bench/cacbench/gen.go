package main

import (
	"fmt"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/traffic"
	wl "atmcac/internal/workload"
)

// Fleet shape shared by every workload: the -terminals, -queue and
// -low-queue flags the daemons are started with, and the one traffic
// descriptor every generated connection carries.
const (
	terminalsPerNode = 16
	queueCells       = 4096
	lowQueueCells    = 8192
)

var connSpec = traffic.VBR(0.0004, 0.00001, 4)

// The churn generator keeps between minLive and maxLive of its own
// connections admitted. A teardown only ever names a connection whose
// setup sits at least minLive operations earlier in the stream, far more
// than the 16 operations the closed loop keeps in flight, so a teardown
// practically never has to wait for its setup's answer.
const (
	minLive = 64
	maxLive = 128
)

// refusedDelayBound is the end-to-end bound of the setups that must be
// refused: below one hop's guarantee, so core rejects with CodeDelayBound
// before any hop check, whatever else is admitted at that instant.
const refusedDelayBound = 1

type opKind uint8

const (
	opSetup opKind = iota
	opTeardown
	opRefused
	opBound
	opInspect
	opList
	numKinds
)

var kindNames = [numKinds]string{"setup", "teardown", "refused", "bound", "inspect", "list"}

func (k opKind) String() string { return kindNames[k] }

func isRead(k opKind) bool { return k == opBound || k == opInspect || k == opList }

// op is one generated request. Only the fields of its kind are set.
type op struct {
	seq   int
	kind  opKind
	req   core.ConnRequest // setup, refused
	id    core.ConnID      // teardown
	route core.Route       // bound
	prio  core.Priority    // bound
	sw    string           // inspect
}

// share is one operation kind's weight in a workload's mix.
type share struct {
	kind   opKind
	weight float64
}

// workloadDef is one named traffic mix against one fleet shape.
type workloadDef struct {
	name      string
	sharded   bool // coordinator + 2 shard daemons instead of one cacd
	ringNodes int
	residents int // connections admitted during set-up and never torn down
	mix       []share
	pacedRate float64 // open-loop offered rate, ops/s
}

func (w *workloadDef) topology() (*rtnet.Network, error) {
	return rtnet.New(rtnet.Config{
		RingNodes:        w.ringNodes,
		TerminalsPerNode: terminalsPerNode,
		QueueCells:       map[core.Priority]float64{1: queueCells, 2: lowQueueCells},
		Policy:           core.HardCDV{},
	})
}

// guaranteedSum is the fixed end-to-end bound of a route at priority p:
// the FIFO sizes of its hops.
func guaranteedSum(route core.Route, p core.Priority) float64 {
	per := float64(queueCells)
	if p == 2 {
		per = lowQueueCells
	}
	return per * float64(len(route))
}

// generator produces a workload's operation stream. The stream is a pure
// function of the seed: it never looks at the clock or at an answer, so
// the same seed replays byte-identically in-process.
type generator struct {
	w         *workloadDef
	topo      *rtnet.Network
	rng       *wl.RNG
	residents []core.ConnRequest
	total     float64 // sum of mix weights

	// live is the FIFO of this stream's admitted churn connections and
	// born the sequence number of each one's setup.
	live []core.ConnID
	born []int
	seq  int
}

func newGenerator(w *workloadDef, seed uint64) (*generator, error) {
	topo, err := w.topology()
	if err != nil {
		return nil, err
	}
	g := &generator{w: w, topo: topo, rng: wl.NewRNG(seed).Split("ops")}
	for _, s := range w.mix {
		g.total += s.weight
	}
	// Residents: every ring out-port, both priorities, 1-5 hop routes.
	rr := wl.NewRNG(seed).Split("residents")
	for i := 0; i < w.residents; i++ {
		route, err := topo.SegmentRoute(rr.Intn(w.ringNodes), rr.Intn(terminalsPerNode), 1+rr.Intn(5))
		if err != nil {
			return nil, err
		}
		g.residents = append(g.residents, core.ConnRequest{
			ID:       core.ConnID(fmt.Sprintf("r-%05d", i)),
			Spec:     connSpec,
			Priority: core.Priority(1 + rr.Intn(2)),
			Route:    route,
		})
	}
	return g, nil
}

// churnRoute draws the 3-hop route every generated setup uses.
func (g *generator) churnRoute() core.Route {
	route, err := g.topo.SegmentRoute(g.rng.Intn(g.w.ringNodes), g.rng.Intn(terminalsPerNode), 3)
	if err != nil {
		panic(err) // arguments are in range by construction
	}
	return route
}

func (g *generator) next() op {
	o := op{seq: g.seq}
	g.seq++
	u := g.rng.Float64() * g.total
	for _, s := range g.w.mix {
		o.kind = s.kind
		if u < s.weight {
			break
		}
		u -= s.weight
	}
	// Keep the churn population inside [minLive, maxLive] and every
	// teardown target at least minLive operations old.
	if o.kind == opTeardown && (len(g.live) == 0 || o.seq-g.born[0] < minLive) {
		o.kind = opSetup
	}
	if o.kind == opSetup && len(g.live) >= maxLive {
		o.kind = opTeardown
	}
	switch o.kind {
	case opSetup, opRefused:
		o.req = core.ConnRequest{
			ID:       core.ConnID(fmt.Sprintf("c-%07d", o.seq)),
			Spec:     connSpec,
			Priority: core.Priority(1 + g.rng.Intn(2)),
			Route:    g.churnRoute(),
		}
		if o.kind == opRefused {
			o.req.DelayBound = refusedDelayBound
		} else {
			g.live = append(g.live, o.req.ID)
			g.born = append(g.born, o.seq)
		}
	case opTeardown:
		o.id = g.live[0]
		g.live, g.born = g.live[1:], g.born[1:]
	case opBound:
		if len(g.residents) > 0 {
			r := g.residents[g.rng.Intn(len(g.residents))]
			o.route, o.prio = r.Route, r.Priority
		} else {
			o.route, o.prio = g.churnRoute(), 1
		}
	case opInspect:
		o.sw = rtnet.SwitchName(g.rng.Intn(g.w.ringNodes))
	}
	return o
}
