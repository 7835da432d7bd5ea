package journal

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"atmcac/internal/core"
	"atmcac/internal/traffic"
)

// foldCase is one record sequence and what every fold target must make
// of it: recovery's Replay, a View and a live network.
type foldCase struct {
	name    string
	base    State
	lastSeq uint64
	recs    []Record
	ids     []core.ConnID // admitted connections, in admission order
	links   []core.Link   // failed links, in failure order
	reaped  []string      // open prepares recovery reports reaped
}

// foldNet is a live network with the switches every fold test routes
// over.
func foldNet(t testing.TB) *core.Network {
	n := core.NewNetwork(core.HardCDV{})
	for _, name := range []string{"ring00", "ring01", "ring02", "ring03", "sw0"} {
		if _, err := n.AddSwitch(core.SwitchConfig{
			Name: name, QueueCells: map[core.Priority]float64{1: 32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// runFold folds tc into every target, delivering each record twice — a
// re-delivery must change nothing — and checks the outcome.
func runFold(t *testing.T, tc foldCase) {
	var twice []Record
	for _, rec := range tc.recs {
		twice = append(twice, rec, rec)
	}
	check := func(t *testing.T, st State, sorted bool) {
		t.Helper()
		ids, links := tc.ids, tc.links
		if sorted {
			ids = append([]core.ConnID(nil), ids...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			links = append([]core.Link(nil), links...)
			sort.Slice(links, func(i, j int) bool { return links[i].String() < links[j].String() })
		}
		got := make([]core.ConnID, 0, len(st.Requests))
		for _, req := range st.Requests {
			got = append(got, req.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(append([]core.ConnID{}, ids...)) {
			t.Errorf("admitted = %v, want %v", got, ids)
		}
		if fmt.Sprint(st.FailedLinks) != fmt.Sprint(append([]core.Link{}, links...)) {
			t.Errorf("failed links = %v, want %v", st.FailedLinks, links)
		}
	}
	t.Run("replay", func(t *testing.T) {
		st, _ := Replay(tc.base, tc.lastSeq, twice)
		check(t, st, false)
		if fmt.Sprint(st.ReapedPrepares) != fmt.Sprint(append([]string{}, tc.reaped...)) {
			t.Errorf("reaped prepares = %v, want %v", st.ReapedPrepares, tc.reaped)
		}
	})
	t.Run("view", func(t *testing.T) {
		v := NewView(tc.base)
		foldPast(t, v, tc.lastSeq, twice)
		check(t, v.State(), false)
	})
	t.Run("network", func(t *testing.T) {
		n := foldNet(t)
		target := NetworkTarget(n)
		for _, l := range tc.base.FailedLinks {
			if err := target.FailLink(l); err != nil {
				t.Fatal(err)
			}
		}
		for _, req := range tc.base.Requests {
			if err := target.Put(req); err != nil {
				t.Fatal(err)
			}
		}
		foldPast(t, target, tc.lastSeq, twice)
		check(t, State{Requests: n.AdmittedRequests(), FailedLinks: n.FailedLinks()}, true)
	})
}

// foldPast folds the records past the watermark, as a standby's journal
// deduplication and recovery's watermark both do.
func foldPast(t *testing.T, target Target, lastSeq uint64, recs []Record) {
	t.Helper()
	for i := range recs {
		if recs[i].Seq <= lastSeq {
			continue
		}
		if err := Fold(target, &recs[i]); err != nil {
			t.Fatalf("fold seq %d: %v", recs[i].Seq, err)
		}
	}
}

// oneHop is testRequest on a route with no inter-switch link, which a
// link failure never evicts.
func oneHop(id string) core.ConnRequest {
	req := testRequest(id)
	req.Route = core.Route{{Switch: "ring00", In: 1, Out: 0}}
	return req
}

func TestReplayWatermarkAndIdempotence(t *testing.T) {
	a, b, c := oneHop("a"), testRequest("b"), oneHop("c")
	link := core.Link{From: "ring00", To: "ring01"}
	for _, tc := range []foldCase{
		{
			name:    "watermark and idempotence",
			base:    State{Requests: []core.ConnRequest{a}},
			lastSeq: 1,
			recs: []Record{
				{Seq: 1, Op: OpSetup, Request: &a}, // at watermark: skipped
				{Seq: 2, Op: OpSetup, Request: &b},
				{Seq: 3, Op: OpSetup, Request: &c},
				{Seq: 4, Op: OpFailLink, From: "ring00", To: "ring01",
					Evicted: []core.ConnID{"b"}, Readmitted: []core.ConnRequest{c}},
				{Seq: 5, Op: OpTeardown, ID: "missing"}, // removing the unknown is a no-op
			},
			ids:   []core.ConnID{"a", "c"},
			links: []core.Link{link},
		},
		{
			name: "an evicted connection is readmitted on its new route",
			base: State{Requests: []core.ConnRequest{a, b}},
			recs: []Record{{Seq: 1, Op: OpFailLink, From: "ring00", To: "ring01",
				Evicted: []core.ConnID{"b"}, Readmitted: []core.ConnRequest{oneHop("b")}}},
			ids:   []core.ConnID{"a", "b"},
			links: []core.Link{link},
		},
		{
			name:    "restore clears the link",
			base:    State{Requests: []core.ConnRequest{a, c}, FailedLinks: []core.Link{link}},
			lastSeq: 1,
			recs:    []Record{{Seq: 6, Op: OpRestoreLink, From: "ring00", To: "ring01"}},
			ids:     []core.ConnID{"a", "c"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { runFold(t, tc) })
	}
}

// TestApplyToNetworkIdempotent pins the standby-replay contract on every
// target: each op kind folds cleanly, re-folding the same record is a
// no-op, and an unknown op is a typed ErrApply.
func TestApplyToNetworkIdempotent(t *testing.T) {
	req := testRequest("a1")
	runFold(t, foldCase{
		recs: []Record{
			{Seq: 1, Op: OpSetup, Request: &req},
			{Seq: 2, Op: OpFailLink, From: "ring00", To: "ring01", Evicted: []core.ConnID{"a1"}},
			{Seq: 3, Op: OpRestoreLink, From: "ring00", To: "ring01"},
		},
	})
	mystery := Record{Seq: 9, Op: "mystery"}
	for name, target := range map[string]Target{
		"view":    NewView(State{}),
		"network": NetworkTarget(foldNet(t)),
	} {
		if err := Fold(target, &mystery); !errors.Is(err, ErrApply) {
			t.Fatalf("%s: unknown op = %v, want ErrApply", name, err)
		}
	}
	st, _ := Replay(State{}, 0, []Record{mystery, {Seq: 10, Op: "mystery"}})
	if want := []Unfolded{{Op: "mystery", FirstSeq: 9, Count: 2}}; !reflect.DeepEqual(st.Unfolded, want) {
		t.Fatalf("replay unfolded = %+v, want %+v", st.Unfolded, want)
	}
}

// TestPrepareReplayTable drives every target through each
// prepare/commit/abort crash boundary. The invariant under test is
// presumed abort: a prepare record with no decision after it must replay
// to an expired (reaped) reservation — never an admitted connection —
// while a commit admits even when compaction folded its prepare below
// the watermark.
func TestPrepareReplayTable(t *testing.T) {
	for _, tc := range []foldCase{
		{
			name: "crash between prepare-append and commit-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
			},
			reaped: []string{"t1"},
		},
		{
			name: "crash immediately after commit-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			ids: []core.ConnID{"c1"},
		},
		{
			name: "crash immediately after abort-append",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardAbort, Txn: "t1", ID: "c1"},
			},
		},
		{
			name:    "commit alone (compaction folded the prepare below the watermark)",
			lastSeq: 1,
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			ids: []core.ConnID{"c1"},
		},
		{
			name: "commit later unwound by abort",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
				{Seq: 3, Op: OpShardAbort, Txn: "t1", ID: "c1"},
			},
		},
		{
			name: "interleaved transactions: only the decided one admits",
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
				{Seq: 2, Op: OpShardPrepare, Txn: "t2", Request: prepReq("c2"), TTLMillis: 50},
				{Seq: 3, Op: OpShardCommit, Txn: "t1", Request: prepReq("c1")},
			},
			ids:    []core.ConnID{"c1"},
			reaped: []string{"t2"},
		},
		{
			name: "prepare below the watermark stays inert",
			// The watermark covers the prepare: compaction never folds an
			// undecided hold into the snapshot, so replay must not invent
			// either a connection or a reap for it.
			lastSeq: 1,
			recs: []Record{
				{Seq: 1, Op: OpShardPrepare, Txn: "t1", Request: prepReq("c1"), TTLMillis: 50},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { runFold(t, tc) })
	}
}

// TestViewFoldAllocs pins the cost of the fold every acked op pays on
// the commit path: alternating setup and teardown of one ID in a view
// holding 4,096 connections allocates nothing.
func TestViewFoldAllocs(t *testing.T) {
	base := State{Requests: make([]core.ConnRequest, 4096)}
	for i := range base.Requests {
		base.Requests[i] = testRequest(fmt.Sprintf("r%04d", i))
	}
	v := NewView(base)
	req := testRequest("churn")
	setup := Record{Seq: 1, Op: OpSetup, Request: &req}
	teardown := Record{Seq: 2, Op: OpTeardown, ID: req.ID}
	var target Target = v
	if allocs := testing.AllocsPerRun(1000, func() {
		_ = Fold(target, &setup)
		_ = Fold(target, &teardown)
	}); allocs != 0 {
		t.Fatalf("view fold allocates %.1f per setup/teardown pair, want 0", allocs)
	}
}

// BenchmarkReplay measures recovery's fold: 1,024 teardowns of the
// oldest residents replayed over a base of residents.
func BenchmarkReplay(b *testing.B) {
	for _, residents := range []int{4 << 10, 16 << 10, 64 << 10} {
		base := State{Requests: make([]core.ConnRequest, residents)}
		for i := range base.Requests {
			base.Requests[i] = testRequest(fmt.Sprintf("r%06d", i))
		}
		recs := make([]Record, 1024)
		for i := range recs {
			recs[i] = Record{Seq: uint64(i + 1), Op: OpTeardown, ID: base.Requests[i].ID}
		}
		b.Run(fmt.Sprintf("residents=%d", residents), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if st, _ := Replay(base, 0, recs); len(st.Requests) != residents-len(recs) {
					b.Fatalf("replayed %d connections", len(st.Requests))
				}
			}
		})
	}
}

// The fixed topology FuzzFoldAgrees routes over: a four-node ring with a
// one-hop route and one reverse link.
var (
	fuzzIDs    = []core.ConnID{"c0", "c1", "c2", "c3", "c4", "c5"}
	fuzzTxns   = []string{"t0", "t1", "t2", "t3"}
	fuzzRoutes = [][]string{
		{"ring00", "ring01"}, {"ring01", "ring02"}, {"ring02", "ring03"},
		{"ring00", "ring01", "ring02"}, {"ring03", "ring00"}, {"ring02"}, {"ring01", "ring00"},
	}
	fuzzLinks = []core.Link{
		{From: "ring00", To: "ring01"}, {From: "ring01", To: "ring02"}, {From: "ring02", To: "ring03"},
		{From: "ring03", To: "ring00"}, {From: "ring01", To: "ring00"},
	}
)

func fuzzRequest(id core.ConnID, route int) core.ConnRequest {
	req := core.ConnRequest{ID: id, Spec: traffic.CBR(0.01), Priority: 1}
	for _, sw := range fuzzRoutes[route%len(fuzzRoutes)] {
		req.Route = append(req.Route, core.Hop{Switch: sw, In: 1, Out: 0})
	}
	return req
}

func traverses(route core.Route, l core.Link) bool {
	for i := 0; i+1 < len(route); i++ {
		if route[i].Switch == l.From && route[i+1].Switch == l.To {
			return true
		}
	}
	return false
}

// FuzzFoldAgrees checks that a View and a live network fold any record
// sequence a primary can write to the same admitted set and failed
// links, and that recovery from a snapshot taken mid-sequence agrees
// too. The input drives a generator over a fixed topology: setups,
// teardowns, link failures with evictions and re-admissions, restores,
// prepares, commits, aborts, duplicate setups and re-deliveries.
func FuzzFoldAgrees(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 3, 0, 2, 0, 0, 1, 0, 0, 7, 3, 0, 0})
	f.Add([]byte{5, 4, 1, 0, 4, 1, 5, 1, 1, 0, 6, 1, 1, 0, 2, 2, 2, 0})
	f.Add([]byte{2, 0, 3, 0, 0, 1, 0, 0, 4, 0, 2, 0, 255, 0, 3, 0, 0, 2, 1, 255, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := foldNet(t)
		net, view := NetworkTarget(n), NewView(State{})
		snapAt := int(data[0])
		var (
			recs []Record
			base State
			mark uint64
		)
		down := func(route core.Route) bool {
			for _, l := range n.FailedLinks() {
				if traverses(route, l) {
					return true
				}
			}
			return false
		}
		arg := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		for i := 1; i < len(data); i += 3 {
			a, b := arg(i+1), arg(i+2)
			id := fuzzIDs[a%len(fuzzIDs)]
			var rec Record
			switch data[i] % 8 {
			case 0: // setup; a present ID makes it a duplicate
				req := fuzzRequest(id, b)
				if down(req.Route) {
					continue
				}
				rec = Record{Op: OpSetup, Request: &req}
			case 1:
				rec = Record{Op: OpTeardown, ID: id}
			case 2: // fail-link: evict what traverses it, re-admit some elsewhere
				l := fuzzLinks[a%len(fuzzLinks)]
				rec = Record{Op: OpFailLink, From: l.From, To: l.To}
				if n.LinkDown(l.From, l.To) {
					break
				}
				for k, req := range n.AdmittedRequests() {
					if !traverses(req.Route, l) {
						continue
					}
					rec.Evicted = append(rec.Evicted, req.ID)
					if b>>(k%8)&1 == 0 {
						continue
					}
					for r := range fuzzRoutes {
						alt := fuzzRequest(req.ID, b+r)
						if !traverses(alt.Route, l) && !down(alt.Route) {
							rec.Readmitted = append(rec.Readmitted, alt)
							break
						}
					}
				}
			case 3:
				l := fuzzLinks[a%len(fuzzLinks)]
				rec = Record{Op: OpRestoreLink, From: l.From, To: l.To}
			case 4:
				req := fuzzRequest(id, b)
				rec = Record{Op: OpShardPrepare, Txn: fuzzTxns[b%len(fuzzTxns)], Request: &req, TTLMillis: 50}
			case 5: // commit; like a setup, a present ID makes it a duplicate
				req := fuzzRequest(id, b)
				if down(req.Route) {
					continue
				}
				rec = Record{Op: OpShardCommit, Txn: fuzzTxns[b%len(fuzzTxns)], Request: &req}
			case 6:
				rec = Record{Op: OpShardAbort, Txn: fuzzTxns[b%len(fuzzTxns)], ID: id}
			case 7: // re-delivery of the previous record
				if len(recs) == 0 {
					continue
				}
				rec = recs[len(recs)-1]
			}
			if data[i]%8 != 7 {
				rec.Seq = uint64(len(recs) + 1)
			}
			recs = append(recs, rec)
			if err := Fold(view, &rec); err != nil {
				t.Fatalf("view refused seq %d: %v", rec.Seq, err)
			}
			if err := Fold(net, &rec); err != nil {
				if !errors.Is(err, ErrApply) {
					t.Fatalf("network fold error not ErrApply: %v", err)
				}
				return // a standby resyncs here
			}
			if len(recs) == snapAt {
				base.Requests, base.FailedLinks = view.Snapshot()
				mark = rec.Seq
			}
		}
		conns, links := view.Snapshot()
		if want := n.AdmittedRequests(); !reflect.DeepEqual(conns, want) {
			t.Fatalf("view admitted %v, network %v", ids(conns), ids(want))
		}
		if want := n.FailedLinks(); !reflect.DeepEqual(links, want) {
			t.Fatalf("view failed links %v, network %v", links, want)
		}
		_, replayed := Replay(base, mark, recs)
		recConns, recLinks := replayed.Snapshot()
		if !reflect.DeepEqual(recConns, conns) || !reflect.DeepEqual(recLinks, links) {
			t.Fatalf("recovery from the snapshot at seq %d: %v down %v, view %v down %v",
				mark, ids(recConns), recLinks, ids(conns), links)
		}
	})
}

// ids renders connections as ID@route for a failure message.
func ids(reqs []core.ConnRequest) string {
	out := make([]string, len(reqs))
	for i, req := range reqs {
		hops := make([]string, len(req.Route))
		for j, hop := range req.Route {
			hops[j] = hop.Switch
		}
		out[i] = string(req.ID) + "@" + strings.Join(hops, ">")
	}
	return strings.Join(out, ",")
}
