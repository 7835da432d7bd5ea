package journal

import (
	"errors"
	"fmt"
	"sort"

	"atmcac/internal/core"
)

// ErrApply reports a record that cannot be folded into a target — an
// unknown op, or a mutation the target refused. A warm standby treats it
// as a divergence signal and requests a full resync rather than
// continuing with a half-applied stream; recovery skips the record and
// reports it (State.Unfolded).
var ErrApply = errors.New("journal: record does not apply")

var errUnknownOp = errors.New("unknown op")

// Target is what a record folds into: an admitted set and its failed
// links, plus a note of open shard prepares. Every method must be
// idempotent — Put inserts only an absent ID, removing or restoring what
// is absent and failing a failed link are no-ops — so at-least-once
// delivery and a replay over a state that already holds a record's
// effect are both harmless.
type Target interface {
	Put(req core.ConnRequest) error
	Remove(id core.ConnID) error
	FailLink(l core.Link) error
	RestoreLink(l core.Link) error
	Prepare(txn string)
	Resolve(txn string)
}

// Fold applies one record to t. It is the only statement of what a
// record means, shared by recovery (Replay), a primary's durable view and
// a warm standby's live network.
//
// Shard 2PC records obey presumed abort: a prepare is inert (the hold is
// capacity in flight, noted only so recovery can report it reaped), a
// commit carries its request and admits it even when compaction folded
// the prepare away, and an abort removes both the hold and any
// connection a commit for the same ID produced.
//
// A Put for a present ID keeps the present request: every sequence a
// primary writes only re-delivers the same request under the same ID.
func Fold(t Target, rec *Record) error {
	var err error
	switch rec.Op {
	case OpSetup:
		if rec.Request != nil {
			err = t.Put(*rec.Request)
		}
	case OpTeardown:
		err = t.Remove(rec.ID)
	case OpFailLink:
		// The link goes down first: on a live network that evicts every
		// traversing connection, which the recorded evictions then sweep
		// in case the local admitted set lagged.
		err = t.FailLink(core.Link{From: rec.From, To: rec.To})
		for i := 0; err == nil && i < len(rec.Evicted); i++ {
			err = t.Remove(rec.Evicted[i])
		}
		for i := 0; err == nil && i < len(rec.Readmitted); i++ {
			err = t.Put(rec.Readmitted[i])
		}
	case OpRestoreLink:
		err = t.RestoreLink(core.Link{From: rec.From, To: rec.To})
	case OpShardPrepare:
		if rec.Txn != "" {
			t.Prepare(rec.Txn)
		}
	case OpShardCommit:
		t.Resolve(rec.Txn)
		if rec.Request != nil {
			err = t.Put(*rec.Request)
		}
	case OpShardAbort:
		t.Resolve(rec.Txn)
		err = t.Remove(rec.ID)
	default:
		err = errUnknownOp
	}
	if err != nil {
		return fmt.Errorf("%w: %s (seq %d): %v", ErrApply, rec.Op, rec.Seq, err)
	}
	return nil
}

// State is a replayed admission state: the connection set in admission
// order and the links in the order they failed. ReapedPrepares lists
// shard transactions whose prepare was replayed without a matching
// commit or abort — the crash landed between prepare-append and the
// coordinator's decision, so recovery treats the hold as expired; it
// never becomes an admitted connection. Unfolded tallies the records
// Fold refused, which replay skipped.
type State struct {
	Requests       []core.ConnRequest
	FailedLinks    []core.Link
	ReapedPrepares []string
	Unfolded       []Unfolded
}

// Unfolded counts the skipped records of one op.
type Unfolded struct {
	Op       Op
	FirstSeq uint64
	Count    int
}

// Replay folds the records past the lastSeq watermark into a fresh View
// seeded with base — recovery's fold, and cacctl's offline view of a
// state file — and returns the result both read out and as the View
// itself, which recovery keeps as its durable view. It costs O(1) per
// record plus one sort of the result. A record Fold refuses is skipped
// and tallied in the result's Unfolded.
func Replay(base State, lastSeq uint64, recs []Record) (State, *View) {
	r := replay{View: NewView(base)}
	var unfolded []Unfolded
	for i := range recs {
		rec := &recs[i]
		if rec.Seq <= lastSeq || Fold(&r, rec) == nil {
			continue
		}
		j := 0
		for j < len(unfolded) && unfolded[j].Op != rec.Op {
			j++
		}
		if j == len(unfolded) {
			unfolded = append(unfolded, Unfolded{Op: rec.Op, FirstSeq: rec.Seq})
		}
		unfolded[j].Count++
	}
	st := r.State()
	st.ReapedPrepares = r.open.list(nil)
	st.Unfolded = unfolded
	return st, r.View
}

// replay is recovery's fold target: a View that also keeps the open
// prepares. Live targets keep none, so no per-transaction state can
// outlive a hold there.
type replay struct {
	*View
	open ordered[string, string]
}

func (r *replay) Prepare(txn string) { r.open.add(txn, txn) }
func (r *replay) Resolve(txn string) { r.open.remove(txn) }

// View is a passive fold target: the admitted connections and failed
// links a journal describes. Recovery folds into a fresh one (Replay); a
// primary keeps one as its durable view — the last snapshot plus every
// durable record — which compaction writes out instead of the live
// network. Every method is O(1); the order is restored when the view is
// read.
type View struct {
	conns ordered[core.ConnID, core.ConnRequest]
	links ordered[core.Link, core.Link]
}

// NewView returns a view holding st's connections and failed links.
func NewView(st State) *View {
	v := &View{}
	v.conns.m = make(map[core.ConnID]slot[core.ConnRequest], len(st.Requests))
	for _, req := range st.Requests {
		v.conns.add(req.ID, req)
	}
	for _, l := range st.FailedLinks {
		v.links.add(l, l)
	}
	return v
}

func (v *View) Put(req core.ConnRequest) error { v.conns.add(req.ID, req); return nil }
func (v *View) Remove(id core.ConnID) error    { v.conns.remove(id); return nil }
func (v *View) FailLink(l core.Link) error     { v.links.add(l, l); return nil }
func (v *View) RestoreLink(l core.Link) error  { v.links.remove(l); return nil }
func (v *View) Prepare(string)                 {}
func (v *View) Resolve(string)                 {}

// State returns the connections in admission order and the failed links
// in failure order.
func (v *View) State() State {
	return State{Requests: v.conns.list(nil), FailedLinks: v.links.list(nil)}
}

// Snapshot returns the view in a snapshot's canonical order: connections
// by ID, failed links by their ends.
func (v *View) Snapshot() ([]core.ConnRequest, []core.Link) {
	conns := v.conns.list(func(a, b core.ConnRequest) bool { return a.ID < b.ID })
	links := v.links.list(func(a, b core.Link) bool {
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return conns, links
}

// ordered is a map that remembers the order its keys arrived in: add
// (insert-if-absent) and remove are O(1), and list sorts once.
type ordered[K comparable, V any] struct {
	m    map[K]slot[V]
	next uint64
}

type slot[V any] struct {
	v   V
	ord uint64
}

func (o *ordered[K, V]) add(k K, v V) {
	if _, ok := o.m[k]; ok {
		return
	}
	if o.m == nil {
		o.m = make(map[K]slot[V])
	}
	o.m[k] = slot[V]{v: v, ord: o.next}
	o.next++
}

func (o *ordered[K, V]) remove(k K) { delete(o.m, k) }

// list returns the values sorted by less, or in arrival order when less
// is nil.
func (o *ordered[K, V]) list(less func(a, b V) bool) []V {
	slots := make([]slot[V], 0, len(o.m))
	for _, s := range o.m {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		if less != nil {
			return less(slots[i].v, slots[j].v)
		}
		return slots[i].ord < slots[j].ord
	})
	out := make([]V, len(slots))
	for i, s := range slots {
		out[i] = s.v
	}
	return out
}

// NetworkTarget adapts a live network as a fold target — a warm
// standby's, so takeover needs no replay pause. Put installs without the
// CAC check: the record exists because the primary's CAC already
// admitted it, and re-checking on the standby could only diverge.
func NetworkTarget(n *core.Network) Target { return network{n} }

type network struct{ n *core.Network }

func (t network) Put(req core.ConnRequest) error {
	if _, ok := t.n.AdmittedRequest(req.ID); ok {
		return nil
	}
	return t.n.Install(req)
}

func (t network) Remove(id core.ConnID) error {
	if err := t.n.Teardown(id); err != nil && !errors.Is(err, core.ErrUnknownConn) {
		return err
	}
	return nil
}

func (t network) FailLink(l core.Link) error {
	_, err := t.n.FailLink(l.From, l.To)
	return err
}

func (t network) RestoreLink(l core.Link) error {
	if !t.n.LinkDown(l.From, l.To) {
		return nil
	}
	return t.n.RestoreLink(l.From, l.To)
}

func (network) Prepare(string) {}
func (network) Resolve(string) {}
