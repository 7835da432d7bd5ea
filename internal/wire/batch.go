// First-class batch operations: batch-setup and batch-teardown admit or
// release many connections in one request, taking the operation locks
// once and — in journal-sync mode — amortizing a single journal fsync
// across the whole batch instead of paying one per item.
package wire

import (
	"context"
	"errors"
	"fmt"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
)

// Batch protocol operations.
const (
	OpBatchSetup    = "batch-setup"
	OpBatchTeardown = "batch-teardown"
)

// MaxBatchOps caps the items in one batch request; larger batches are a
// protocol error. The cap bounds how long the batch holds the exclusive
// operation lock.
const MaxBatchOps = 128

// BatchResult is the per-item outcome of a batch operation. Items fail
// independently: a CAC rejection or unknown connection in one item never
// fails its siblings, so the fields mirror the single-op Response.
type BatchResult struct {
	ID       core.ConnID `json:"id"`
	OK       bool        `json:"ok"`
	Error    string      `json:"error,omitempty"`
	Rejected bool        `json:"rejected,omitempty"`
	Code     string      `json:"code,omitempty"`
	// Admission reports a successful batch-setup item.
	Admission *Admission `json:"admission,omitempty"`
	// Warning flags a non-fatal condition on a successful item.
	Warning string `json:"warning,omitempty"`
}

// batchItem is what one batch item did: its result and, when it mutated
// the network, its journal record, the record's inverse, and the rollback
// that un-acks it should persist refuse the record.
type batchItem struct {
	res         BatchResult
	rec, invert *journal.Record
	undo        func(perr error) (msg, code string)
}

// runBatch runs a batch's n items with run, then makes the records of the
// items that mutated durable with one persist pass — one unit, so one
// group commit. Items whose record persist refused are rolled back and
// refused one by one; the rest keep their ack. It holds opMu exclusively:
// like fail-link, the batch's record set must not interleave with other
// mutations, and a single exclusive hold also sidesteps ordering the
// per-ID stripe locks of an arbitrary ID set.
func (s *Server) runBatch(op string, n int, run func() []batchItem) Response {
	if n > MaxBatchOps {
		return Response{Error: fmt.Sprintf("batch of %d exceeds %d items", n, MaxBatchOps), Code: CodeProtocol}
	}
	var start time.Time
	if s.tracer != nil {
		start = time.Now()
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	items := run()
	results := make([]BatchResult, n)
	var mutated []int // the items whose records persist carries, in order
	var recs, inverts []*journal.Record
	for i := range items {
		results[i] = items[i].res
		if items[i].rec != nil {
			mutated = append(mutated, i)
			recs = append(recs, items[i].rec)
			inverts = append(inverts, items[i].invert)
		}
	}
	var warning string
	if len(recs) > 0 {
		var errs []error
		errs, warning = s.persist(recs, inverts)
		for k, perr := range errs {
			if perr == nil {
				continue
			}
			i := mutated[k]
			msg, code := items[i].undo(perr)
			results[i] = BatchResult{ID: results[i].ID, Error: msg, Code: code}
		}
	}
	if tr := s.tracer; tr != nil {
		tr.Trace(obs.Event{
			Kind: obs.KindBatch, Op: op, Records: n,
			Outcome: obs.OutcomeOK, Duration: time.Since(start),
		})
	}
	return Response{OK: true, Warning: warning, Results: results}
}

// handleBatchSetup admits the items as one set (core.Network.SetupSet),
// then makes the admitted subset durable with one persistence pass (see
// runBatch).
func (s *Server) handleBatchSetup(ctx context.Context, req Request) Response {
	if len(req.Requests) == 0 {
		return Response{Error: "batch-setup requires a requests list", Code: CodeProtocol}
	}
	return s.runBatch(OpBatchSetup, len(req.Requests), func() []batchItem {
		adms, errs := s.network.SetupSet(ctx, req.Requests)
		items := make([]batchItem, len(req.Requests))
		for i := range items {
			r := &req.Requests[i]
			if err := errs[i]; err != nil {
				items[i] = batchItem{res: BatchResult{
					ID: r.ID, Error: err.Error(), Rejected: errors.Is(err, core.ErrRejected), Code: core.ErrorCode(err),
				}}
				continue
			}
			rec, invert := setupRecords(r)
			items[i] = batchItem{
				res: BatchResult{ID: r.ID, OK: true, Admission: toWireAdmission(adms[i])},
				rec: rec, invert: invert,
				undo: func(perr error) (string, string) { return s.rollbackSetup(r.ID, perr) },
			}
		}
		return items
	})
}

// handleBatchTeardown releases every named connection, then persists the
// batch with one pass (see runBatch).
func (s *Server) handleBatchTeardown(req Request) Response {
	if len(req.IDs) == 0 {
		return Response{Error: "batch-teardown requires an ids list", Code: CodeProtocol}
	}
	return s.runBatch(OpBatchTeardown, len(req.IDs), func() []batchItem {
		items := make([]batchItem, len(req.IDs))
		for i, id := range req.IDs {
			undo, known := s.network.AdmittedRequest(id)
			if err := s.network.Teardown(id); err != nil {
				items[i] = batchItem{res: BatchResult{ID: id, Error: err.Error(), Code: core.ErrorCode(err)}}
				continue
			}
			var u *core.ConnRequest
			if known {
				u = &undo
			}
			rec, invert := teardownRecords(id, u)
			items[i] = batchItem{
				res: BatchResult{ID: id, OK: true}, rec: rec, invert: invert,
				undo: func(perr error) (string, string) { return s.rollbackTeardown(id, u, perr) },
			}
		}
		return items
	})
}
