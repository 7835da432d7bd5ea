package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by cacbench around the
// layer's public functions. Spans of one replayed operation share op_id;
// parent is the index (line number, from 0) of the span that caused this
// one, or -1 for a root.
type span struct {
	OpID   int    `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps spans in memory until the run ends. It is used from one
// goroutine at a time except where a caller says otherwise and locks.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (l *spanLog) begin(opID int, layer, name string, parent int) int {
	l.spans = append(l.spans, span{
		OpID: opID, Layer: layer, Name: name, Parent: parent,
		Start: int64(time.Since(l.origin)),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].End = int64(time.Since(l.origin)) }

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (parallel legs) and may stick out of the parent; only their union
// inside the parent counts.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfMicros collects the self times, in microseconds, of the spans with
// the given layer and name.
func (l *spanLog) selfMicros(layer, name string) []float64 {
	self := selfTimes(l.spans)
	var out []float64
	for i, s := range l.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(self[i])/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
