package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. ID is the span's
// 1-based position in the buffer, Parent the ID of the span that caused
// it (0 for the root); Ref carries the domain identifier — connection
// and frame sequence, or window start — that groups spans of one
// request; Count is the number of records (or rows, pairs) it covered.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Ref     uint64 `json:"ref"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int64  `json:"count"`
}

// recorder keeps spans in a preallocated buffer; slots are claimed with
// one atomic add so the sender, generator, poller and worker goroutines
// can all record without a lock. A nil recorder records nothing — the
// untraced runs call the same code.
type recorder struct {
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

const maxSpans = 1 << 17

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, maxSpans)}
}

// begin opens a span and returns its ID (0 when not recording or full).
func (r *recorder) begin(name, layer string, parent int, ref uint64) int {
	if r == nil {
		return 0
	}
	i := r.next.Add(1)
	if i > int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i-1] = span{Name: name, Layer: layer, ID: int(i), Parent: parent, Ref: ref, StartNs: time.Since(r.t0).Nanoseconds()}
	return int(i)
}

// end closes span id with its work count.
func (r *recorder) end(id int, count int64) {
	if r == nil || id == 0 {
		return
	}
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.t0).Nanoseconds()
	s.Count = count
}

// recorded returns the spans written so far.
func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := min(r.next.Load(), int64(len(r.spans)))
	return r.spans[:n]
}

// layerRow is one line of the layer table: a layer's self time is its
// spans' durations minus the part their child spans cover.
type layerRow struct {
	Layer  string `json:"layer"`
	SelfNs int64  `json:"self_ns"`
	Spans  int    `json:"spans"`
	Count  int64  `json:"count"`
}

// layerTable computes self time per layer. Children may run
// concurrently (two connections under one live span), so the covered
// part of a parent is the union of its children's intervals.
func layerTable(spans []span) []layerRow {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		row := rows[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			rows[s.Layer] = row
		}
		row.Spans++
		row.Count += s.Count
		row.SelfNs += s.EndNs - s.StartNs - unionLen(children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	for i, v := range iv {
		if i == 0 || v[0] > hi {
			total += v[1] - v[0]
			hi = v[1]
		} else if v[1] > hi {
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// checkSpans verifies the trace is well formed: every span is closed,
// names an existing parent (only the first span is a root) and lies
// inside its parent's interval.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.ID != 1 {
				return fmt.Errorf("span %d (%s) is orphaned", s.ID, s.Name)
			}
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] leaves parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}
