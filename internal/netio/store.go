package netio

import (
	"sort"
	"sync"

	"streambox/internal/metrics"
)

// ResultRow is one (key, aggregate) pair of a closed window.
type ResultRow struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// WindowResult is one closed window's results for /windows.
type WindowResult struct {
	Sink    string      `json:"sink"`
	Start   uint64      `json:"start"`
	End     uint64      `json:"end"`
	Records int         `json:"records"`
	Rows    []ResultRow `json:"rows,omitempty"`
}

// ResultStore is the concurrent live-query store: the native reduce
// stage publishes every closed window here (via runtime's WindowSink
// hook), and GET /windows snapshots the most recent ones per sink while
// the pipeline runs.
type ResultStore struct {
	mu     sync.Mutex
	keep   int
	bySink map[string][]WindowResult // ascending by Start

	set       metrics.Set
	published *metrics.Counter
}

// NewResultStore creates a store retaining the most recent keep windows
// per sink (0 picks 16).
func NewResultStore(keep int) *ResultStore {
	if keep <= 0 {
		keep = 16
	}
	st := &ResultStore{keep: keep, bySink: make(map[string][]WindowResult)}
	st.published = st.set.Counter("streambox_windows_published_total")
	return st
}

// Metrics returns the store's series for /metrics.
func (st *ResultStore) Metrics() *metrics.Set { return &st.set }

// Publish files one closed window. A duplicate Start for the same sink
// (late network data re-opening a window at final drain) merges rows
// into the existing entry.
func (st *ResultStore) Publish(sink string, start, end uint64, rows []ResultRow) {
	st.published.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	ws := st.bySink[sink]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].Start >= start })
	if i < len(ws) && ws[i].Start == start {
		ws[i].Rows = append(ws[i].Rows, rows...)
		ws[i].Records = len(ws[i].Rows)
		return
	}
	w := WindowResult{Sink: sink, Start: start, End: end, Records: len(rows), Rows: rows}
	ws = append(ws, WindowResult{})
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	if len(ws) > st.keep {
		ws = append(ws[:0], ws[len(ws)-st.keep:]...)
	}
	st.bySink[sink] = ws
}

// Snapshot returns a copy of the retained windows, every sink ascending
// by window start.
func (st *ResultStore) Snapshot() []WindowResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	var sinks []string
	for s := range st.bySink {
		sinks = append(sinks, s)
	}
	sort.Strings(sinks)
	var out []WindowResult
	for _, s := range sinks {
		for _, w := range st.bySink[s] {
			cp := w
			cp.Rows = append([]ResultRow(nil), w.Rows...)
			out = append(out, cp)
		}
	}
	return out
}

// Published returns the total windows published since start.
func (st *ResultStore) Published() int64 { return st.published.Load() }
