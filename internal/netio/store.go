package netio

import (
	"sort"
	"sync"

	"streambox/internal/kpa"
	"streambox/internal/metrics"
)

// ResultRow is one (key, aggregate) pair of a closed window, exactly as
// the runtime's window sink delivers it.
type ResultRow = kpa.Row

// WindowResult is one closed window's results, as GET /windows serves
// it and as the recovery checkpoint stores a sealed window. Rows are
// ascending by key as the runtime delivered them and immutable once
// published: every snapshot shares the slice.
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

// Publish files one closed window and takes ownership of rows: the
// store retains the slice itself and every Snapshot shares it, so the
// caller must not write to it again. A duplicate Start for the same
// sink merges by copy — a fresh slice of the old rows then the new,
// never an append into one a snapshot may hold — so a window published
// twice shows doubled rows.
func (st *ResultStore) Publish(sink string, start, end uint64, rows []ResultRow) {
	st.published.Add(1)
	st.mu.Lock()
	defer st.mu.Unlock()
	ws := st.bySink[sink]
	i := sort.Search(len(ws), func(i int) bool { return ws[i].Start >= start })
	if i < len(ws) && ws[i].Start == start {
		merged := make([]ResultRow, 0, len(ws[i].Rows)+len(rows))
		ws[i].Rows = append(append(merged, ws[i].Rows...), rows...)
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

// Snapshot returns the retained windows, every sink ascending by window
// start. The window list is the caller's; each window's Rows is shared
// with the store and every other snapshot, and must not be written.
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
		out = append(out, st.bySink[s]...)
	}
	return out
}
