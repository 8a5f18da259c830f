package netio

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Metrics is one scrape of engine and server state for /metrics. The
// serving layer fills it from the live runtime execution, the ingest
// server and the result store.
type Metrics struct {
	// Per-tier mempool state, indexed by memsim.Tier (0 HBM, 1 DRAM,
	// 2 the mmap'd spill tier — capacity 0 unless attached).
	MemUsed, MemCapacity [3]int64
	MemUtilization       [3]float64
	Allocs, Frees        int64
	AllocFailures        int64
	// Column-slab pool occupancy: the mempool's []uint64 free lists
	// backing the zero-copy ingest path.
	ColSlabsCached    int64
	ColSlabBytesCache int64
	ColSlabsRecycled  int64
	// Per-tier live grouped window-state bytes (sorted runs + merge
	// intermediates), indexed like the mempool tiers. Pane sharing is
	// what keeps the sliding-window figure at one copy of each record
	// rather than one per overlapping window.
	WindowStateBytes [3]int64
	// Pane-sharing counters: sorted pane runs built, and the extra
	// window references taken on them.
	PaneRuns, SharedRunRefs int64
	// Window-close counters: pane seals (groups of runs merged into one,
	// while a pane fills and at its first window's close), and pairs
	// streamed through those merges and the closing windows' own.
	SealedPanes, ClosePairs int64
	// LateRecords counts records dropped behind the watermark: every
	// window covering them was already sealed.
	LateRecords int64
	// Demand-balance knob probabilities.
	KLow, KHigh float64
	// Scheduler backlog per priority class (low, high, urgent).
	QueueDepths [3]int
	// Pipeline progress.
	IngestedRecords int64
	WindowsClosed   int64
	// Ingest server counters.
	Ingest Counters
	// Per-connection ingest counters.
	PerConn []ConnCounters
	// Windows published to the result store.
	WindowsPublished int64
	// Durability: write-ahead log and crash-recovery state. WALEnabled
	// gates the whole family so fault-free deployments scrape nothing
	// extra. FsyncBucket mirrors wal.Bucket without importing the
	// package (netio only sees the FrameLog interface).
	WALEnabled         bool
	WALAppendedFrames  int64
	WALAppendedBytes   int64
	WALSyncs           int64
	WALFsyncP99Ns      int64
	WALSegmentsActive  int64
	WALSegmentsRetired int64
	WALFsync           []FsyncBucket
	RecoveredSessions  int64
	ReplayedFrames     int64
	// Degradation ladder: the adaptive placement controller and the
	// mmap'd cold spill tier. SpillEnabled gates the family so runs
	// without a spill file scrape nothing extra.
	SpillEnabled       bool
	SpilledRuns        int64
	SpilledBytes       int64
	SpillLoads         int64
	SpillUsedBytes     int64
	SpillCapacityBytes int64
	CtrlDecisions      int64
}

// FsyncBucket is one cumulative fsync-latency histogram bucket
// (upper bound in nanoseconds; -1 means +Inf).
type FsyncBucket struct {
	LeNs  int64
	Count int64
}

var tierNames = [3]string{"hbm", "dram", "spill"}
var priorityNames = [3]string{"low", "high", "urgent"}

// WriteMetrics renders m in the Prometheus text exposition format.
func WriteMetrics(w io.Writer, m Metrics) {
	gauge := func(name, labels string, v interface{}) {
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s%s %v\n", name, labels, v)
	}
	for t, name := range tierNames {
		l := `tier="` + name + `"`
		gauge("streambox_mempool_used_bytes", l, m.MemUsed[t])
		gauge("streambox_mempool_capacity_bytes", l, m.MemCapacity[t])
		gauge("streambox_mempool_utilization", l, m.MemUtilization[t])
	}
	for t, name := range tierNames {
		gauge("streambox_window_state_bytes", `tier="`+name+`"`, m.WindowStateBytes[t])
	}
	gauge("streambox_pane_runs_total", "", m.PaneRuns)
	gauge("streambox_shared_run_refs_total", "", m.SharedRunRefs)
	gauge("streambox_sealed_panes_total", "", m.SealedPanes)
	gauge("streambox_close_pairs_total", "", m.ClosePairs)
	gauge("streambox_late_records_total", "", m.LateRecords)
	gauge("streambox_mempool_allocs_total", "", m.Allocs)
	gauge("streambox_mempool_frees_total", "", m.Frees)
	gauge("streambox_mempool_alloc_failures_total", "", m.AllocFailures)
	gauge("streambox_mempool_colslabs_cached", "", m.ColSlabsCached)
	gauge("streambox_mempool_colslab_cached_bytes", "", m.ColSlabBytesCache)
	gauge("streambox_mempool_colslabs_recycled_total", "", m.ColSlabsRecycled)
	gauge("streambox_knob_k_low", "", m.KLow)
	gauge("streambox_knob_k_high", "", m.KHigh)
	for p, name := range priorityNames {
		gauge("streambox_sched_queue_depth", `priority="`+name+`"`, m.QueueDepths[p])
	}
	gauge("streambox_ingested_records_total", "", m.IngestedRecords)
	gauge("streambox_windows_closed_total", "", m.WindowsClosed)
	gauge("streambox_windows_published_total", "", m.WindowsPublished)
	gauge("streambox_ingest_connections_total", "", m.Ingest.Conns)
	gauge("streambox_ingest_connections_active", "", m.Ingest.ActiveConns)
	gauge("streambox_ingest_frames_total", "", m.Ingest.Frames)
	gauge("streambox_ingest_records_total", "", m.Ingest.IngestedRecords)
	gauge("streambox_ingest_dropped_records_total", "", m.Ingest.DroppedRecords)
	gauge("streambox_ingest_decode_errors_total", "", m.Ingest.DecodeErrors)
	gauge("streambox_ingest_checksum_errors_total", "", m.Ingest.ChecksumErrors)
	gauge("streambox_ingest_sessions_active", "", m.Ingest.ActiveSessions)
	gauge("streambox_ingest_sessions_resumed_total", "", m.Ingest.SessionsResumed)
	gauge("streambox_ingest_sessions_expired_total", "", m.Ingest.ExpiredSessions)
	gauge("streambox_ingest_duplicate_frames_total", "", m.Ingest.DuplicateFrames)
	gauge("streambox_ingest_shed_connections_total", "", m.Ingest.ShedConns)
	gauge("streambox_ingest_parked_cursors", "", m.Ingest.ParkedCursors)
	gauge("streambox_ingest_idle_timeouts_total", "", m.Ingest.IdleTimeouts)
	for f, n := range m.Ingest.FramesByFormat {
		gauge("streambox_ingest_format_frames_total", `format="`+formatLabel[f]+`"`, n)
	}
	if m.WALEnabled {
		gauge("streambox_wal_appended_frames_total", "", m.WALAppendedFrames)
		gauge("streambox_wal_appended_bytes_total", "", m.WALAppendedBytes)
		gauge("streambox_wal_syncs_total", "", m.WALSyncs)
		gauge("streambox_wal_fsync_p99_ns", "", m.WALFsyncP99Ns)
		gauge("streambox_wal_segments_active", "", m.WALSegmentsActive)
		gauge("streambox_wal_segments_retired_total", "", m.WALSegmentsRetired)
		var cum int64
		for _, b := range m.WALFsync {
			le := "+Inf"
			if b.LeNs >= 0 {
				le = strconv.FormatInt(b.LeNs, 10)
			}
			cum += b.Count
			gauge("streambox_wal_fsync_ns_bucket", `le="`+le+`"`, cum)
		}
		gauge("streambox_wal_fsync_ns_count", "", m.WALSyncs)
		gauge("streambox_recovered_sessions", "", m.RecoveredSessions)
		gauge("streambox_replayed_frames_total", "", m.ReplayedFrames)
	}
	if m.SpillEnabled {
		gauge("streambox_spill_evicted_runs_total", "", m.SpilledRuns)
		gauge("streambox_spill_evicted_bytes_total", "", m.SpilledBytes)
		gauge("streambox_spill_loads_total", "", m.SpillLoads)
		gauge("streambox_spill_used_bytes", "", m.SpillUsedBytes)
		gauge("streambox_spill_capacity_bytes", "", m.SpillCapacityBytes)
		gauge("streambox_ctrl_decisions_total", "", m.CtrlDecisions)
	}
	for _, c := range m.PerConn {
		l := fmt.Sprintf(`conn="%d",remote=%q,format=%q`, c.ID, c.Remote, c.Format)
		gauge("streambox_conn_frames_total", l, c.Frames)
		gauge("streambox_conn_records_total", l, c.IngestedRecords)
		gauge("streambox_conn_dropped_records_total", l, c.DroppedRecords)
		gauge("streambox_conn_decode_errors_total", l, c.DecodeErrors)
		gauge("streambox_conn_checksum_errors_total", l, c.ChecksumErrors)
		gauge("streambox_conn_credit_window", l, c.CreditWindow)
	}
}

// NewHandler builds the HTTP mux serving GET /windows (JSON snapshot of
// the latest closed windows per sink) and GET /metrics (text
// exposition), plus a one-line index at /.
func NewHandler(store *ResultStore, metrics func() Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /windows", func(w http.ResponseWriter, r *http.Request) {
		wins := store.Snapshot()
		if sink := r.URL.Query().Get("sink"); sink != "" {
			kept := wins[:0]
			for _, win := range wins {
				if win.Sink == sink {
					kept = append(kept, win)
				}
			}
			wins = kept
		}
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(wins) {
				wins = wins[len(wins)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Windows []WindowResult `json:"windows"`
		}{wins})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		WriteMetrics(w, metrics())
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.TrimLeft(`
streambox serve endpoint
  GET /windows[?sink=NAME&limit=N]  latest closed windows (JSON)
  GET /metrics                      engine + ingest metrics (Prometheus text)
`, "\n"))
	})
	return mux
}
