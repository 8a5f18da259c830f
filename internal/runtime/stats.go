package runtime

import (
	"strings"

	"streambox/internal/engine"
	"streambox/internal/memsim"
	"streambox/internal/metrics"
)

// stats is one run's instrumentation: every series the runtime serves
// on /metrics, each declared once in newStats, next to the counter the
// pipeline adds to and the report loads. exec keeps no counters of its
// own.
type stats struct {
	set metrics.Set

	ingested *metrics.Counter
	emitted  *metrics.Counter
	late     *metrics.Counter // records dropped behind the watermark
	paused   *metrics.Counter // nanoseconds ingest spent blocked

	// Runs placed per tier, and their bytes: the spill tier's are the
	// runs born in the arena, and stay zero without one.
	placements  [memsim.NumTiers]*metrics.Counter
	placedBytes [memsim.NumTiers]*metrics.Counter

	// Ingest time turning batches into bundles, one clock pair each.
	bundleNanos *metrics.Counter

	// Grouping: logical (record, window) assignments, pairs written into
	// level-0 runs, worker time spent extracting/forming them, in seal
	// tasks, in close merges and publishing closed windows; pane runs
	// shared across windows.
	extractPairs  *metrics.Counter
	formedPairs   *metrics.Counter
	extractNanos  *metrics.Counter
	sealNanos     *metrics.Counter
	mergeNanos    *metrics.Counter
	publishNanos  *metrics.Counter
	paneRuns      *metrics.Counter
	sharedRunRefs *metrics.Counter
	sealedPanes   *metrics.Counter
	closePairs    *metrics.Counter

	// Live grouped window state per tier and combined, with high-water
	// marks; the marks are independent maxima.
	stateBytes [memsim.NumTiers]*metrics.Counter
	peakState  [memsim.NumTiers]*metrics.Counter
	stateTotal *metrics.Counter
	peakTotal  *metrics.Counter

	// closeLatency is every window's close latency, request to retirement.
	closeLatency *metrics.Histogram
}

// newStats declares the runtime's series. The scrape-time values — what
// sits behind the window table's and the scheduler's locks — read x.
func newStats(x *exec) *stats {
	s := new(stats)
	m := &s.set
	s.ingested = m.Counter("streambox_ingested_records_total")
	s.emitted = m.Counter("streambox_emitted_records_total")
	s.late = m.Counter("streambox_late_records_total")
	s.paused = m.Counter("streambox_ingest_paused_ns_total")
	s.bundleNanos = m.Counter("streambox_ingest_bundle_ns_total")
	s.extractPairs = m.Counter("streambox_extracted_pairs_total")
	s.formedPairs = m.Counter("streambox_formed_pairs_total")
	s.extractNanos = m.Counter("streambox_extract_ns_total")
	s.sealNanos = m.Counter("streambox_seal_ns_total")
	s.mergeNanos = m.Counter("streambox_merge_ns_total")
	s.publishNanos = m.Counter("streambox_publish_ns_total")
	s.paneRuns = m.Counter("streambox_pane_runs_total")
	s.sharedRunRefs = m.Counter("streambox_shared_run_refs_total")
	s.sealedPanes = m.Counter("streambox_sealed_panes_total")
	s.closePairs = m.Counter("streambox_close_pairs_total")
	for t := range s.stateBytes {
		tier := `{tier="` + strings.ToLower(memsim.Tier(t).String()) + `"}`
		s.placements[t] = m.Counter("streambox_kpa_placements_total" + tier)
		s.placedBytes[t] = m.Counter("streambox_kpa_placed_bytes_total" + tier)
		s.stateBytes[t] = m.Counter("streambox_window_state_bytes" + tier)
		s.peakState[t] = m.Counter("streambox_window_state_peak_bytes" + tier)
	}
	s.stateTotal = m.Counter("streambox_window_state_total_bytes")
	s.peakTotal = m.Counter("streambox_window_state_peak_total_bytes")
	s.closeLatency = m.Histogram("streambox_window_close_ns")

	var depth [numPriorities]string
	for p := range depth {
		depth[p] = `streambox_sched_queue_depth{priority="` + strings.ToLower(engine.Tag(p).String()) + `"}`
	}
	m.Collect(func(e *metrics.Emitter) {
		e.Int("streambox_windows_closed_total", int64(x.table.closedWindows()))
		e.Int("streambox_seals_skipped_total", int64(x.table.sealsSkipped()))
		for p, n := range x.sched.QueuedByPriority() {
			e.Int(depth[p], int64(n))
		}
		var spillUsed int64
		if x.spillFile != nil {
			spillUsed = x.spillFile.Used()
		}
		e.Int("streambox_spill_used_bytes", spillUsed)
		e.Int("streambox_spill_capacity_bytes", x.pool.Capacity(memsim.Spill))
	})
	return s
}

// addState charges n bytes of window state to tier t and the combined
// gauge, raising both high-water marks.
func (s *stats) addState(t memsim.Tier, n int64) {
	s.peakState[t].Max(s.stateBytes[t].Add(n))
	s.peakTotal.Max(s.stateTotal.Add(n))
}

// liveState returns the live window-state bytes per tier, spill included.
func (s *stats) liveState() (out [memsim.NumTiers]int64) {
	for t := range out {
		out[t] = s.stateBytes[t].Load()
	}
	return out
}
