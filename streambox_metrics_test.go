package streambox

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streambox/internal/metrics"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

// parseMetrics reads Prometheus text into full series name → value, and
// the set of shapes seen: name{label keys}, values and label values
// dropped.
func parseMetrics(t *testing.T, text string) (vals map[string]float64, shapes map[string]bool) {
	t.Helper()
	vals, shapes = make(map[string]float64), make(map[string]bool)
	labelKey := regexp.MustCompile(`(\w+)="`)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		series, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("unparseable /metrics line %q", line)
		}
		vals[series] = v
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		if len(keys) > 0 {
			name += "{" + strings.Join(keys, ",") + "}"
		}
		shapes[name] = true
	}
	return vals, shapes
}

// TestMetricsSurface pins what /metrics serves and that the report is
// the same numbers. Live, with the write-ahead log and the spill tier
// on, every series name and label-key set captured from the last
// hand-rendered /metrics (testdata/metrics_series.golden) is still
// served, and the samples the benchmark's poller parses keep their text
// form. After Shutdown, every Report field that has a series equals it.
func TestMetricsSurface(t *testing.T) {
	p := NewPipeline(FixedWindow(Second))
	p.NetworkSource(SourceConfig{Name: "net"}).Window(NetworkTsCol).SumPerKey(0, 3).Sink("out")
	srv, err := Serve(p, RunConfig{
		SpillDir:      t.TempDir(),
		SpillCapacity: 8 << 20,
		Serve:         &ServeConfig{IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", WALDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar, FrameRecords: 100})
	if err != nil {
		srv.Shutdown()
		t.Fatal(err)
	}
	// 5 windows of 4 000 records in 40 frames each: enough bundles per
	// window for a group seal.
	gen := netio.RecordGen{Keys: 50, WindowRecords: 4000}
	if err := c.Send(gen.Records(0, 20_000)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, shapes := parseMetrics(t, string(body))
	golden, err := os.ReadFile("testdata/metrics_series.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range strings.Fields(string(golden)) {
		if !shapes[want] {
			t.Errorf("/metrics no longer serves %s", want)
		}
	}
	for _, form := range []string{
		`(?m)^streambox_windows_published_total \d+$`,
		`(?m)^streambox_mempool_utilization\{tier="hbm"\} [0-9.e+-]+$`,
		`(?m)^streambox_mempool_utilization\{tier="dram"\} [0-9.e+-]+$`,
		`(?m)^streambox_ingest_frames_total \d+$`,
		`(?m)^streambox_wal_appended_bytes_total \d+$`,
		`(?m)^streambox_mempool_colslabs_recycled_total \d+$`,
		`(?m)^streambox_mempool_alloc_failures_total \d+$`,
	} {
		if !regexp.MustCompile(form).Match(body) {
			t.Errorf("/metrics has no line of the form %s", form)
		}
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", body)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := metrics.WriteText(&buf, srv.MetricSets()...); err != nil {
		t.Fatal(err)
	}
	vals, _ := parseMetrics(t, buf.String())
	if rep.IngestedRecords != 20_000 || rep.WindowsClosed != 5 || rep.SealedPanes == 0 || rep.WALAppendedFrames != 200 || rep.WALSyncs == 0 {
		t.Fatalf("run too small to pin anything: %+v", rep)
	}
	// WALSegmentsActive is the one field with a series that Shutdown
	// overrides: it purges the segments after the log has closed.
	for series, field := range map[string]int64{
		"streambox_ingested_records_total":                        rep.IngestedRecords,
		"streambox_emitted_records_total":                         rep.EmittedRecords,
		"streambox_windows_closed_total":                          int64(rep.WindowsClosed),
		"streambox_windows_published_total":                       int64(rep.WindowsClosed),
		"streambox_pane_runs_total":                               rep.PaneRuns,
		"streambox_shared_run_refs_total":                         rep.SharedRunRefs,
		"streambox_sealed_panes_total":                            rep.SealedPanes,
		"streambox_seals_skipped_total":                           rep.SealsSkipped,
		"streambox_close_pairs_total":                             rep.ClosePairs,
		"streambox_extract_ns_total":                              rep.ExtractNs,
		"streambox_late_records_total":                            rep.LateRecords,
		`streambox_window_state_peak_bytes{tier="hbm"}`:           rep.PeakWindowStateBytes[0],
		`streambox_window_state_peak_bytes{tier="dram"}`:          rep.PeakWindowStateBytes[1],
		`streambox_window_state_peak_bytes{tier="spill"}`:         rep.PeakWindowStateBytes[2],
		"streambox_window_state_peak_total_bytes":                 rep.PeakWindowStateTotalBytes,
		`streambox_kpa_placements_total{tier="spill"}`:            rep.SpilledRuns,
		`streambox_kpa_placed_bytes_total{tier="spill"}`:          rep.SpilledBytes,
		"streambox_ingest_records_total":                          rep.IngestedRecords,
		"streambox_ingest_dropped_records_total":                  rep.DroppedRecords,
		"streambox_ingest_decode_errors_total":                    rep.DecodeErrors,
		"streambox_ingest_checksum_errors_total":                  rep.ChecksumErrors,
		"streambox_ingest_sessions_resumed_total":                 rep.SessionsResumed,
		"streambox_ingest_duplicate_frames_total":                 rep.DuplicateFrames,
		"streambox_ingest_shed_connections_total":                 rep.ShedConns,
		"streambox_ingest_sessions_expired_total":                 rep.ExpiredSessions,
		"streambox_ingest_idle_timeouts_total":                    rep.IdleTimeouts,
		"streambox_wal_appended_frames_total":                     rep.WALAppendedFrames,
		"streambox_wal_syncs_total":                               rep.WALSyncs,
		"streambox_wal_fsync_ns_count":                            rep.WALSyncs,
		"streambox_wal_fsync_p99_ns":                              rep.WALFsyncP99Ns,
		"streambox_wal_segments_retired_total":                    rep.WALSegmentsRetired,
		"streambox_recovered_sessions":                            rep.RecoveredSessions,
		"streambox_replayed_frames_total":                         rep.ReplayedFrames,
		"streambox_window_close_ns_count":                         int64(rep.WindowsClosed),
		"streambox_window_state_total_bytes":                      0,
		`streambox_window_state_bytes{tier="dram"}`:               0,
		"streambox_ingest_connections_active":                     0,
		`streambox_ingest_format_frames_total{format="columnar"}`: 200,
	} {
		if got, ok := vals[series]; !ok || got != float64(field) {
			t.Errorf("%s = %v (served %v), report says %d", series, got, ok, field)
		}
	}
	// A frame's 100 records span at most 50 keys, below its rows, so every
	// level-0 run is born partial: fewer pairs are formed than records
	// ingested.
	if got := vals["streambox_formed_pairs_total"]; got <= 0 || got >= float64(rep.IngestedRecords) {
		t.Errorf("streambox_formed_pairs_total = %v for %d records: runs were not folded at formation", got, rep.IngestedRecords)
	}
	// The close p99 is a quantile of the served histogram: the first
	// power-of-two bound at or above it already covers 99 % of closes.
	if rep.CloseP99Ns <= 0 {
		t.Errorf("CloseP99Ns = %d after %d closes", rep.CloseP99Ns, rep.WindowsClosed)
	}
	for lg := 10; lg <= 34; lg++ {
		if bound := int64(1) << lg; bound >= rep.CloseP99Ns {
			le := `streambox_window_close_ns_bucket{le="` + strconv.FormatInt(bound, 10) + `"}`
			if vals[le]*100 < 99*float64(rep.WindowsClosed) {
				t.Errorf("%s = %v of %d closes, yet the report's p99 is %d ns", le, vals[le], rep.WindowsClosed, rep.CloseP99Ns)
			}
			break
		}
	}
}
