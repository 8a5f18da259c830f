package streambox_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	streambox "streambox"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

// netPipeline builds the loopback test pipeline: network source,
// windowed on event_time, summing user_id per ad_id.
func netPipeline() (*streambox.Pipeline, *streambox.Captured) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	cap := p.NetworkSource(streambox.SourceConfig{Name: "net"}).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	return p, cap
}

// dropEventType2 is a filter on event_type (column 2), outside the key,
// value and time columns: a plan reading it makes its sessions carry it.
// With RecordGen's round-robin keys it drops half the records of every
// even key and none of an odd one.
func dropEventType2(s streambox.Stream, filtered bool) streambox.Stream {
	if !filtered {
		return s
	}
	return s.Filter("event_type!=2", 2, func(v uint64) bool { return v != 2 })
}

// sendPartition streams records j, j+conns, j+2·conns, … of gen — the
// loadgen partitioning — over one pre-dialed client connection, 256 to a
// frame, then closes it. The connection must be dialed before any sender
// streams, so every watermark cursor is registered up front (as
// sbx-loadgen does). A non-nil pause holds the frame after the first
// that brings the records sent to pauseAfter, and a non-nil hold the
// last frame and the Close, each until its channel is closed.
func sendPartition(t *testing.T, c *netio.Client, gen netio.RecordGen, j, conns, total, pauseAfter int, pause, hold <-chan struct{}) {
	t.Helper()
	defer c.Close()
	buf := make([]parsefmt.Record, 0, 256)
	sent := 0
	for i := j; i < total; i += conns {
		buf = append(buf, gen.At(uint64(i)))
		if len(buf) == 256 && i+conns < total {
			if err := c.Send(buf); err != nil {
				t.Errorf("conn %d: send: %v", j, err)
				return
			}
			if sent < pauseAfter && sent+len(buf) >= pauseAfter && pause != nil {
				<-pause
			}
			sent += len(buf)
			buf = buf[:0]
		}
	}
	if hold != nil {
		<-hold
	}
	if err := c.Send(buf); err != nil {
		t.Errorf("conn %d: send: %v", j, err)
	}
}

// sortedRows canonicalizes captured rows for comparison.
func sortedRows(c *streambox.Captured) []string {
	out := make([]string, 0, len(c.Rows))
	for _, r := range c.Rows {
		out = append(out, fmt.Sprintf("%d/%d=%d", r.Win, r.Key, r.Val))
	}
	sort.Strings(out)
	return out
}

// TestServeLoopbackEquivalence is the acceptance test for the netio
// subsystem: several clients stream a deterministic workload over
// localhost into a serving pipeline, /windows and /metrics answer with
// live data mid-run, and after a graceful drain the per-window results
// equal the same workload run through the in-process generator on the
// native backend.
//
// It runs twice: the plain sum, and the sum behind a filter on
// event_type, a column the plain sum's sessions do not carry.
func TestServeLoopbackEquivalence(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		name := "sum"
		if filtered {
			name = "filtered on event_type"
		}
		t.Run(name, func(t *testing.T) { testServeLoopbackEquivalence(t, filtered) })
	}
}

func testServeLoopbackEquivalence(t *testing.T, filtered bool) {
	const (
		total = 200_000
		conns = 3
	)
	gen := netio.RecordGen{Keys: 50, WindowRecords: 20_000} // 10 windows, value 1

	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	netCap := dropEventType2(p.NetworkSource(streambox.SourceConfig{Name: "net"}), filtered).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve:   &streambox.ServeConfig{IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Dial every connection before any sender streams: each Dial
	// registers a watermark cursor, so no window can close before all
	// partitions have passed it.
	formats := []parsefmt.Format{parsefmt.PB, parsefmt.Columnar}
	clients := make([]*netio.Client, conns)
	for j := range clients {
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: formats[j%len(formats)], FrameRecords: 256})
		if err != nil {
			t.Fatalf("conn %d: dial: %v", j, err)
		}
		clients[j] = c
	}
	start := time.Now()
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sendPartition(t, clients[j], gen, j, conns, total, 0, nil, nil)
		}(j)
	}

	// Live queries while the run is in flight: poll until at least one
	// window has closed and been published, then check both endpoints.
	base := "http://" + srv.HTTPAddr()
	deadline := time.Now().Add(10 * time.Second)
	var wins struct{ Windows []netio.WindowResult }
	for {
		body := httpGet(t, base+"/windows")
		wins.Windows = nil
		if err := json.Unmarshal(body, &wins); err != nil {
			t.Fatalf("/windows JSON: %v", err)
		}
		if len(wins.Windows) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/windows never showed a closed window during the run")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if w := wins.Windows[0]; w.Sink != "capture" || w.End-w.Start != uint64(streambox.Second) {
		t.Fatalf("live window looks wrong: %+v", w)
	}
	metrics := string(httpGet(t, base+"/metrics"))
	for _, want := range []string{
		"streambox_ingest_connections_active",
		"streambox_mempool_used_bytes{tier=\"dram\"}",
		"streambox_windows_closed_total",
		"streambox_sealed_panes_total",
		"streambox_close_pairs_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	wg.Wait()
	elapsed := time.Since(start)
	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != total {
		t.Fatalf("ingested %d records, want %d", rep.IngestedRecords, total)
	}
	if rep.DecodeErrors != 0 || rep.DroppedRecords != 0 {
		t.Fatalf("decode errors %d, dropped %d, want 0/0", rep.DecodeErrors, rep.DroppedRecords)
	}
	t.Logf("loopback: %d records over %d conns in %v (%.0f rec/s)",
		total, conns, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())

	// Ground truth: the identical stream via the in-process generator.
	refP := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	refCap := dropEventType2(refP.Source(netio.NewStreamGen(gen), streambox.SourceConfig{
		Name:           "ref",
		Rate:           total,
		BundleRecords:  1000,
		WindowRecords:  20_000,
		WatermarkEvery: 10,
	}), filtered).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	if _, err := streambox.Run(refP, streambox.RunConfig{Backend: streambox.Native, Duration: 1}); err != nil {
		t.Fatal(err)
	}

	got, want := sortedRows(netCap), sortedRows(refCap)
	if len(got) != len(want) {
		t.Fatalf("network run produced %d rows, generator run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: network %s, generator %s", i, got[i], want[i])
		}
	}
	if len(got) != 10*50 {
		t.Fatalf("row count %d, want 10 windows × 50 keys", len(got))
	}
}

// TestServeLoopbackEquivalenceColumnar mirrors the loopback acceptance
// test on the columnar wire: clients stream column-major frames through
// the zero-copy receive path, and the per-window results must equal the
// in-process generator run (and, transitively, the row-format runs the
// test above pins). It also checks the columnar-specific observability:
// format-split frame counters and column-slab pool occupancy.
func TestServeLoopbackEquivalenceColumnar(t *testing.T) {
	const (
		total = 200_000
		conns = 3
	)
	gen := netio.RecordGen{Keys: 50, WindowRecords: 20_000} // 10 windows, value 1

	p, netCap := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve:   &streambox.ServeConfig{IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}

	clients := make([]*netio.Client, conns)
	for j := range clients {
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar, FrameRecords: 256})
		if err != nil {
			t.Fatalf("conn %d: dial: %v", j, err)
		}
		clients[j] = c
	}
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			c := clients[j]
			defer c.Close()
			// Column-native partition send: fill column buffers straight
			// from the generator, no record materialization.
			cols := make([][]uint64, 7)
			for k := range cols {
				cols[k] = make([]uint64, 0, 256)
			}
			flush := func() bool {
				if err := c.SendColumns(cols); err != nil {
					t.Errorf("conn %d: send: %v", j, err)
					return false
				}
				for k := range cols {
					cols[k] = cols[k][:0]
				}
				return true
			}
			for i := j; i < total; i += conns {
				rc := gen.ColsAt(uint64(i))
				for k := range cols {
					cols[k] = append(cols[k], rc[k])
				}
				if len(cols[0]) == 256 && !flush() {
					return
				}
			}
			if len(cols[0]) > 0 {
				flush()
			}
		}(j)
	}
	wg.Wait()

	// Columnar observability, while connections may still be draining.
	metrics := string(httpGet(t, "http://"+srv.HTTPAddr()+"/metrics"))
	for _, want := range []string{
		`streambox_ingest_format_frames_total{format="columnar"}`,
		"streambox_mempool_colslabs_recycled_total",
		"streambox_ingest_checksum_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != total {
		t.Fatalf("ingested %d records, want %d", rep.IngestedRecords, total)
	}
	if rep.DecodeErrors != 0 || rep.ChecksumErrors != 0 || rep.DroppedRecords != 0 {
		t.Fatalf("decode %d, checksum %d, dropped %d, want all 0",
			rep.DecodeErrors, rep.ChecksumErrors, rep.DroppedRecords)
	}

	// Ground truth: the identical stream via the in-process generator.
	refP := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	refCap := refP.Source(netio.NewStreamGen(gen), streambox.SourceConfig{
		Name:           "ref",
		Rate:           total,
		BundleRecords:  1000,
		WindowRecords:  20_000,
		WatermarkEvery: 10,
	}).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	if _, err := streambox.Run(refP, streambox.RunConfig{Backend: streambox.Native, Duration: 1}); err != nil {
		t.Fatal(err)
	}

	got, want := sortedRows(netCap), sortedRows(refCap)
	if len(got) != len(want) {
		t.Fatalf("columnar run produced %d rows, generator run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs: columnar %s, generator %s", i, got[i], want[i])
		}
	}
	if len(got) != 10*50 {
		t.Fatalf("row count %d, want 10 windows × 50 keys", len(got))
	}
}

// TestRunRejectsNetworkSource pins the API seam: network pipelines go
// through Serve.
func TestRunRejectsNetworkSource(t *testing.T) {
	p, _ := netPipeline()
	if _, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 1}); err == nil {
		t.Fatal("Run accepted a NetworkSource pipeline")
	}
	if _, err := streambox.Serve(p, streambox.RunConfig{}); err == nil {
		t.Fatal("Serve accepted a config without ServeConfig")
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
