package runtime

import (
	"sync"
	"testing"
	"time"

	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// TestOverloadedSourceEngagesBackpressure overloads the pipeline — an
// ingest loop that can produce far faster than a single worker, held up
// for a millisecond by each window's sink call, can drain — and checks
// that backpressure engages (ingest pauses instead of the backlog
// growing unboundedly), the run still terminates, and every window's
// results are exactly correct. Run under -race in CI.
func TestOverloadedSourceEngagesBackpressure(t *testing.T) {
	const (
		keys          = 50
		windowRecords = 10_000
		totalRecords  = 300_000 // 30 windows
	)
	plan := Plan{
		Gen: ingress.NewRoundRobinKV(keys, 1),
		Source: engine.SourceConfig{
			Name:           "overload",
			Rate:           totalRecords,
			BundleRecords:  500,
			WindowRecords:  windowRecords,
			WatermarkEvery: 4,
		},
		Win:          wm.Fixed(1_000_000),
		TotalRecords: totalRecords,
		TsCol:        2,
		KeyCol:       0,
		ValCol:       1,
		NewAgg:       ops.Sum(),
		Label:        "sum",
	}
	rep, err := runCaptured(plan, Config{
		Workers:    1,
		WindowSink: func(wm.Time, wm.Time, []Row) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != totalRecords {
		t.Fatalf("ingested %d, want %d", rep.IngestedRecords, totalRecords)
	}
	if rep.PausedNanos == 0 {
		t.Fatal("overloaded run never paused ingest: backpressure did not engage")
	}
	wantWindows := totalRecords / windowRecords
	if rep.WindowsClosed != wantWindows {
		t.Fatalf("closed %d windows, want %d", rep.WindowsClosed, wantWindows)
	}
	// Round-robin keys with value 1: every window sums to exactly
	// windowRecords/keys per key.
	if len(rep.Rows) != wantWindows*keys {
		t.Fatalf("captured %d rows, want %d", len(rep.Rows), wantWindows*keys)
	}
	for _, r := range rep.Rows {
		if r.Val != windowRecords/keys {
			t.Fatalf("window %d key %d sum %d, want %d", r.Win, r.Key, r.Val, windowRecords/keys)
		}
	}
}

// TestFeedOverloadBackpressure drives the same overload through the
// external-feed path: a pushing source far outpaces one throttled
// worker, backpressure stalls the feed consumer (and with it, real
// network clients via withheld credits), and the drain still yields
// exact per-window results.
func TestFeedOverloadBackpressure(t *testing.T) {
	const (
		keys          = 25
		batchRecords  = 500
		windowRecords = 5_000
		totalRecords  = 100_000 // 20 windows
	)
	feed := newTestFeed(3)
	plan := Plan{
		Feed:   feed,
		Source: engine.SourceConfig{Name: "netfeed", WatermarkEvery: 4},
		Win:    wm.Fixed(1_000_000),
		TsCol:  2,
		KeyCol: 0,
		ValCol: 1,
		NewAgg: ops.Sum(),
		Label:  "sum",
	}
	var got rowCollector
	e, err := Start(plan, got.tap(Config{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	// Producer: one virtual connection pushing round-robin batches as
	// fast as the runtime accepts them.
	go func() {
		var i uint64
		for i < totalRecords {
			cols := make([][]uint64, 3)
			for r := 0; r < batchRecords; r++ {
				ts := i / windowRecords * 1_000_000 // all of a window's records share a tick
				cols[0] = append(cols[0], i%keys)
				cols[1] = append(cols[1], 1)
				cols[2] = append(cols[2], ts)
				i++
			}
			feed.pushCols(cols)
		}
		feed.Close()
	}()
	rep, err := e.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != totalRecords {
		t.Fatalf("ingested %d, want %d", rep.IngestedRecords, totalRecords)
	}
	if rep.PausedNanos == 0 {
		t.Fatal("overloaded feed run never paused: backpressure did not engage")
	}
	wantWindows := totalRecords / windowRecords
	if rep.WindowsClosed != wantWindows {
		t.Fatalf("closed %d windows, want %d", rep.WindowsClosed, wantWindows)
	}
	if len(got.rows) != wantWindows*keys {
		t.Fatalf("captured %d rows, want %d", len(got.rows), wantWindows*keys)
	}
	for _, r := range got.rows {
		if r.Val != windowRecords/keys {
			t.Fatalf("window %d key %d sum %d, want %d", r.Win, r.Key, r.Val, windowRecords/keys)
		}
	}
}

// testFeed is a minimal ExternalFeed for runtime tests (the production
// implementation lives in internal/netio, which sits above runtime).
type testFeed struct {
	ch     chan [][]uint64
	mu     sync.Mutex
	highTs uint64
	closed bool
}

func newTestFeed(buffer int) *testFeed {
	return &testFeed{ch: make(chan [][]uint64, buffer)}
}

func (f *testFeed) Schema() bundle.Schema {
	return bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}}
}

func (f *testFeed) pushCols(cols [][]uint64) { f.ch <- cols }

func (f *testFeed) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	close(f.ch)
}

func (f *testFeed) Recv(maxWait time.Duration) ([][]uint64, bool, bool) {
	var timeout <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		timeout = t.C
	}
	var cols [][]uint64
	var ok bool
	select {
	case cols, ok = <-f.ch:
	case <-timeout:
		return nil, true, true
	}
	if !ok {
		return nil, false, false
	}
	f.mu.Lock()
	for _, ts := range cols[2] {
		if ts > f.highTs {
			f.highTs = ts
		}
	}
	f.mu.Unlock()
	return cols, true, false
}

func (f *testFeed) Watermark() wm.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.highTs
}

// Recycle lets the garbage collector have a batch: testFeed's columns
// are plain heap slices.
func (f *testFeed) Recycle([][]uint64) {}
