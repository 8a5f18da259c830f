package streambox_test

import (
	"testing"

	streambox "streambox"
	"streambox/internal/wm"
)

// quickstartPipeline builds the paper's Listing 1 shape — KV source,
// 1-second windows, sum per key — with a deterministic seed, returning
// the pipeline and its capture.
func quickstartPipeline(keys uint64, seed int64) (*streambox.Pipeline, *streambox.Captured) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	res := p.Source(streambox.KV(streambox.KVConfig{Keys: keys, ValueRange: 1000, Seed: seed}), smallSource(2e6)).
		Window(2).
		SumPerKey(0, 1).
		Capture()
	return p, res
}

// capturedByWindow indexes captured rows as window → key → value.
func capturedByWindow(c *streambox.Captured) map[wm.Time]map[uint64]uint64 {
	out := make(map[wm.Time]map[uint64]uint64)
	for _, r := range c.Rows {
		m := out[r.Win]
		if m == nil {
			m = make(map[uint64]uint64)
			out[r.Win] = m
		}
		m[r.Key] = r.Val
	}
	return out
}

// TestBackendEquivalence runs the quickstart pipeline on the simulated
// and the native backend with the same seed and asserts that every
// window closed by both backends carries identical grouped/reduced
// results. Both backends generate the identical record stream (same
// bundle sizes and event-time arithmetic), so per-window aggregates
// must match exactly; the backends may close a different number of
// trailing windows because the simulator paces ingest in virtual time.
func TestBackendEquivalence(t *testing.T) {
	const seed = 7
	simP, simRes := quickstartPipeline(64, seed)
	simRep, err := streambox.Run(simP, streambox.RunConfig{Duration: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	natP, natRes := quickstartPipeline(64, seed)
	natRep, err := streambox.Run(natP, streambox.RunConfig{
		Backend:  streambox.Native,
		Duration: 0.02,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Backend != streambox.Simulated || natRep.Backend != streambox.Native {
		t.Fatalf("backend labels wrong: %v / %v", simRep.Backend, natRep.Backend)
	}
	sim := capturedByWindow(simRes)
	nat := capturedByWindow(natRes)
	common := 0
	for win, simKeys := range sim {
		natKeys, ok := nat[win]
		if !ok {
			continue
		}
		common++
		if len(simKeys) != len(natKeys) {
			t.Fatalf("window %d: simulated %d keys, native %d keys", win, len(simKeys), len(natKeys))
		}
		for k, v := range simKeys {
			if nv, ok := natKeys[k]; !ok || nv != v {
				t.Fatalf("window %d key %d: simulated sum %d, native sum %d (present=%v)", win, k, v, nv, ok)
			}
		}
	}
	if common < 3 {
		t.Fatalf("only %d common windows (sim %d, native %d); equivalence needs >= 3",
			common, len(sim), len(nat))
	}
}

// TestNativeBackendPublicAPI runs the deterministic round-robin stream
// natively through the public API and checks exact sums plus the
// native-specific report fields.
func TestNativeBackendPublicAPI(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	res := p.Source(streambox.RoundRobinKV(8, 1), smallSource(2e6)).
		Window(2).
		SumPerKey(0, 1).
		Capture()
	rep, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != 40_000 {
		t.Fatalf("ingested %d, want 40000", rep.IngestedRecords)
	}
	if rep.WindowsClosed != 10 {
		t.Fatalf("closed %d windows, want 10", rep.WindowsClosed)
	}
	// 40 bundles of 1 000 records, four to a window (250 time units a
	// record, so none straddles an edge), too few to seal. A bundle's
	// rows span 8 keys, below its rows, so each run is born partial with 8
	// pairs and the closes stream 40 × 8.
	if rep.SealedPanes != 0 || rep.ClosePairs != 40*8 {
		t.Fatalf("fixed windows: %d panes sealed, close streamed %d pairs for %d records, want 0 and %d",
			rep.SealedPanes, rep.ClosePairs, rep.IngestedRecords, 40*8)
	}
	if rep.Throughput <= 0 || rep.WallSeconds <= 0 {
		t.Fatalf("native report must carry real throughput and wall time, got %f rec/s in %fs",
			rep.Throughput, rep.WallSeconds)
	}
	if len(res.Rows) == 0 || res.Records != int64(len(res.Rows)) {
		t.Fatalf("capture rows %d records %d", len(res.Rows), res.Records)
	}
	for _, r := range res.Rows {
		if r.Val != 4000/8 {
			t.Fatalf("sum = %d, want %d", r.Val, 4000/8)
		}
	}
}

// TestNativeSlidingSealsPanes runs overlapping windows natively through
// the public API with an aggregation that combines: panes are sealed
// (the report says so), close streams each record about once instead of
// once per covering window, and interior windows still count every
// record — a partial taken for one record would make them 4 or 5.
func TestNativeSlidingSealsPanes(t *testing.T) {
	p := streambox.NewPipeline(streambox.SlidingWindow(streambox.Second, streambox.Second/4))
	res := p.Source(streambox.RoundRobinKV(4, 1), smallSource(2e6)).
		Window(2).
		CountPerKey(0).
		Capture()
	rep, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SealedPanes == 0 || rep.PaneRuns == 0 {
		t.Fatalf("overlap 4 count: %d panes sealed of %d pane runs", rep.SealedPanes, rep.PaneRuns)
	}
	if rep.ClosePairs == 0 || rep.ClosePairs > 2*rep.IngestedRecords {
		t.Fatalf("close streamed %d pairs for %d records at overlap 4", rep.ClosePairs, rep.IngestedRecords)
	}
	full := 0
	for _, r := range res.Rows {
		if r.Val > 4000/4 {
			t.Fatalf("window %d key %d counts %d records, more than a window holds", r.Win, r.Key, r.Val)
		}
		if r.Val == 4000/4 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no interior sliding window had full counts")
	}
}

// TestNativeBackendFilter checks filters fuse into native extraction.
func TestNativeBackendFilter(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	res := p.Source(streambox.RoundRobinKV(8, 1), smallSource(2e6)).
		Filter("low-keys", 0, func(v uint64) bool { return v < 4 }).
		Window(2).
		CountPerKey(0).
		Capture()
	if _, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 0.01}); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows captured")
	}
	for _, r := range res.Rows {
		if r.Key >= 4 {
			t.Fatalf("filtered key %d leaked", r.Key)
		}
	}
}

// TestNativeBackendUnsupported verifies richer graphs are rejected
// with a helpful error instead of silently degrading.
func TestNativeBackendUnsupported(t *testing.T) {
	// Join: two sources.
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	l := p.Source(streambox.RoundRobinKV(4, 1), smallSource(1e6)).Window(2)
	r := p.Source(streambox.RoundRobinKV(4, 2), smallSource(1e6)).Window(2)
	l.Join(r, 0, 1).Capture()
	if _, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 0.01}); err == nil {
		t.Fatal("two-source join must be rejected natively")
	}

	// Missing Window before aggregation.
	p2 := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p2.Source(streambox.RoundRobinKV(4, 1), smallSource(1e6)).SumPerKey(0, 1).Capture()
	if _, err := streambox.Run(p2, streambox.RunConfig{Backend: streambox.Native, Duration: 0.01}); err == nil {
		t.Fatal("aggregation without Window must be rejected natively")
	}

	// PowerGrid composite is not in the native path.
	p3 := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p3.Source(streambox.PowerGridSource(streambox.PowerGridConfig{Seed: 1}), smallSource(1e6)).
		Window(2).
		PowerGrid().
		Capture()
	if _, err := streambox.Run(p3, streambox.RunConfig{Backend: streambox.Native, Duration: 0.01}); err == nil {
		t.Fatal("PowerGrid composite must be rejected natively")
	}

	// The same pipeline runs fine on the simulated backend.
	if _, err := streambox.Run(p3, streambox.RunConfig{Duration: 0.01}); err != nil {
		t.Fatalf("simulated fallback failed: %v", err)
	}
}

// TestNativeBackendAggFamily covers the keyed-aggregation family on
// the native backend end to end.
func TestNativeBackendAggFamily(t *testing.T) {
	type c struct {
		name  string
		build func(streambox.Stream) *streambox.Captured
		want  uint64
	}
	cases := []c{
		{"sum", func(s streambox.Stream) *streambox.Captured { return s.SumPerKey(0, 1).Capture() }, 7 * 500},
		{"count", func(s streambox.Stream) *streambox.Captured { return s.CountPerKey(0).Capture() }, 500},
		{"avg", func(s streambox.Stream) *streambox.Captured { return s.AvgPerKey(0, 1).Capture() }, 7},
		{"median", func(s streambox.Stream) *streambox.Captured { return s.MedianPerKey(0, 1).Capture() }, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
			res := tc.build(p.Source(streambox.RoundRobinKV(8, 7), smallSource(2e6)).Window(2))
			if _, err := streambox.Run(p, streambox.RunConfig{Backend: streambox.Native, Duration: 0.01}); err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range res.Rows {
				if r.Val != tc.want {
					t.Fatalf("%s = %d, want %d", tc.name, r.Val, tc.want)
				}
			}
		})
	}
}
