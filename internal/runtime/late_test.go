package runtime

import (
	"sync"
	"testing"

	"streambox/internal/engine"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// batchAt builds one feed batch: key 1, value 1, the given timestamps.
func batchAt(ts ...uint64) [][]uint64 {
	cols := [][]uint64{make([]uint64, len(ts)), make([]uint64, len(ts)), ts}
	for i := range ts {
		cols[0][i], cols[1][i] = 1, 1
	}
	return cols
}

// span returns n timestamps spread evenly over [lo, hi).
func span(lo, hi uint64, n int) []uint64 {
	ts := make([]uint64, n)
	for i := range ts {
		ts[i] = lo + uint64(i)*(hi-lo)/uint64(n)
	}
	return ts
}

// TestLateBatchDoesNotReopenSealedWindow is the regression for late
// data re-opening a sealed window: a batch whose timestamps regress
// behind the watermark used to recreate the retired window entry, so
// the window published a second, partial result and released its pane
// references twice. The policy is decided on the ingest goroutine —
// the watermark applied after batch 2 seals window 0 before batch 3
// registers — so the test needs no waits. Fixed windows drop the whole
// late batch; sliding windows drop only the records with no open
// covering window and fold the rest into the windows still open.
func TestLateBatchDoesNotReopenSealedWindow(t *testing.T) {
	cases := []struct {
		name    string
		win     wm.Windowing
		batches [][][]uint64
		late    int64
		want    map[wm.Time]uint64 // window start -> sum for key 1
	}{
		{
			name: "fixed",
			win:  wm.Fixed(1_000_000),
			batches: [][][]uint64{
				batchAt(span(0, 1_000_000, 100)...),
				batchAt(span(2_000_000, 2_100_000, 10)...), // watermark passes window 0
				batchAt(span(0, 1_000_000, 50)...),         // late for window 0
			},
			late: 50,
			want: map[wm.Time]uint64{0: 100, 2_000_000: 10},
		},
		{
			name: "sliding",
			win:  wm.Sliding(1_000_000, 500_000),
			batches: [][][]uint64{
				batchAt(span(600_000, 900_000, 100)...),     // windows 0 and 500k
				batchAt(span(1_000_000, 1_200_000, 10)...),  // seals window 0; 500k stays open
				batchAt(100_000, 400_000, 700_000, 800_000), // two with no open window, two for 500k
			},
			late: 2,
			want: map[wm.Time]uint64{0: 100, 500_000: 112, 1_000_000: 10},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			feed := newTestFeed(len(c.batches))
			var mu sync.Mutex
			published := make(map[wm.Time]int)
			plan := Plan{
				Feed:   feed,
				Source: engine.SourceConfig{Name: "late", WatermarkEvery: 1},
				Win:    c.win,
				TsCol:  2, KeyCol: 0, ValCol: 1,
				NewAgg: ops.Sum(),
				Label:  "sum",
			}
			e, err := Start(plan, Config{Workers: 2, Capture: true, WindowSink: func(start, _ wm.Time, _ []Row) {
				mu.Lock()
				published[start]++
				mu.Unlock()
			}})
			if err != nil {
				t.Fatal(err)
			}
			var sent int64
			for _, b := range c.batches {
				sent += int64(len(b[0]))
				feed.pushCols(b)
			}
			feed.Close()
			rep, err := e.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.IngestedRecords != sent || rep.LateRecords != c.late || e.LateRecords() != c.late {
				t.Fatalf("ingested %d of %d, late %d, want %d late", rep.IngestedRecords, sent, rep.LateRecords, c.late)
			}
			for w, n := range published {
				if n != 1 {
					t.Fatalf("window %d published %d times", w, n)
				}
			}
			got := rowsByWindowKey(rep.Rows)
			if len(got) != len(c.want) || len(published) != len(c.want) || rep.WindowsClosed != len(c.want) {
				t.Fatalf("rows for %d windows, %d published, %d closed, want %d", len(got), len(published), rep.WindowsClosed, len(c.want))
			}
			for w, sum := range c.want {
				if got[w][1] != sum {
					t.Fatalf("window %d: sum %d, want %d", w, got[w][1], sum)
				}
			}
			// Balanced frees: every run reference was released exactly once.
			snap := e.MemSnapshot()
			if snap.Allocs != snap.Frees || snap.Tiers[memsim.HBM].Used != 0 || snap.Tiers[memsim.DRAM].Used != 0 {
				t.Fatalf("pool not drained: %d allocs, %d frees, %d B HBM, %d B DRAM in use",
					snap.Allocs, snap.Frees, snap.Tiers[memsim.HBM].Used, snap.Tiers[memsim.DRAM].Used)
			}
			if live := e.WindowStateBytes(); live != [memsim.NumTiers]int64{} {
				t.Fatalf("window state still accounted after the run: %v", live)
			}
		})
	}
}

// TestWindowTableSealing drives the registry directly: a sealed window
// admits nothing more, its close starts exactly once, a run filed for
// later windows stays invisible to a sealed window that has not
// collected yet, and the sealed watermark only moves forward.
func TestWindowTableSealing(t *testing.T) {
	tab := newWindowTable(wm.Sliding(100, 50))
	sealed := tab.sealedWatermark()
	check := func(when string) {
		t.Helper()
		if w := tab.sealedWatermark(); w < sealed {
			t.Fatalf("%s: sealed watermark fell %d -> %d", when, sealed, w)
		} else {
			sealed = w
		}
	}

	a := tab.register(60, 90) // windows 0 and 50
	if len(a) != 2 || a[0] != 0 || a[1] != 50 {
		t.Fatalf("registered %v, want [0 50]", a)
	}
	if got := tab.advance(100); len(got) != 0 {
		t.Fatalf("window 0 closed with an extraction pending: %v", got)
	}
	check("advance")

	// Window 0 is sealed but has not collected: a later bundle on the
	// same pane registers with window 50 only.
	b := tab.register(60, 90)
	if len(b) != 1 || b[0] != 50 {
		t.Fatalf("late registration got %v, want [50]", b)
	}
	from, open := tab.openCovering(50, b[0])
	if from != 50 || open != 1 {
		t.Fatalf("open covering of pane 50: from %d count %d, want 50 and 1", from, open)
	}
	if got := tab.fileRuns(b, []filedRun{{paneRun{nil, from}, 50}}); len(got) != 0 {
		t.Fatalf("close started early: %v", got)
	}
	if got := tab.register(0, 40); got != nil {
		t.Fatalf("fully late bundle registered %v", got)
	}
	if got := tab.fileRuns(a, []filedRun{{paneRun{nil, 0}, 50}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("last extraction must start window 0's close once: %v", got)
	}
	if got := tab.collect(0); len(got) != 1 {
		t.Fatalf("window 0 collected %d runs, want the 1 filed for it", len(got))
	}
	if got := tab.advance(100); len(got) != 0 {
		t.Fatalf("repeated watermark restarted a close: %v", got)
	}
	tab.retire(0)
	check("retire")
	tab.published(0)
	check("published")

	if got := tab.advance(150); len(got) != 1 || got[0] != 50 {
		t.Fatalf("window 50 should close at once: %v", got)
	}
	check("advance 150")
	if got := tab.collect(50); len(got) != 2 {
		t.Fatalf("window 50 collected %d runs, want both", len(got))
	}
	tab.retire(50)
	tab.published(50)
	check("drained")
	if sealed != 150 || tab.closedWindows() != 2 || len(tab.entries) != 0 || len(tab.windows) != 0 {
		t.Fatalf("sealed %d, closed %d, %d pane entries and %d windows left",
			sealed, tab.closedWindows(), len(tab.entries), len(tab.windows))
	}
}
