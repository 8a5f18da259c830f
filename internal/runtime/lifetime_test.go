package runtime

import (
	"cmp"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// pooledFeed is a testFeed whose batches are the execution's pooled
// column slabs, like netio.Feed's: it takes them back through Recycle,
// counts the calls, and closes drained when the last batch it expects
// has come home.
type pooledFeed struct {
	*testFeed
	pool     *mempool.Pool
	expect   int64
	recycled atomic.Int64
	drained  chan struct{}
}

func (f *pooledFeed) Recycle(cols [][]uint64) {
	for _, c := range cols {
		f.pool.PutCol(memsim.DRAM, c)
	}
	if f.recycled.Add(1) == f.expect {
		close(f.drained)
	}
}

// TestBundleFreesAtExtract pins the lifetime a value-born run buys: its
// pairs hold the values, so nothing links the bundle once its extract
// task ends. A feed delivers fewer batches than one seal takes, all in
// one window, and no watermark ever reaches the window's end — no seal,
// no close, the state every record waits in at its longest — and still
// every batch is recycled, the pool's column-slab ledger is back at
// zero and no bundle is left registered, while the window sits open
// with every run filed. A pointer run kept its bundle, and the feed slab
// under it, until its group of 32 sealed or its window closed. The five
// keys lie perBatch apart, a span no batch's rows exceed, so no batch
// folds at formation: every run holds a pair per record.
func TestBundleFreesAtExtract(t *testing.T) {
	const batches, perBatch = mergeFanIn - 3, 500
	feed := &pooledFeed{testFeed: newTestFeed(batches), expect: batches, drained: make(chan struct{})}
	plan := Plan{
		Feed:   feed,
		Source: engine.SourceConfig{Name: "lifetime", WatermarkEvery: 1},
		Win:    wm.Fixed(1_000_000),
		TsCol:  2, KeyCol: 0, ValCol: 1,
		NewAgg: ops.Sum(),
		Label:  "lifetime",
	}
	var rows rowCollector
	e, err := Start(plan, rows.tap(Config{Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	pool := e.MemPool()
	feed.pool = pool
	for i := 0; i < batches; i++ {
		cols := make([][]uint64, 3)
		for c := range cols {
			cols[c] = pool.TakeCol(memsim.DRAM, perBatch)[:perBatch]
		}
		for r := 0; r < perBatch; r++ {
			// Every timestamp inside window 0, so the feed's own watermark
			// — applied after each batch — never seals it.
			cols[0][r], cols[1][r], cols[2][r] = uint64(r%5*perBatch), 1, uint64(i*perBatch+r)
		}
		feed.pushCols(cols)
	}
	select {
	case <-feed.drained:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d batches recycled with their window still open", feed.recycled.Load(), batches)
	}
	// The last Recycle runs inside the last bundle's final Release, after
	// its charge and its registry entry are gone.
	if out := pool.Snapshot().ColsOut; out != 0 {
		t.Fatalf("%d column slabs out of the pool after every batch was recycled", out)
	}
	if live := e.x.reg.Live(); live != 0 {
		t.Fatalf("%d bundles still registered", live)
	}
	if closed, seals := e.x.table.closedWindows(), e.x.m.sealedPanes.Load(); closed != 0 || seals != 0 {
		t.Fatalf("%d windows closed and %d groups sealed: the bundles were to free with neither", closed, seals)
	}
	state := e.x.m.liveState()
	if got, want := state[memsim.HBM]+state[memsim.DRAM], int64(batches*perBatch*memsim.PairBytes); got != want {
		t.Fatalf("%d B of runs filed, want %d: the window must hold every pair while its bundles are gone", got, want)
	}

	feed.Close()
	rep, err := e.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if feed.recycled.Load() != batches {
		t.Fatalf("%d Recycle calls for %d batches", feed.recycled.Load(), batches)
	}
	if rep.WindowsClosed != 1 || len(rows.rows) != 5 {
		t.Fatalf("%d windows closed with %d rows, want 1 and 5", rep.WindowsClosed, len(rows.rows))
	}
	for _, r := range rows.rows {
		if r.Val != batches*perBatch/5 {
			t.Fatalf("key %d: sum %d, want %d", r.Key, r.Val, batches*perBatch/5)
		}
	}
}

// TestOrderedFoldWithLateRows pins the order a key's values fold in now
// that runs carry values: (pane, bundle, row), whatever a record went
// through on the way. The aggregator is order-sensitive and, like
// partial_test.go's foldAgg, neither combines nor resets, so every seal
// is a verbatim merge and every key gets its own aggregator; a filter
// drops a fifth of the rows; every seventh batch is a straggler whose
// rows — out of time order, alternating between two panes — reach back
// behind the watermark, so some are late for every window, some only
// for the windows already sealed, and the runs they leave sit in panes
// the in-order batches filled long before. With 100 batches to a window
// a fixed window seals nothing — a verbatim copy never halves a pane one
// window reads —, windows of overlap 2 seal a group of 32 in every pane
// two of them read, and windows of overlap 4 seal at every claim. The
// reference knows none of that: it gives each row the
// windows that were open when its batch registered (the feed's watermark
// is the highest timestamp of the batches before it — decided on the
// ingest goroutine, so a function of the stream), orders each window's
// rows by (pane, batch, row) and folds. The same stream runs again on a
// machine small enough that runs are born in the spill arena and merged
// where they lie.
func TestOrderedFoldWithLateRows(t *testing.T) {
	const nBatches, perBatch, batchSpan = 450, 100, 10_000
	type row struct {
		rec
		batch, row int
		target     wm.Time // the watermark when the row's batch registered
	}
	var stream []row
	batches := make([][][]uint64, nBatches)
	var high wm.Time
	for b := range batches {
		cols := [][]uint64{make([]uint64, perBatch), make([]uint64, perBatch), make([]uint64, perBatch)}
		lo := uint64(b) * batchSpan
		target := high
		for r := 0; r < perBatch; r++ {
			ts := lo + uint64(r)*batchSpan/perBatch
			if b%7 == 6 {
				// Straggler: odd rows 300 000 behind the stream, even rows
				// 800 000 behind it.
				back := uint64(300_000 + 500_000*((r+1)%2))
				ts = max(ts, back) - back
			}
			cols[0][r], cols[1][r], cols[2][r] = uint64((b+3*r)%11), uint64(b*perBatch+r), ts
			stream = append(stream, row{rec{cols[0][r], cols[1][r], ts}, b, r, target})
			high = max(high, ts)
		}
		batches[b] = cols
	}
	keep := func(v uint64) bool { return v%5 != 0 }

	for _, win := range []wm.Windowing{wm.Fixed(1_000_000), wm.Sliding(1_000_000, 500_000), wm.Sliding(1_000_000, 250_000)} {
		// The reference: late rows out, filtered rows out, the rest folded
		// per window in (pane, batch, row) order.
		panes := win.Panes()
		perWindow := make(map[wm.Time][]row)
		var late int64
		for _, r := range stream {
			open := 0
			for _, w := range win.WindowsOf(r.ts) {
				if win.End(w) > r.target {
					open++
					if keep(r.val) {
						perWindow[w] = append(perWindow[w], r)
					}
				}
			}
			if open == 0 {
				late++
			}
		}
		want := make(map[wm.Time]map[uint64]uint64)
		for w, rows := range perWindow {
			slices.SortStableFunc(rows, func(a, b row) int {
				return cmp.Or(cmp.Compare(panes.Index(a.ts), panes.Index(b.ts)), cmp.Compare(a.batch, b.batch), cmp.Compare(a.row, b.row))
			})
			aggs := make(map[uint64]kpa.Agg)
			for _, r := range rows {
				if aggs[r.key] == nil {
					aggs[r.key] = orderSensitive()()
				}
				aggs[r.key].Add(r.val)
			}
			want[w] = make(map[uint64]uint64, len(aggs))
			for k, a := range aggs {
				want[w][k] = a.Result()
			}
		}
		if late == 0 || late == int64(nBatches/7*perBatch) {
			t.Fatalf("size=%d slide=%d: %d late rows: stragglers must be late for some windows only", win.Size, win.Slide, late)
		}

		for _, cfg := range []Config{
			{Workers: 4},
			{
				Workers:        4,
				Machine:        tinyMachine(64<<10, 128<<10),
				ReservedHBM:    32 << 10,
				SpillCapacity:  32 << 20,
				ExhaustTimeout: 2 * time.Second,
			},
		} {
			spill := cfg.SpillCapacity > 0
			feed := newTestFeed(nBatches)
			for _, cols := range batches {
				feed.pushCols(cols)
			}
			feed.Close()
			rep, err := runCaptured(Plan{
				Feed:    feed,
				Source:  engine.SourceConfig{Name: "ordered", WatermarkEvery: 1},
				Win:     win,
				Filters: []Filter{{Col: 1, Keep: keep}},
				TsCol:   2, KeyCol: 0, ValCol: 1,
				NewAgg: orderSensitive(),
				Label:  "ordered",
			}, cfg)
			if err != nil {
				t.Fatalf("size=%d slide=%d spill=%v: %v", win.Size, win.Slide, spill, err)
			}
			if rep.LateRecords != late {
				t.Fatalf("size=%d slide=%d spill=%v: %d late records, reference has %d", win.Size, win.Slide, spill, rep.LateRecords, late)
			}
			if (rep.SealedPanes > 0) == win.IsFixed() || (rep.SpilledRuns > 0) != spill {
				t.Fatalf("size=%d slide=%d spill=%v: %d seals, %d runs born in the arena: the property was not exercised",
					win.Size, win.Slide, spill, rep.SealedPanes, rep.SpilledRuns)
			}
			got := rowsByWindowKey(rep.Rows)
			if len(got) != len(want) {
				t.Fatalf("size=%d slide=%d spill=%v: rows for %d windows, reference has %d", win.Size, win.Slide, spill, len(got), len(want))
			}
			for w, wk := range want {
				if len(got[w]) != len(wk) {
					t.Fatalf("size=%d slide=%d spill=%v window %d: %d keys, reference has %d", win.Size, win.Slide, spill, w, len(got[w]), len(wk))
				}
				for k, v := range wk {
					if got[w][k] != v {
						t.Fatalf("size=%d slide=%d spill=%v window %d key %d: fold %x, reference %x — values dropped, duplicated or reordered",
							win.Size, win.Slide, spill, w, k, got[w][k], v)
					}
				}
			}
		}
	}
}
