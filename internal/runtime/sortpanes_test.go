package runtime

import (
	"fmt"
	"maps"
	"testing"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// TestSortPanesSinglePaneMatchesGeneral holds extraction's two ways of
// building a bundle's runs against each other. One in-order stream is
// fed four times: cut at every pane edge, so each bundle lies in one
// pane and is zipped straight into its run; re-cut half a bundle later,
// so bundles straddle pane edges and rows are tagged and scattered; cut
// as the first but behind a filter that keeps every row, which also
// sends a bundle the tagged way; and cut as the first with one row per
// bundle far behind the watermark, which does too and drops that row.
// All four must publish the same rows — under an order-sensitive fold as
// well, since (pane, bundle, row) is stream order however the stream is
// cut — count the same logical pairs, count late exactly the rows that
// were planted, and leave nothing allocated. The sliding shape has a
// remainder of 1, so every third pane is one time unit wide, and the
// stream puts a record on each. The stream is keyed two ways, so the
// single-pane run forms on both of its paths: 257 keys, which span 9
// bits and take the counting pass straight from the columns, and the
// same 257 hashed to 64 bits, which are zipped and radix-sorted.
func TestSortPanesSinglePaneMatchesGeneral(t *testing.T) {
	const (
		nRecords  = 40_000
		firstTs   = 6 * 333_333 // a slide edge of the sliding shape
		spacing   = 111         // divides 333_333: every 3003rd record sits on a slide edge
		maxBundle = 700
	)
	narrowKey := func(id uint64) uint64 { return id * 2654435761 % 257 }
	hashedKey := func(id uint64) uint64 {
		h := (narrowKey(id) + 1) * 0x9E3779B97F4A7C15
		return h ^ h>>29
	}
	// id is what the record's key is derived from.
	type rec3 struct{ id, val, ts uint64 }
	stream := make([]rec3, nRecords)
	for i := range stream {
		stream[i] = rec3{uint64(i), uint64(i + 1), firstTs + uint64(i)*spacing}
	}
	batch := func(recs []rec3, keyOf func(uint64) uint64) [][]uint64 {
		cols := [][]uint64{make([]uint64, len(recs)), make([]uint64, len(recs)), make([]uint64, len(recs))}
		for i, r := range recs {
			cols[0][i], cols[1][i], cols[2][i] = keyOf(r.id), r.val, r.ts
		}
		return cols
	}

	for _, win := range []wm.Windowing{wm.Fixed(1_000_000), wm.Sliding(1_000_000, 333_333)} {
		panes := win.Panes()
		// cuts[i] is where bundle i of the one-pane cutting ends.
		var cuts []int
		for i := 1; i <= nRecords; i++ {
			begin := 0
			if len(cuts) > 0 {
				begin = cuts[len(cuts)-1]
			}
			if i == nRecords || i-begin == maxBundle || panes.Index(stream[i].ts) != panes.Index(stream[i-1].ts) {
				cuts = append(cuts, i)
			}
		}
		onePane := func(late bool, keyOf func(uint64) uint64) [][][]uint64 {
			var out [][][]uint64
			begin := 0
			for bi, end := range cuts {
				recs := stream[begin:end:end]
				if late && bi > 0 {
					// Mid-bundle, so the rows after it are scattered past a gap.
					at := len(recs) / 2
					recs = append(append(append([]rec3(nil), recs[:at]...), rec3{id: 1, val: 1 << 40, ts: 0}), recs[at:]...)
				}
				out = append(out, batch(recs, keyOf))
				begin = end
			}
			return out
		}
		var straddling [][]rec3
		crossed := 0
		for begin, bi := 0, 0; begin < nRecords; bi++ {
			end := nRecords
			if bi+1 < len(cuts) {
				end = (cuts[bi] + cuts[bi+1]) / 2
			}
			if panes.Index(stream[begin].ts) != panes.Index(stream[end-1].ts) {
				crossed++
			}
			straddling = append(straddling, stream[begin:end])
			begin = end
		}
		if crossed < 4 {
			t.Fatalf("size=%d slide=%d: %d re-cut bundles cross a pane edge; the tagged path would go unexercised", win.Size, win.Slide, crossed)
		}

		for _, agg := range []struct {
			name  string
			new   kpa.AggFactory
			keyOf func(uint64) uint64
		}{
			{"sum", ops.Sum(), narrowKey}, {"ordered", orderSensitive(), narrowKey},
			{"sum hashed", ops.Sum(), hashedKey}, {"ordered hashed", orderSensitive(), hashedKey},
		} {
			type outcome struct {
				rows         map[wm.Time]map[uint64]uint64
				late, logic  int64
				windowsCount int
			}
			run := func(name string, batches [][][]uint64, filters []Filter) outcome {
				t.Helper()
				feed := newTestFeed(len(batches))
				for _, b := range batches {
					feed.pushCols(b)
				}
				feed.Close()
				var rows rowCollector
				e, err := Start(Plan{
					Feed:    feed,
					Source:  engine.SourceConfig{Name: "sortpanes", WatermarkEvery: 1},
					Win:     win,
					Filters: filters,
					TsCol:   2, KeyCol: 0, ValCol: 1,
					NewAgg: agg.new,
					Label:  name,
				}, rows.tap(Config{Workers: 2}))
				if err != nil {
					t.Fatal(err)
				}
				rep, err := e.Wait()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				snap := e.MemSnapshot()
				if snap.Allocs != snap.Frees || snap.Tiers[memsim.HBM].Used != 0 || snap.Tiers[memsim.DRAM].Used != 0 || e.MemPool().Stats().ColsOut != 0 {
					t.Fatalf("%s: pool not drained: %d allocs, %d frees, %d B HBM, %d B DRAM, %d column slabs out", name,
						snap.Allocs, snap.Frees, snap.Tiers[memsim.HBM].Used, snap.Tiers[memsim.DRAM].Used, e.MemPool().Stats().ColsOut)
				}
				return outcome{rowsByWindowKey(rows.rows), rep.LateRecords, rep.ExtractedPairs, rep.WindowsClosed}
			}
			id := func(variant string) string {
				return fmt.Sprintf("size=%d slide=%d %s %s", win.Size, win.Slide, agg.name, variant)
			}
			want := run(id("one-pane"), onePane(false, agg.keyOf), nil)
			if want.late != 0 || want.windowsCount < 5 || want.logic < nRecords {
				t.Fatalf("%s: %d late, %d windows, %d logical pairs: not the run the variants are held against",
					id("one-pane"), want.late, want.windowsCount, want.logic)
			}
			var straddled [][][]uint64
			for _, recs := range straddling {
				straddled = append(straddled, batch(recs, agg.keyOf))
			}
			for _, v := range []struct {
				name    string
				batches [][][]uint64
				filters []Filter
				late    int64
			}{
				{"straddling", straddled, nil, 0},
				{"filtered", onePane(false, agg.keyOf), []Filter{{Col: 1, Keep: func(uint64) bool { return true }}}, 0},
				{"late-row", onePane(true, agg.keyOf), nil, int64(len(cuts) - 1)},
			} {
				got := run(id(v.name), v.batches, v.filters)
				if got.late != v.late || got.logic != want.logic {
					t.Fatalf("%s: %d late and %d logical pairs, want %d and %d", id(v.name), got.late, got.logic, v.late, want.logic)
				}
				if !maps.EqualFunc(got.rows, want.rows, func(a, b map[uint64]uint64) bool { return maps.Equal(a, b) }) {
					t.Fatalf("%s: window rows differ from the one-pane run's (%d windows against %d)", id(v.name), len(got.rows), len(want.rows))
				}
			}
		}
	}
}
