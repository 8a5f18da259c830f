package runtime

import (
	"fmt"
	"maps"
	"testing"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// hideWordOp builds the aggregator f builds behind a Combiner that is
// not a WordFolder: formation then sorts every run, and seals and closes
// fold through the per-pair path.
func hideWordOp(f kpa.AggFactory) kpa.AggFactory {
	return func() kpa.Agg { return struct{ kpa.Combiner }{f().(kpa.Combiner)} }
}

// TestFormationFoldMatchesSort holds the runs a word aggregator folds at
// formation to the sorted runs the same aggregator forms with its word
// operation hidden: sum, count, min and max, on fixed windows and on
// sliding windows of overlap 8, on one worker and on four. Bundles of
// 300 rows cut panes of 1 250 records unevenly, so some straddle a pane
// edge; 61 keys span less than a bundle's rows, so runs fold, and the
// same keys spread 4 099 apart do not, so the two sides must then form
// the same runs. Each stream runs plain, where a bundle inside one pane
// forms from its own columns, and with a filter and a row far behind
// the watermark in every bundle after the first, where every bundle is
// tagged and its pane's rows staged. Rows must be bit-identical, with
// the same ingested and late counts; the folded side must stream fewer
// pairs through seals and closes and form fewer pairs, and with spread
// keys the same.
func TestFormationFoldMatchesSort(t *testing.T) {
	const (
		nRecords = 40_000
		firstTs  = 3_000_000 // a window edge: the late rows at 0 precede every window
		spacing  = 100       // 10 000 records a window, 1 250 a pane of the sliding shape
		bundle   = 300
	)
	narrowKey := func(id uint64) uint64 { return id * 2654435761 % 61 }
	spreadKey := func(id uint64) uint64 { return narrowKey(id) * 4099 }
	// value spreads over the 64 bits, 0 and MaxUint64 included, so sums
	// wrap and a minimum or maximum sits at either end.
	value := func(id uint64) uint64 {
		switch id % 13 {
		case 0:
			return 0
		case 1:
			return ^uint64(0)
		}
		h := (id + 1) * 0x9E3779B97F4A7C15
		return (h ^ h>>31) >> (id % 40)
	}
	batches := func(keyOf func(uint64) uint64, late bool) [][][]uint64 {
		var out [][][]uint64
		for begin := 0; begin < nRecords; begin += bundle {
			end := min(begin+bundle, nRecords)
			cols := [][]uint64{nil, nil, nil}
			for i := begin; i < end; i++ {
				if late && begin > 0 && i == (begin+end)/2 {
					cols[0] = append(cols[0], keyOf(uint64(i)))
					cols[1] = append(cols[1], value(uint64(i)))
					cols[2] = append(cols[2], 0)
				}
				id := uint64(i)
				cols[0] = append(cols[0], keyOf(id))
				cols[1] = append(cols[1], value(id))
				cols[2] = append(cols[2], firstTs+id*spacing)
			}
			out = append(out, cols)
		}
		return out
	}
	dropSevens := []Filter{{Col: 1, Keep: func(v uint64) bool { return v%7 != 0 }}}

	for _, win := range []wm.Windowing{wm.Fixed(1_000_000), wm.Sliding(1_000_000, 125_000)} {
		for _, agg := range []struct {
			name string
			new  kpa.AggFactory
		}{{"sum", ops.Sum()}, {"count", ops.Count()}, {"min", ops.Min()}, {"max", ops.Max()}} {
			for _, keys := range []struct {
				name  string
				keyOf func(uint64) uint64
				folds bool
			}{{"61 keys", narrowKey, true}, {"61 keys spread", spreadKey, false}} {
				for _, v := range []struct {
					name    string
					late    bool
					filters []Filter
				}{{"plain", false, nil}, {"filtered, late", true, dropSevens}} {
					for _, workers := range []int{1, 4} {
						id := fmt.Sprintf("size=%d slide=%d %s %s %s workers=%d", win.Size, win.Slide, agg.name, keys.name, v.name, workers)
						run := func(f kpa.AggFactory) captured {
							t.Helper()
							stream := batches(keys.keyOf, v.late)
							feed := newTestFeed(len(stream))
							for _, b := range stream {
								feed.pushCols(b)
							}
							feed.Close()
							c, err := runCaptured(Plan{
								Feed:    feed,
								Source:  engine.SourceConfig{Name: "formation", WatermarkEvery: 1},
								Win:     win,
								Filters: v.filters,
								TsCol:   2, KeyCol: 0, ValCol: 1,
								NewAgg: f,
								Label:  agg.name,
							}, Config{Workers: workers})
							if err != nil {
								t.Fatalf("%s: %v", id, err)
							}
							return c
						}
						folded, sorted := run(agg.new), run(hideWordOp(agg.new))
						if folded.IngestedRecords != sorted.IngestedRecords || folded.LateRecords != sorted.LateRecords {
							t.Fatalf("%s: %d ingested and %d late folded, %d and %d sorted", id,
								folded.IngestedRecords, folded.LateRecords, sorted.IngestedRecords, sorted.LateRecords)
						}
						if nBundles := (nRecords + bundle - 1) / bundle; v.late && folded.LateRecords != int64(nBundles-1) {
							t.Fatalf("%s: %d late rows, want %d", id, folded.LateRecords, nBundles-1)
						}
						got, want := rowsByWindowKey(folded.Rows), rowsByWindowKey(sorted.Rows)
						if len(want) < 4 || !maps.EqualFunc(got, want, func(a, b map[uint64]uint64) bool { return maps.Equal(a, b) }) {
							t.Fatalf("%s: folded runs published %d windows, sorted runs %d, and they differ", id, len(got), len(want))
						}
						if keys.folds != (folded.ClosePairs < sorted.ClosePairs) || keys.folds != (folded.FormedPairs < sorted.FormedPairs) ||
							!keys.folds && (folded.ClosePairs != sorted.ClosePairs || folded.FormedPairs != sorted.FormedPairs) {
							t.Fatalf("%s: folded runs streamed %d pairs and formed %d, sorted runs %d and %d; folding at formation %v",
								id, folded.ClosePairs, folded.FormedPairs, sorted.ClosePairs, sorted.FormedPairs, keys.folds)
						}
					}
				}
			}
		}
	}
}
