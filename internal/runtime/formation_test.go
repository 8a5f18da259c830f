package runtime

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// hideWordOp builds the aggregator f builds behind a plain Agg that is
// not a WordFolder: formation then sorts every run, seals copy it
// verbatim, and closes fold through the per-pair path.
func hideWordOp(f kpa.AggFactory) kpa.AggFactory {
	return func() kpa.Agg { return struct{ kpa.Agg }{f()} }
}

// TestFormationFoldMatchesSort holds the runs a word aggregator folds at
// formation to the sorted runs the same aggregator forms with its word
// operation hidden, which its seals copy verbatim and its closes visit
// pair by pair: sum and count, on fixed windows and on
// sliding windows of overlap 8, on one worker and on four. Bundles of
// 300 rows cut panes of 1 250 records unevenly, so some straddle a pane
// edge; 61 keys span less than a bundle's rows, so runs fold, and the
// same keys spread 4 099 apart do not, so the two sides must then form
// the same runs. Three more key shapes make
// formation's try of the last dense range miss and hit in turn: the 61
// keys shifted by 10 000 every 3 000 records (each shift misses once,
// then hits), bundles that alternate the 61 keys with the spread ones
// (a spread bundle misses, is sorted and leaves the range as it was, so
// the next 61-key bundle hits), and every fourth bundle on the lower
// half of the 61 keys (it hits a range wider than its keys). Each
// stream runs plain, where a
// bundle inside one pane forms from its own columns, and with a filter
// and a row far behind the watermark in every bundle after the first,
// where every bundle is tagged and its pane's rows staged. Rows must be
// bit-identical, with the same ingested and late counts; the folded
// side must form fewer pairs, and with spread keys the same, and stream
// fewer pairs through seals and closes, since its seals write partial
// runs where the hidden side's copy — except with spread keys on fixed
// windows, where the hidden side seals nothing and the folded side
// streams exactly 61 pairs a window more. On the plain fixed-window
// stream the folded side must form exactly what the table rule gives
// each bundle×window group of rows — its distinct keys when their span
// is below its rows, else its rows —, so a range tried and missed
// changes no decision; and both counts must be the same on one worker
// as on four, where extract tasks try and replace the range
// concurrently.
func TestFormationFoldMatchesSort(t *testing.T) {
	const (
		nRecords = 40_000
		firstTs  = 3_000_000 // a window edge: the late rows at 0 precede every window
		spacing  = 100       // 10 000 records a window, 1 250 a pane of the sliding shape
		bundle   = 300
	)
	narrowKey := func(id uint64) uint64 { return id * 2654435761 % 61 }
	spreadKey := func(id uint64) uint64 { return narrowKey(id) * 4099 }
	shiftedKey := func(id uint64) uint64 { return narrowKey(id) + id/3000*10_000 }
	alternatingKey := func(id uint64) uint64 {
		if id/bundle%2 == 1 {
			return spreadKey(id)
		}
		return narrowKey(id)
	}
	halfKey := func(id uint64) uint64 {
		if id/bundle%4 == 3 {
			return narrowKey(id) % 31
		}
		return narrowKey(id)
	}
	// value spreads over the 64 bits, 0 and MaxUint64 included, so sums
	// wrap.
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
	// tableRulePairs is what the folded side forms of a plain stream on
	// fixed windows of size: each bundle's rows of one window are one
	// group, folded to its distinct keys when their span is below its
	// rows (all spans here are far below the table's), else sorted.
	tableRulePairs := func(stream [][][]uint64, size uint64) int64 {
		var formed int64
		for _, b := range stream {
			groups := map[uint64][]uint64{}
			for i, ts := range b[2] {
				groups[ts/size] = append(groups[ts/size], b[0][i])
			}
			for _, keys := range groups {
				distinct := map[uint64]bool{}
				for _, k := range keys {
					distinct[k] = true
				}
				if slices.Max(keys)-slices.Min(keys) < uint64(len(keys)) {
					formed += int64(len(distinct))
				} else {
					formed += int64(len(keys))
				}
			}
		}
		return formed
	}

	for _, win := range []wm.Windowing{wm.Fixed(1_000_000), wm.Sliding(1_000_000, 125_000)} {
		for _, agg := range []struct {
			name string
			new  kpa.AggFactory
		}{{"sum", ops.Sum()}, {"count", ops.Count()}} {
			for _, keys := range []struct {
				name  string
				keyOf func(uint64) uint64
				folds bool
			}{
				{"61 keys", narrowKey, true}, {"61 keys spread", spreadKey, false},
				// These make the try of the last dense range hit and miss.
				{"61 keys shifting", shiftedKey, true}, {"61 keys alternating with spread", alternatingKey, true},
				{"61 keys, half of them every fourth bundle", halfKey, true},
			} {
				for _, v := range []struct {
					name    string
					late    bool
					filters []Filter
				}{{"plain", false, nil}, {"filtered, late", true, dropSevens}} {
					var onOne captured
					for _, workers := range []int{1, 4} {
						id := fmt.Sprintf("size=%d slide=%d %s %s %s workers=%d", win.Size, win.Slide, agg.name, keys.name, v.name, workers)
						stream := batches(keys.keyOf, v.late)
						run := func(f kpa.AggFactory) captured {
							t.Helper()
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
						closePairsOK := folded.ClosePairs < sorted.ClosePairs
						if win.IsFixed() && !keys.folds {
							// The hidden side's copies never seal in a pane one window
							// reads; the folded side seals each of the 4 windows' first
							// group into one partial run of the 61 keys, which the close
							// reads again.
							closePairsOK = folded.ClosePairs == sorted.ClosePairs+4*61 && sorted.ClosePairs == sorted.FormedPairs
						}
						if !closePairsOK || keys.folds != (folded.FormedPairs < sorted.FormedPairs) ||
							!keys.folds && folded.FormedPairs != sorted.FormedPairs {
							t.Fatalf("%s: folded runs streamed %d pairs and formed %d, sorted runs %d and %d; folding at formation %v",
								id, folded.ClosePairs, folded.FormedPairs, sorted.ClosePairs, sorted.FormedPairs, keys.folds)
						}
						if want := tableRulePairs(stream, uint64(win.Size)); win.IsFixed() && !v.late && folded.FormedPairs != want {
							t.Fatalf("%s: folded runs formed %d pairs, the table rule %d", id, folded.FormedPairs, want)
						}
						if workers == 1 {
							onOne = folded
						} else if folded.FormedPairs != onOne.FormedPairs || folded.ClosePairs != onOne.ClosePairs {
							t.Fatalf("%s: folded runs formed %d pairs and streamed %d, on one worker %d and %d",
								id, folded.FormedPairs, folded.ClosePairs, onOne.FormedPairs, onOne.ClosePairs)
						}
					}
				}
			}
		}
	}
}
