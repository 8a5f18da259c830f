package runtime

import (
	"math/rand"
	"testing"

	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// orderAgg is an order-sensitive aggregator: its result is a fold hash
// of the values in visit order, so any reordering of equal-key pairs
// changes the output. It pins that a window's close visits every key's
// values in arrival order, whatever panes and runs they came through.
type orderAgg struct{ h uint64 }

func (a *orderAgg) Add(v uint64) { a.h = a.h*1099511628211 + v + 1 }
func (a *orderAgg) Result() uint64 {
	if a.h == 0 {
		return 0
	}
	return a.h
}

func orderSensitive() kpa.AggFactory { return func() kpa.Agg { return &orderAgg{} } }

// skewedGen is a deterministic generator with heavily skewed keys (the
// minimum of two uniform draws) and timestamps that are non-decreasing
// within a bundle — the arrival order real ingestion produces, and the
// property under which a close's (bundle, pane, row) visit order is
// arrival order. With hash set, each key is then hashed to 64 bits.
type skewedGen struct {
	keys   uint64
	hash   bool
	rng    *rand.Rand
	schema bundle.Schema
}

func newSkewedGen(keys uint64, seed int64) *skewedGen {
	return &skewedGen{
		keys:   keys,
		rng:    rand.New(rand.NewSource(seed)),
		schema: bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}},
	}
}

func (g *skewedGen) Schema() bundle.Schema { return g.schema }

func (g *skewedGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	span := tsHi - tsLo
	for i := 0; i < n; i++ {
		ts := tsLo + wm.Time(i)*span/wm.Time(n)
		a, b := g.rng.Uint64()%g.keys, g.rng.Uint64()%g.keys
		key := a
		if b < a {
			key = b // skew: low keys are hot
		}
		if g.hash {
			key = (key + 1) * 0x9E3779B97F4A7C15
			key ^= key >> 29
		}
		bd.Append(key, g.rng.Uint64()%1000, ts)
	}
}

// rec is one ingested record as the reference sees it.
type rec struct{ key, val, ts uint64 }

// recordingGen wraps a generator and keeps every record it produced, in
// arrival order, for the reference to fold.
type recordingGen struct {
	inner engine.Generator
	recs  []rec
}

func (g *recordingGen) Schema() bundle.Schema { return g.inner.Schema() }

func (g *recordingGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	tmp, err := bundle.NewBuilder(0, g.Schema(), n, memsim.DRAM)
	if err != nil {
		panic(err)
	}
	g.inner.Fill(tmp, n, tsLo, tsHi)
	b := tmp.Seal()
	for i := 0; i < b.Rows(); i++ {
		g.recs = append(g.recs, rec{b.At(i, 0), b.At(i, 1), b.At(i, 2)})
	}
	if err := bd.AppendColumnar(b.Col(0), b.Col(1), b.Col(2)); err != nil {
		panic(err)
	}
}

// reference is the single-threaded oracle: it folds each record, in
// arrival order, into every window containing it (wm.WindowsOf steps
// through them one by one) and counts the (record, window)
// assignments. No panes, no runs, no merge.
func reference(win wm.Windowing, newAgg kpa.AggFactory, recs []rec) (map[wm.Time]map[uint64]uint64, int64) {
	aggs := make(map[wm.Time]map[uint64]kpa.Agg)
	var pairs int64
	for _, r := range recs {
		for _, w := range win.WindowsOf(r.ts) {
			if aggs[w] == nil {
				aggs[w] = make(map[uint64]kpa.Agg)
			}
			if aggs[w][r.key] == nil {
				aggs[w][r.key] = newAgg()
			}
			aggs[w][r.key].Add(r.val)
			pairs++
		}
	}
	out := make(map[wm.Time]map[uint64]uint64, len(aggs))
	for w, keys := range aggs {
		out[w] = make(map[uint64]uint64, len(keys))
		for k, a := range keys {
			out[w][k] = a.Result()
		}
	}
	return out, pairs
}

// paneTestPlan builds a plan over the skewed stream with an
// order-sensitive aggregator.
func paneTestPlan(win wm.Windowing, seed int64) Plan {
	plan := testPlan(newSkewedGen(13, seed), 24_000)
	plan.Win = win
	plan.NewAgg = orderSensitive()
	plan.Label = "panes"
	return plan
}

// runAgainstReference runs the plan on four workers with its generator
// recorded and requires the captured rows to equal the reference bit
// for bit — same windows, same keys, same fold hashes — and the logical
// pair count to equal the reference's assignments.
func runAgainstReference(t *testing.T, plan Plan) Report {
	t.Helper()
	return runAgainstReferenceOn(t, plan, 4)
}

func runAgainstReferenceOn(t *testing.T, plan Plan, workers int) Report {
	t.Helper()
	gen := &recordingGen{inner: plan.Gen}
	plan.Gen = gen
	win := plan.Win
	rep, err := runCaptured(plan, Config{Workers: workers})
	if err != nil {
		t.Fatalf("size=%d slide=%d: %v", win.Size, win.Slide, err)
	}
	if rep.IngestedRecords != int64(len(gen.recs)) || rep.LateRecords != 0 {
		t.Fatalf("size=%d slide=%d: ingested %d of %d generated, %d late",
			win.Size, win.Slide, rep.IngestedRecords, len(gen.recs), rep.LateRecords)
	}
	want, pairs := reference(win, plan.NewAgg, gen.recs)
	got := rowsByWindowKey(rep.Rows)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("size=%d slide=%d: closed %d windows, reference has %d", win.Size, win.Slide, len(got), len(want))
	}
	for w, wk := range want {
		gk, ok := got[w]
		if !ok || len(gk) != len(wk) {
			t.Fatalf("size=%d slide=%d window %d: %d keys, reference has %d (present=%v)",
				win.Size, win.Slide, w, len(gk), len(wk), ok)
		}
		for k, v := range wk {
			if gk[k] != v {
				t.Fatalf("size=%d slide=%d window %d key %d: fold %x, reference %x — pairs dropped, duplicated or reordered",
					win.Size, win.Slide, w, k, gk[k], v)
			}
		}
	}
	if rep.ExtractedPairs != pairs {
		t.Fatalf("size=%d slide=%d: %d logical pairs, reference assigns %d",
			win.Size, win.Slide, rep.ExtractedPairs, pairs)
	}
	return rep.Report
}

// paneShapes are the window geometries of the equivalence properties.
var paneShapes = []wm.Windowing{
	wm.Sliding(1_000_000, 1_000_000), // overlap 1: a fixed window
	wm.Sliding(1_000_000, 500_000),   // overlap 2
	wm.Sliding(1_000_000, 250_000),   // overlap 4
	wm.Sliding(700_000, 100_000),     // overlap 7
	wm.Sliding(1_000_000, 62_500),    // overlap 16
	wm.Sliding(700_000, 200_000),     // non-divisible: panes of 100_000
	wm.Sliding(1_000_000, 333_333),   // near-coprime: panes of 1 and 333_332
	wm.Fixed(500_000),
}

// wordFolders are the aggregators whose panes seal into partial runs.
var wordFolders = map[string]kpa.AggFactory{"sum": ops.Sum(), "count": ops.Count()}

// TestPaneMatchesReference is the extract/close equivalence property:
// across overlap factors 1, 2, 4, 7 and 16, a non-divisible and a
// near-coprime size/slide (paired panes of unequal width) and fixed
// windows, with skewed keys and an order-sensitive aggregator, the one
// pane path must reproduce the reference bit for bit — through the
// verbatim seal of every pane a later window reads again, which must
// not reorder a key's values. Run under -race in CI.
func TestPaneMatchesReference(t *testing.T) {
	for _, win := range paneShapes {
		rep := runAgainstReference(t, paneTestPlan(win, 42))
		if overlaps := win.Slide > 0 && win.Slide < win.Size; (rep.SealedPanes > 0) != overlaps {
			t.Fatalf("size=%d slide=%d: %d panes sealed", win.Size, win.Slide, rep.SealedPanes)
		}
		switch {
		case win.IsFixed():
			if rep.PaneRuns != 0 || rep.SharedRunRefs != 0 {
				t.Fatalf("size=%d: fixed windows report pane sharing (%d runs, %d refs)",
					win.Size, rep.PaneRuns, rep.SharedRunRefs)
			}
		case rep.PaneRuns == 0:
			t.Fatalf("size=%d slide=%d: no pane runs reported", win.Size, win.Slide)
		case rep.SharedRunRefs == 0:
			t.Fatalf("size=%d slide=%d: overlapping windows took no shared references", win.Size, win.Slide)
		}
	}
}

// TestPaneSealMatchesReference is the same property for the word
// folders, whose closes seal each pane once into a partial run and
// merge partials: every shape must still reproduce the reference, which
// knows no panes and no partials. Count is the aggregator that fails if
// a partial is ever Added as if it were one record. With four bundles to
// a window no group fills, so panes seal exactly when windows overlap.
func TestPaneSealMatchesReference(t *testing.T) {
	for name, agg := range wordFolders {
		for _, win := range paneShapes {
			plan := paneTestPlan(win, 42)
			plan.NewAgg, plan.Label = agg, name
			rep := runAgainstReference(t, plan)
			if overlaps := win.Slide > 0 && win.Slide < win.Size; (rep.SealedPanes > 0) != overlaps {
				t.Fatalf("%s size=%d slide=%d: %d panes sealed", name, win.Size, win.Slide, rep.SealedPanes)
			}
		}
	}
}

// TestPaneSealStreamsRecordsOnce checks what sealing is for, at overlap
// 8 with 1 024 keys: window close streams each record through a merge
// visitor about once — its pane's seal — plus the per-key partials of
// 8 panes per window, where merging raw runs streams every record 8
// times (16 past the fan-in cap); and raw runs free a slide after their
// pane completes, so live state stays below one pair per record.
//
// That last bound does not lean on the schedule the way
// TestPaneStateSharing's old one did: ingest stalls once 8 tasks per
// worker are queued, so the raw runs alive are at most a window, the
// slide being sealed and the 36 bundles queued or running — 630 000 of
// the 800 000 records — and a seal in flight adds a partial of at most
// 1 024 keys. Beside two CPU hogs the peak reads 6.4–9.1 MB of the
// 12.8 MB bound.
func TestPaneSealStreamsRecordsOnce(t *testing.T) {
	plan := testPlan(newSkewedGen(1024, 5), 800_000)
	plan.Win = wm.Sliding(1_000_000, 125_000)
	plan.Source.BundleRecords = 5_000
	plan.Source.WindowRecords = 400_000
	plan.Source.WatermarkEvery = 10 // one slide
	plan.NewAgg, plan.Label = ops.Count(), "count"
	rep := runAgainstReference(t, plan)
	if rep.SealedPanes == 0 {
		t.Fatal("no pane sealed at overlap 8")
	}
	if limit := rep.IngestedRecords * 5 / 4; rep.ClosePairs > limit {
		t.Fatalf("close streamed %d pairs for %d records, want at most %d",
			rep.ClosePairs, rep.IngestedRecords, limit)
	}
	if bound := memsim.PairBytes * rep.IngestedRecords; rep.PeakWindowStateTotalBytes >= bound {
		t.Fatalf("peak state %d B is not below one pair per record (%d B)",
			rep.PeakWindowStateTotalBytes, bound)
	}
}

// TestPaneStateSharing checks the observable effect the panes exist
// for, as an absolute bound: at overlap 8 every record is staged and
// sorted once, so the runs at rest never exceed one pair per ingested
// record — scattering records into each of their 8 windows would pass
// that bound as soon as an eighth of the stream were in flight — while
// the logical (record, window) assignments still count every covering
// window.
//
// The bound holds on any schedule, which on this stream matters: it is
// 24 bundles, so a loaded machine can have every one of them filed
// before the first window closes, the runs at rest at exactly one pair
// per record. What may sit on top is seals in flight: a seal's output
// is window state from the moment it is written until the task has let
// go of the runs it merged, and it merges runs of one pane, so each of
// the workers adds at most one pane's pairs. (8-fold replication would
// read ~3 MB against this bound's 416 000 B.)
func TestPaneStateSharing(t *testing.T) {
	const workers = 4
	win := wm.Sliding(1_000_000, 125_000) // overlap 8
	plan := paneTestPlan(win, 7)
	rep := runAgainstReferenceOn(t, plan, workers)
	peak := rep.PeakWindowStateTotalBytes
	if peak == 0 {
		t.Fatal("missing state accounting")
	}
	if rep.PeakWindowStateBytes[0]+rep.PeakWindowStateBytes[1] < peak {
		t.Fatal("per-tier peaks cannot sum below the combined peak")
	}
	paneRecords := int64(plan.Source.WindowRecords) * int64(win.Slide) / int64(win.Size)
	if bound := memsim.PairBytes * (rep.IngestedRecords + workers*paneRecords); peak > bound {
		t.Fatalf("peak state %d B exceeds one pair per record plus one pane per worker sealing (%d B): records were replicated per window", peak, bound)
	}
	if rep.ExtractedPairs < 7*rep.IngestedRecords {
		t.Fatalf("%d logical pairs for %d records at overlap 8", rep.ExtractedPairs, rep.IngestedRecords)
	}
	if rep.SharedRunRefs < rep.PaneRuns {
		t.Fatalf("at overlap 8 every interior pane run is shared: %d refs for %d runs",
			rep.SharedRunRefs, rep.PaneRuns)
	}
}

// TestPaneFanInClose gives panes and windows more runs than one seal
// takes, with an order-sensitive aggregator against the oracle: tiny
// bundles at overlap 8 (40 runs a window, 5 a pane: every pane seals
// once, at its first window's claim, and a window merges 8 sealed runs
// where it used to compact 40); at overlap 2 with 40 bundles a pane, so
// a group fills and seals while a pane two windows read does, without
// reordering a key's values whichever task finishes first, and the claim
// seals the 8 runs left over — the first pane, which one window reads,
// seals nothing, since a verbatim copy never halves its pairs; and fixed
// windows of 80 runs on 2 and on 8 workers, whose two groups stay raw
// for the same reason. A sum over keys hashed to 64 bits is bounded by
// its runs' distinct keys, nearly one a pair: a fixed window's 3 groups
// all stay raw. The seal, skip and pair counts are functions of the
// stream: they repeat exactly.
//
// With an aggregator that combines, at overlap 40 and one bundle per
// pane, every window merges more partial runs than a group holds in one
// pass.
func TestPaneFanInClose(t *testing.T) {
	plan := testPlan(newSkewedGen(5, 3), 12_000)
	plan.Win = wm.Sliding(1_000_000, 125_000)
	plan.NewAgg = orderSensitive()
	plan.Source.BundleRecords = 100 // 40 bundles per window of records
	plan.Source.WatermarkEvery = 40
	rep := runAgainstReference(t, plan)
	// 24 panes of 500 records, all but the last read again: each record
	// streams through its pane's seal once and through 8 windows' merges
	// (fewer at the start of the stream).
	if rep.SealedPanes != 23 || rep.ClosePairs > 9*rep.IngestedRecords {
		t.Fatalf("overlap 8: %d panes sealed, %d pairs streamed for %d records; want 23 and at most 9 per record",
			rep.SealedPanes, rep.ClosePairs, rep.IngestedRecords)
	}
	if again := runAgainstReference(t, plan); again.SealedPanes != rep.SealedPanes || again.ClosePairs != rep.ClosePairs {
		t.Fatalf("overlap 8 repeated: %d seals %d pairs, then %d and %d",
			rep.SealedPanes, rep.ClosePairs, again.SealedPanes, again.ClosePairs)
	}

	// Twice the records per window: 80 bundles of 100 (runs of 64 pairs
	// or fewer sort unstably and have no row order to keep).
	plan.TotalRecords, plan.Source.WindowRecords = 24_000, 8_000
	plan.Win = wm.Sliding(1_000_000, 500_000) // 40 bundles a pane
	plan.Source.WatermarkEvery = 80
	// 6 panes: one group of 32 each in the 5 that two windows read, and
	// the 8 runs left over sealed at the claim of every pane but the
	// last.
	if rep := runAgainstReference(t, plan); rep.SealedPanes != 5+5 {
		t.Fatalf("overlap 2: %d panes sealed, want 10", rep.SealedPanes)
	}

	plan.Win = wm.Fixed(1_000_000) // 80 runs a window: two groups and 16 left over
	// Each run draws the same stream from a generator of its own.
	fixed := func(what string, plan Plan, hash bool, seals, skips int64) {
		t.Helper()
		run := func(workers int) Report {
			gen := newSkewedGen(5, 3)
			if hash {
				gen = newSkewedGen(1<<20, 3)
				gen.hash = true
			}
			plan.Gen = gen
			return runAgainstReferenceOn(t, plan, workers)
		}
		two, eight := run(2), run(8)
		if two.SealedPanes != seals || two.SealsSkipped != skips ||
			eight.SealedPanes != two.SealedPanes || eight.SealsSkipped != two.SealsSkipped || eight.ClosePairs != two.ClosePairs {
			t.Fatalf("%s: %d seals %d skipped %d pairs on 2 workers, %d, %d and %d on 8; want %d seals and %d skipped both times",
				what, two.SealedPanes, two.SealsSkipped, two.ClosePairs,
				eight.SealedPanes, eight.SealsSkipped, eight.ClosePairs, seals, skips)
		}
	}
	fixed("fixed", plan, false, 0, 3*2)

	hashed := plan
	hashed.NewAgg, hashed.Label = ops.Sum(), "sum"
	// 120 runs a window: three groups and 24 left over.
	hashed.TotalRecords, hashed.Source.WindowRecords, hashed.Source.WatermarkEvery = 36_000, 12_000, 120
	fixed("fixed hashed sum", hashed, true, 0, 3*3)

	plan.TotalRecords, plan.Source.WindowRecords = 12_000, 4_000
	plan.Source.WatermarkEvery = 40
	for name, agg := range map[string]kpa.AggFactory{"sum": ops.Sum(), "count": ops.Count()} {
		plan.Win = wm.Sliding(1_000_000, 25_000)
		plan.NewAgg, plan.Label = agg, name
		if rep := runAgainstReference(t, plan); rep.SealedPanes == 0 {
			t.Fatalf("%s: no pane sealed at overlap 40", name)
		}
	}
}
