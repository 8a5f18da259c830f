package kpa

import (
	"fmt"
	"unsafe"

	"streambox/internal/algo"
	"streambox/internal/bundle"
)

// Fused range-partitioned k-way merge-reduce (paper §4.3, "Parallel
// Full KPA Merge"): a closing window's sorted runs are partitioned once
// across the key space (MergeCuts), and each partition streams through
// one merge that folds the keyed aggregation inline (MergeReduceRange,
// MergeReduceRows). When the aggregator has a word operation
// (WordFolder: sum, count, min, max) it folds without a call per pair:
// in a table indexed by key when the partition's keys span fewer slots
// than it has pairs (a 1 024-key window); by regrouping on a key digit
// when three or more runs hold over 4 096 pairs and the
// rows are bounded by the pairs (a seal of 32 runs of hashed keys, or a
// close of 7 — MergeK's copy of such a group regroups too); else inside
// the loser-tree loop as pairs arrive in key order.
// algo.MultiMergeFold picks from the input alone. Any other aggregator
// gets every pair, in key order, through a visitor that feeds the value
// a value-resident pair carries, or the one a pointer pair's bundle row
// holds. Closing a window of R runs costs one sequential read of the
// inputs — no per-level KPA materialization, no separate reduce
// sweep. The other two kernels seal a group of a pane's runs into one
// while the pane still fills, so that close never meets more runs than
// one loser tree should hold and panes shared by sliding windows are
// merged once for all of them: MergeReducePartial is the same fused
// pass writing its (key, result) stream back out as a partial run, for
// aggregators that combine; MergeK copies the pairs verbatim, for those
// that need every value in order.

// checkMergeInputs validates that runs are sorted and share a resident
// column, returning that column.
func checkMergeInputs(runs []*KPA) (int, error) {
	if len(runs) == 0 {
		return 0, fmt.Errorf("kpa: merge of zero runs")
	}
	resident := runs[0].resident
	for _, r := range runs {
		if !r.sorted {
			return 0, fmt.Errorf("kpa: k-way merge requires sorted inputs")
		}
		if r.resident != resident {
			return 0, fmt.Errorf("kpa: k-way merge of different resident columns (%d vs %d)", r.resident, resident)
		}
	}
	return resident, nil
}

// MergeCuts partitions the k-way merge of the runs into up to p
// key-aligned ranges of balanced total size: cut vector i holds one
// cursor per run, and partition i covers pairs [cuts[i][j],
// cuts[i+1][j]) of run j. No key group spans a boundary, so each
// partition feeds an independent MergeReduceRange task.
func MergeCuts(runs []*KPA, p int) ([][]int, error) {
	if _, err := checkMergeInputs(runs); err != nil {
		return nil, err
	}
	segs := make([][]algo.Pair, len(runs))
	for j, r := range runs {
		segs[j] = r.pairs
	}
	return algo.MultiWayCuts(segs, p), nil
}

// MergeReduceRange merges one key-range partition of the runs — pairs
// [lo[j], hi[j]) of run j, as produced by MergeCuts — and folds the
// keyed aggregation inline, calling emit once per distinct key in key
// order. The runs are only read; no intermediate KPA exists. Pairs
// fold in the exact order the pairwise merge tree would produce (ties
// by run index), so any aggregator — order-sensitive or not — yields
// bit-identical results to merge-then-reduce.
//
// Value resolution is per run, so one merge may mix all three run modes:
// pointer runs dereference value column valCol, value-resident runs Add
// their Ptr, partial runs Combine it (the factory's aggregator must then
// be a Combiner). A WordFolder over runs that hold their values folds
// inside the merge loop; any other aggregator, or any pointer run, takes
// the per-pair path, where an aggregator that is a Resetter is reused
// across the task's keys instead of asking the factory for one per
// distinct key.
func MergeReduceRange(runs []*KPA, lo, hi []int, valCol int, factory AggFactory, emit func(key, result uint64)) error {
	_, err := mergeReduce(runs, lo, hi, valCol, factory(), factory, nil, emit)
	return err
}

// MergeReduceRows is MergeReduceRange writing its (key, aggregate) rows
// into out, from the front in key order, instead of calling emit; it
// returns how many it wrote. out must hold one row per distinct key of
// the range — RowBound rows always do — so a window's close folds
// straight into its row slab.
func MergeReduceRows(runs []*KPA, lo, hi []int, valCol int, factory AggFactory, out []Row) (int, error) {
	return mergeReduce(runs, lo, hi, valCol, factory(), factory, pairsOf(out), nil)
}

// RowBound returns the most rows a merge-reduce of pairs [lo[j], hi[j])
// of each sorted run can emit: one per distinct key, so no more than the
// range's pairs, nor than the keys from its least to its greatest. A
// range of narrow keys is bounded by its key span, a range of hashed
// keys by its pairs.
func RowBound(runs []*KPA, lo, hi []int) int {
	pairs := 0
	first, last := ^uint64(0), uint64(0)
	for j, r := range runs {
		if lo[j] < hi[j] {
			pairs += hi[j] - lo[j]
			first, last = min(first, r.pairs[lo[j]].Key), max(last, r.pairs[hi[j]-1].Key)
		}
	}
	if span := last - first; span < uint64(pairs) {
		return int(span) + 1
	}
	return pairs
}

// pairsOf views rows as the pairs a merge writes: a Row is the same two
// words as an algo.Pair, key first — the conversions below stop
// compiling if either type changes shape.
func pairsOf(rows []Row) []algo.Pair {
	return unsafe.Slice((*algo.Pair)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows))
}

var (
	_ = struct{ Key, Val uint64 }(Row{})
	_ = struct{ Key, Ptr uint64 }(algo.Pair{})
)

// mergeReduce is the fused merge-reduce behind the three entry points.
// agg is the factory's first aggregator: it decides the fold — the
// word fold, or the per-pair path whose first key it serves — so the
// factory is asked once for the capability probe and never again when a
// Resetter or a WordFolder makes one instance enough. Results go to
// emit when it is set, else into out; the word fold stages through out
// either way, sized here when the caller gave none.
func mergeReduce(runs []*KPA, lo, hi []int, valCol int, agg Agg, factory AggFactory, out []algo.Pair, emit func(key, result uint64)) (int, error) {
	if _, err := checkMergeInputs(runs); err != nil {
		return 0, err
	}
	if len(lo) != len(runs) || len(hi) != len(runs) {
		return 0, fmt.Errorf("kpa: merge-reduce cut vectors cover %d/%d runs, want %d", len(lo), len(hi), len(runs))
	}
	segs := make([][]algo.Pair, len(runs))
	pointers, partials := false, false
	for j, r := range runs {
		if lo[j] < 0 || hi[j] > r.Len() || lo[j] > hi[j] {
			return 0, fmt.Errorf("kpa: merge-reduce range [%d,%d) out of bounds for run %d (len %d)", lo[j], hi[j], j, r.Len())
		}
		segs[j] = r.pairs[lo[j]:hi[j]]
		partials = partials || r.partial
		pointers = pointers || !r.vals && lo[j] < hi[j]
		// Hoist the value-column bounds check out of the per-pair loop:
		// every source bundle's schema must hold valCol.
		for _, b := range r.sources {
			if valCol < 0 || valCol >= b.Schema().NumCols {
				return 0, fmt.Errorf("kpa: reduce value column %d out of range", valCol)
			}
		}
	}
	comb, combines := agg.(Combiner)
	if partials && !combines {
		return 0, fmt.Errorf("kpa: merge-reduce of a partial run needs a Combiner aggregator")
	}

	if w, ok := agg.(WordFolder); ok && !pointers {
		f := algo.Fold{Op: algo.FoldAdd}
		switch w.WordOp() {
		case WordMin:
			f.Op = algo.FoldMin
		case WordMax:
			f.Op = algo.FoldMax
		case WordCount:
			f.Units = make([]bool, len(runs))
			for j, r := range runs {
				f.Units[j] = !r.partial
			}
		}
		if out == nil {
			out = make([]algo.Pair, RowBound(runs, lo, hi))
		}
		n := algo.MultiMergeFold(segs, f, out)
		if emit != nil {
			for _, p := range out[:n] {
				emit(p.Key, p.Ptr)
			}
		}
		return n, nil
	}

	// The per-pair path. A per-run single-entry deref cache serves
	// pointer runs: first-level runs reference one bundle, so the common
	// case is an array hit instead of a map lookup per pair. Misses fall
	// back to the owning run's source map. Value-resident and partial runs
	// carry their values in Ptr and skip dereferencing entirely.
	cachedID := make([]uint32, len(runs))
	cached := make([]*bundle.Bundle, len(runs))
	mode := make([]runMode, len(runs))
	for j, r := range runs {
		switch {
		case r.partial:
			mode[j] = modePartial
		case r.vals:
			mode[j] = modeValue
		case lo[j] < hi[j]:
			p := r.pairs[lo[j]].Ptr
			cached[j] = r.sources[PtrBundle(p)]
			cachedID[j] = PtrBundle(p)
		}
	}
	n := 0
	put := func(key, res uint64) {
		if emit != nil {
			emit(key, res)
		} else {
			out[n] = algo.Pair{Key: key, Ptr: res}
		}
		n++
	}
	var (
		cur     uint64
		started bool
	)
	reuse, _ := agg.(Resetter)
	algo.MultiMergeFold(segs, algo.Fold{Visit: func(run int, p algo.Pair) {
		if !started || p.Key != cur {
			if started {
				put(cur, agg.Result())
				if reuse != nil {
					reuse.Reset()
				} else {
					agg = factory()
					comb, _ = agg.(Combiner)
				}
			}
			cur, started = p.Key, true
		}
		switch mode[run] {
		case modePartial:
			comb.Combine(p.Ptr)
			return
		case modeValue:
			agg.Add(p.Ptr)
			return
		}
		id := PtrBundle(p.Ptr)
		b := cached[run]
		if b == nil || cachedID[run] != id {
			b = runs[run].sources[id]
			if b == nil {
				panic(fmt.Sprintf("kpa: dangling pointer into bundle %d", id))
			}
			cached[run], cachedID[run] = b, id
		}
		agg.Add(b.At(int(PtrRow(p.Ptr)), valCol))
	}}, nil)
	if started {
		put(cur, agg.Result())
	}
	return n, nil
}

// runMode is how MergeReduceRange turns one run's pairs into aggregator
// input.
type runMode uint8

const (
	modePointer runMode = iota // Ptr references a bundle row: dereference, Add
	modeValue                  // Ptr is the value: Add
	modePartial                // Ptr is a partial aggregate: Combine
)

// MergeReducePartial seals the runs into one partial run: a single fused
// merge-reduce over all of them — the only dereference a pointer run's
// records need — whose (key, result) stream becomes a new sorted,
// value-resident KPA with one pair per distinct key and Partial set.
// Merging that run in place of the inputs yields the same aggregates,
// which is the Combiner contract; factory must build a Combiner. The
// inputs may mix pointer, value-resident and partial runs and remain
// valid (destroy them separately). The merge folds straight into a
// buffer staged through s; the output is sized by the distinct keys.
func MergeReducePartial(runs []*KPA, valCol int, factory AggFactory, al Allocator, s *algo.Scratch) (*KPA, error) {
	resident, err := checkMergeInputs(runs)
	if err != nil {
		return nil, err
	}
	agg := factory()
	if _, ok := agg.(Combiner); !ok {
		return nil, fmt.Errorf("kpa: sealing a partial run needs a Combiner aggregator")
	}
	lo, hi := make([]int, len(runs)), make([]int, len(runs))
	for j, r := range runs {
		hi[j] = r.Len()
	}
	staged := s.GetPairs(RowBound(runs, lo, hi))
	defer s.PutPairs(staged)
	n, err := mergeReduce(runs, lo, hi, valCol, agg, factory, staged, nil)
	if err != nil {
		return nil, err
	}
	out, err := newKPA(n, resident, al)
	if err != nil {
		return nil, err
	}
	out.pairs = append(out.pairs, staged[:n]...)
	out.sorted, out.vals, out.partial = true, true, true
	return out, nil
}

// MergeK merges k sorted KPAs into one sorted KPA with a single
// loser-tree pass, ties by run index — the seal of a group of runs
// whose aggregator cannot combine partial results: every pair is kept,
// in the order a merge over the inputs themselves would visit them.
// Inputs remain valid (destroy them separately).
func MergeK(runs []*KPA, al Allocator) (*KPA, error) {
	resident, err := checkMergeInputs(runs)
	if err != nil {
		return nil, err
	}
	// Pairs are copied verbatim, so every input must agree on what Ptr
	// means — all pointer runs, all value-resident runs or all partial
	// runs (a partial and a raw value fold differently). The runtime's
	// runs are value-resident from birth, and it seals with
	// MergeReducePartial whenever partials can exist.
	for _, r := range runs {
		if r.vals != runs[0].vals {
			return nil, fmt.Errorf("kpa: k-way merge of mixed pointer/value-resident runs")
		}
		if r.partial != runs[0].partial {
			return nil, fmt.Errorf("kpa: k-way merge of mixed partial/raw runs")
		}
	}
	total := 0
	segs := make([][]algo.Pair, len(runs))
	for j, r := range runs {
		total += r.Len()
		segs[j] = r.pairs
	}
	out, err := newKPA(total, resident, al)
	if err != nil {
		return nil, err
	}
	out.pairs = out.pairs[:total]
	algo.MultiMergeFold(segs, algo.Fold{Op: algo.FoldCopy}, out.pairs)
	for _, r := range runs {
		out.inheritSources(r)
	}
	out.sorted = true
	out.vals, out.partial = runs[0].vals, runs[0].partial
	return out, nil
}
