package kpa

import (
	"fmt"

	"streambox/internal/algo"
	"streambox/internal/bundle"
)

// Fused range-partitioned k-way merge-reduce (paper §4.3, "Parallel
// Full KPA Merge"): a closing window's sorted runs are partitioned once
// across the key space (MergeCuts), and each partition streams through
// a loser-tree merge whose visitor folds the keyed aggregator inline
// (MergeReduceRange) as pairs arrive in key order — the value a
// value-resident pair carries, or the one a pointer pair's bundle row
// holds. Closing a window of R runs costs one sequential read of
// the inputs — no per-level KPA materialization, no separate reduce
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
// keyed aggregation inline: the loser-tree visitor dereferences each
// pair's bundle pointer, loads value column valCol, and feeds the
// current key's aggregator, emitting one (key, aggregate) when the key
// changes. The runs are only read; no intermediate KPA exists. Pairs
// visit in the exact order the pairwise merge tree would produce
// (ties by run index), so any aggregator — order-sensitive or not —
// yields bit-identical results to merge-then-reduce.
//
// Value resolution is per run, so one merge may mix all three run modes:
// pointer runs dereference, value-resident runs Add their Ptr, partial
// runs Combine it (the factory's aggregator must then be a Combiner).
// An aggregator that is a Resetter is reused across the task's keys
// instead of asking the factory for one per distinct key.
func MergeReduceRange(runs []*KPA, lo, hi []int, valCol int, factory AggFactory, emit func(key, result uint64)) error {
	if _, err := checkMergeInputs(runs); err != nil {
		return err
	}
	if len(lo) != len(runs) || len(hi) != len(runs) {
		return fmt.Errorf("kpa: merge-reduce cut vectors cover %d/%d runs, want %d", len(lo), len(hi), len(runs))
	}
	segs := make([][]algo.Pair, len(runs))
	for j, r := range runs {
		if lo[j] < 0 || hi[j] > r.Len() || lo[j] > hi[j] {
			return fmt.Errorf("kpa: merge-reduce range [%d,%d) out of bounds for run %d (len %d)", lo[j], hi[j], j, r.Len())
		}
		segs[j] = r.pairs[lo[j]:hi[j]]
		// Hoist the value-column bounds check out of the per-pair loop:
		// every source bundle's schema must hold valCol.
		for _, b := range r.sources {
			if valCol < 0 || valCol >= b.Schema().NumCols {
				return fmt.Errorf("kpa: reduce value column %d out of range", valCol)
			}
		}
	}

	// Per-run single-entry deref cache: first-level runs reference one
	// bundle, so the common case is an array hit instead of a map lookup
	// per pair. Misses fall back to the owning run's source map.
	// Value-resident runs (loaded back from the spill tier) and partial
	// runs carry their values in Ptr and skip dereferencing entirely.
	cachedID := make([]uint32, len(runs))
	cached := make([]*bundle.Bundle, len(runs))
	mode := make([]runMode, len(runs))
	partials := false
	for j, r := range runs {
		switch {
		case r.partial:
			mode[j] = modePartial
			partials = true
		case r.vals:
			mode[j] = modeValue
		case lo[j] < hi[j]:
			p := r.pairs[lo[j]].Ptr
			cached[j] = r.sources[PtrBundle(p)]
			cachedID[j] = PtrBundle(p)
		}
	}
	if partials {
		if _, ok := factory().(Combiner); !ok {
			return fmt.Errorf("kpa: merge-reduce of a partial run needs a Combiner aggregator")
		}
	}

	var (
		cur     uint64
		agg     Agg
		comb    Combiner
		reuse   Resetter
		started bool
	)
	algo.MultiMergeVisit(segs, func(run int, p algo.Pair) {
		if !started || p.Key != cur {
			if started {
				emit(cur, agg.Result())
			}
			cur = p.Key
			if reuse != nil {
				reuse.Reset()
			} else {
				agg = factory()
				comb, _ = agg.(Combiner)
				reuse, _ = agg.(Resetter)
			}
			started = true
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
	})
	if started {
		emit(cur, agg.Result())
	}
	return nil
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
// valid (destroy them separately). The output is sized by the distinct
// keys, staged through s.
func MergeReducePartial(runs []*KPA, valCol int, factory AggFactory, al Allocator, s *algo.Scratch) (*KPA, error) {
	resident, err := checkMergeInputs(runs)
	if err != nil {
		return nil, err
	}
	if _, ok := factory().(Combiner); !ok {
		return nil, fmt.Errorf("kpa: sealing a partial run needs a Combiner aggregator")
	}
	lo, hi := make([]int, len(runs)), make([]int, len(runs))
	total := 0
	for j, r := range runs {
		hi[j] = r.Len()
		total += r.Len()
	}
	staged := s.GetPairs(total)
	defer s.PutPairs(staged)
	n := 0
	if err := MergeReduceRange(runs, lo, hi, valCol, factory, func(key, res uint64) {
		staged[n] = algo.Pair{Key: key, Ptr: res}
		n++
	}); err != nil {
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
	algo.MultiMergeVisit(segs, func(_ int, p algo.Pair) {
		out.pairs = append(out.pairs, p)
	})
	for _, r := range runs {
		out.inheritSources(r)
	}
	out.sorted = true
	out.vals, out.partial = runs[0].vals, runs[0].partial
	return out, nil
}
