package kpa

import "streambox/internal/algo"

// Agg folds a stream of 64-bit values into one result. Implementations
// live in internal/ops (sum, average, median, top-k, ...); the kpa
// package only drives them.
type Agg interface {
	// Add folds one value.
	Add(v uint64)
	// Result returns the aggregate of the values added so far.
	Result() uint64
}

// AggFactory creates a fresh aggregator per key (or per window).
type AggFactory func() Agg

// Row is one keyed reduction result — the (key, aggregate) pair the emit
// callbacks below deliver — and the native path's one result-row type:
// the slice the runtime hands its window sink is the slice the result
// store retains and /windows and the checkpoint encode, by these names.
type Row struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// Combiner is an optional Agg capability: the aggregate of a multiset
// is the fold of the aggregates of any partition of it, in any order.
// Combine folds one such partial result — the Result of another
// instance over a disjoint, non-empty part of the input — so that
// Combine(r1), Combine(r2), ... followed by Result equals Add over the
// union (for Count that is n += partial, not Add). The native runtime
// seals groups of a pane's runs into partial runs (MergeReducePartial)
// only when the plan's aggregator is a Combiner; for every other
// aggregator a seal copies the pairs verbatim (MergeK).
type Combiner interface {
	Agg
	Combine(partial uint64)
}

// WordOp is the one word operation a WordFolder's state folds its
// inputs with.
type WordOp uint8

const (
	WordAdd   WordOp = iota + 1 // state += value (sum)
	WordCount                   // state += 1 per raw value, += a partial's value (count)
	WordMin                     // state = min(state, value)
	WordMax                     // state = max(state, value)
)

// WordFolder is an optional Combiner capability of an aggregator whose
// whole state is one uint64: a key's result is its first input's
// contribution folded with every later one by WordOp, raw values and
// partials alike (only WordCount tells them apart). A merge over
// value-resident and partial runs then folds equal keys inside the
// loser-tree loop (algo.MultiMergeFold) — no call per pair, no
// aggregator per key. The operation belongs to the aggregator's type,
// not to an instance: WordOp always returns the same value.
type WordFolder interface {
	Combiner
	WordOp() WordOp
}

// foldOp is the merge kernel's operation for w: a count adds, its raw
// pairs counting 1 (algo.Fold.Units).
func foldOp(w WordOp) algo.FoldOp {
	switch w {
	case WordMin:
		return algo.FoldMin
	case WordMax:
		return algo.FoldMax
	}
	return algo.FoldAdd
}

// Resetter is an optional Agg capability: Reset returns the aggregator
// to its freshly constructed state, so one instance can serve every key
// of a merge task instead of one heap object per distinct key.
type Resetter interface {
	Reset()
}

// ReduceAll performs unkeyed reduction across every record of the KPA,
// loading value column valCol through the pointers.
func ReduceAll(k *KPA, valCol int, agg Agg) error {
	if err := k.checkValCol(valCol); err != nil {
		return err
	}
	for _, p := range k.pairs {
		agg.Add(k.valueOf(p, valCol))
	}
	return nil
}
