package kpa

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

// WordOp is the one word operation a WordFolder's state folds its
// inputs with: a wrapping sum of the values, or of 1 per raw value.
type WordOp uint8

const (
	WordAdd   WordOp = iota + 1 // state += value (sum)
	WordCount                   // state += 1 per raw value, += a partial's value (count)
)

// WordFolder is an optional Agg capability of an aggregator whose whole
// state is one uint64 that its inputs add to: a key's result is the
// wrapping sum of its inputs' contributions, in any order and under any
// grouping. So a group of runs seals into a partial run — one pair per
// distinct key holding the group's result, which a later merge adds as
// it would a raw value (only WordCount tells them apart, adding a raw
// pair as 1) — and a merge folds equal keys inside its loop
// (algo.MultiMergeFold) with no call per pair and no aggregator per
// key. A partial run is born only from a word fold (FoldColumns,
// MergeReducePartial), so only a WordFolder reads one; for every other
// aggregator a seal copies the pairs verbatim (MergeK). The operation
// belongs to the aggregator's type, not to an instance: WordOp always
// returns the same value.
type WordFolder interface {
	Agg
	WordOp() WordOp
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
