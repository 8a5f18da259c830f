// Package ops implements StreamBox-HBM's compound (declarative)
// operators (paper Table 1) on top of the KPA streaming primitives:
// ParDo/Filter, Windowing, the Keyed Aggregation family, AvgAll, Union,
// Temporal Join, Windowed Filter, External Join and the Power Grid
// composite. Each operator decomposes into grouping primitives
// (sequential access, on KPAs) and reductions (random access into
// DRAM), exactly as Figure 4 describes.
package ops

import (
	"sort"

	"streambox/internal/kpa"
)

// --- Aggregators (the reduction side of Table 1's operators). -------------
//
// Sum and Count are kpa.WordFolders: their whole state is one word that
// their inputs add to, so their result over a multiset is the sum of
// their results over any partition of it. The native runtime may then
// seal a pane into per-key partials once and add those per window, and
// a merge folds them inside its loop, with no call per value, so they
// never take the per-pair path. Avg is a kpa.Resetter, reused across the
// keys of one merge task on that path. The order statistics and
// UniqueCount are neither: they need every value.

// SumAgg sums values.
type SumAgg struct{ s uint64 }

// Add implements kpa.Agg.
func (a *SumAgg) Add(v uint64) { a.s += v }

// Result implements kpa.Agg.
func (a *SumAgg) Result() uint64 { return a.s }

// WordOp implements kpa.WordFolder.
func (*SumAgg) WordOp() kpa.WordOp { return kpa.WordAdd }

// Sum returns a factory for SumPerKey.
func Sum() kpa.AggFactory { return func() kpa.Agg { return &SumAgg{} } }

// CountAgg counts values.
type CountAgg struct{ n uint64 }

// Add implements kpa.Agg.
func (a *CountAgg) Add(uint64) { a.n++ }

// Result implements kpa.Agg.
func (a *CountAgg) Result() uint64 { return a.n }

// WordOp implements kpa.WordFolder: a partial count stands for that
// many records, where Add would count it as one.
func (*CountAgg) WordOp() kpa.WordOp { return kpa.WordCount }

// Count returns a factory for CountByKey.
func Count() kpa.AggFactory { return func() kpa.Agg { return &CountAgg{} } }

// AvgAgg averages values (integer division, matching the numeric-only
// record model).
type AvgAgg struct {
	sum uint64
	n   uint64
}

// Add implements kpa.Agg.
func (a *AvgAgg) Add(v uint64) { a.sum += v; a.n++ }

// Result implements kpa.Agg.
func (a *AvgAgg) Result() uint64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

// Reset implements kpa.Resetter.
func (a *AvgAgg) Reset() { *a = AvgAgg{} }

// Avg returns a factory for AveragePerKey.
func Avg() kpa.AggFactory { return func() kpa.Agg { return &AvgAgg{} } }

// collectAgg gathers all values for order statistics.
type collectAgg struct {
	vals []uint64
}

func (a *collectAgg) Add(v uint64) { a.vals = append(a.vals, v) }

func (a *collectAgg) sorted() []uint64 {
	sort.Slice(a.vals, func(i, j int) bool { return a.vals[i] < a.vals[j] })
	return a.vals
}

// MedianAgg computes the median value.
type MedianAgg struct{ collectAgg }

// Result implements kpa.Agg.
func (a *MedianAgg) Result() uint64 {
	if len(a.vals) == 0 {
		return 0
	}
	s := a.sorted()
	return s[len(s)/2]
}

// Median returns a factory for MedianPerKey.
func Median() kpa.AggFactory { return func() kpa.Agg { return &MedianAgg{} } }

// PercentileAgg computes the p-th percentile (0 < p <= 100).
type PercentileAgg struct {
	collectAgg
	P int
}

// Result implements kpa.Agg.
func (a *PercentileAgg) Result() uint64 {
	if len(a.vals) == 0 {
		return 0
	}
	s := a.sorted()
	idx := (len(s) - 1) * a.P / 100
	return s[idx]
}

// Percentile returns a factory for PercentileByKey.
func Percentile(p int) kpa.AggFactory {
	return func() kpa.Agg { return &PercentileAgg{P: p} }
}

// TopKAgg identifies the K-th largest value (the boundary of the top-K
// set; the TopK operator emits it as the per-key result).
type TopKAgg struct {
	collectAgg
	K int
}

// Result implements kpa.Agg.
func (a *TopKAgg) Result() uint64 {
	if len(a.vals) == 0 {
		return 0
	}
	s := a.sorted()
	idx := len(s) - a.K
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// TopK returns a factory for TopKPerKey.
func TopK(k int) kpa.AggFactory {
	return func() kpa.Agg { return &TopKAgg{K: k} }
}

// UniqueCountAgg counts distinct values.
type UniqueCountAgg struct {
	seen map[uint64]struct{}
}

// Add implements kpa.Agg.
func (a *UniqueCountAgg) Add(v uint64) {
	if a.seen == nil {
		a.seen = make(map[uint64]struct{})
	}
	a.seen[v] = struct{}{}
}

// Result implements kpa.Agg.
func (a *UniqueCountAgg) Result() uint64 { return uint64(len(a.seen)) }

// UniqueCount returns a factory for UniqueCountPerKey.
func UniqueCount() kpa.AggFactory { return func() kpa.Agg { return &UniqueCountAgg{} } }
