package kpa

import (
	"fmt"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/memsim"
)

// --- Maintenance primitives (paper Table 2). -------------------------------

// Extract creates a new KPA from a record bundle, copying column col as
// the resident keys and building pointers to the bundle's rows.
// Sequential access on both the bundle and the new KPA.
func Extract(b *bundle.Bundle, col int, al Allocator) (*KPA, error) {
	if col < 0 || col >= b.Schema().NumCols {
		return nil, fmt.Errorf("kpa: extract column %d out of range for %d-column schema", col, b.Schema().NumCols)
	}
	k, err := newKPA(b.Rows(), col, al)
	if err != nil {
		return nil, err
	}
	id := uint32(b.ID())
	keys := b.Col(col)
	for i, key := range keys {
		k.pairs = append(k.pairs, algo.Pair{Key: key, Ptr: PackPtr(id, uint32(i))})
	}
	if b.Rows() > 0 {
		k.addSource(b)
	}
	k.sorted = b.Rows() <= 1
	return k, nil
}

// ExtractDemand returns the virtual cost of Extract.
func ExtractDemand(b *bundle.Bundle, to memsim.Tier) memsim.Demand {
	return memsim.ExtractDemand(b.Tier(), to, b.Rows(), 8)
}

// NewValues creates a value-resident KPA of n pairs and hands out its
// slab for the caller to fill: each Ptr is to hold the record's
// aggregation value itself, not a pointer, so the run links no bundle —
// the mode a run loaded back from the spill tier is in (see
// residency.go). The native runtime builds every first-level run this
// way, writing the value beside the key while the extraction scan has
// the bundle's columns hot, straight into the run's own storage: the
// pair is the same 16 bytes in the fast tier, the merge that folds it
// never goes back to DRAM, and the bundle frees when its extraction
// ends. The slab is recycled memory holding stale pairs; the caller
// writes all n before anything reads the run.
func NewValues(n, resident int, al Allocator) (*KPA, []algo.Pair, error) {
	k, err := newKPA(n, resident, al)
	if err != nil {
		return nil, nil, err
	}
	k.pairs = k.pairs[:n]
	k.sorted = n <= 1
	k.vals = true
	return k, k.pairs, nil
}

// Materialize emits a bundle of full records in KPA order by
// dereferencing every pointer (random access into DRAM). newBuilder is
// supplied by the engine so the output bundle gets a registry ID and a
// slab allocation.
func Materialize(k *KPA, newBuilder func(schema bundle.Schema, capacity int) (*bundle.Builder, error)) (*bundle.Bundle, error) {
	schema, err := k.uniformSchema()
	if err != nil {
		return nil, err
	}
	bd, err := newBuilder(schema, max(k.Len(), 1))
	if err != nil {
		return nil, fmt.Errorf("kpa: materialize: %w", err)
	}
	row := make([]uint64, schema.NumCols)
	for _, p := range k.pairs {
		src, r := k.Deref(p.Ptr)
		for c := 0; c < schema.NumCols; c++ {
			row[c] = src.At(r, c)
		}
		// The resident key may have been updated in place (paper §4.3
		// optimization: dirty keys are written back on materialize).
		row[k.resident] = p.Key
		if err := bd.Append(row...); err != nil {
			return nil, err
		}
	}
	return bd.Seal(), nil
}

// MaterializeDemand returns the virtual cost of Materialize.
func MaterializeDemand(k *KPA, recBytes int64) memsim.Demand {
	return memsim.MaterializeDemand(k.Tier(), k.Len(), recBytes)
}

// uniformSchema returns the schema shared by all source bundles.
func (k *KPA) uniformSchema() (bundle.Schema, error) {
	var schema bundle.Schema
	first := true
	for _, b := range k.sources {
		if first {
			schema = b.Schema()
			first = false
			continue
		}
		s := b.Schema()
		if s.NumCols != schema.NumCols || s.TsCol != schema.TsCol {
			return bundle.Schema{}, fmt.Errorf("kpa: mixed schemas across source bundles")
		}
	}
	if first {
		return bundle.Schema{}, fmt.Errorf("kpa: no source bundles (empty KPA)")
	}
	return schema, nil
}

// KeySwap replaces the KPA's resident keys with nonresident column col,
// loaded through the pointers (random access into DRAM). Sortedness is
// invalidated.
func KeySwap(k *KPA, col int) error {
	for i, p := range k.pairs {
		src, r := k.Deref(p.Ptr)
		if col < 0 || col >= src.Schema().NumCols {
			return fmt.Errorf("kpa: keyswap column %d out of range", col)
		}
		k.pairs[i].Key = src.At(r, col)
	}
	k.resident = col
	k.sorted = k.Len() <= 1
	return nil
}

// KeySwapDemand returns the virtual cost of KeySwap.
func KeySwapDemand(k *KPA) memsim.Demand {
	return memsim.KeySwapDemand(k.Tier(), k.Len())
}

// UpdateKeysWriteBack rewrites the resident keys through fn and writes
// the dirty keys back to the resident column of the full records
// (paper §4.3: "The operator writes back camp_id to full records"), so
// later KeySwap and Materialize see the new values. It is the in-place
// update of the YSB external join, which replaces ad_id with
// campaign_id (paper §4.3 step 3).
func UpdateKeysWriteBack(k *KPA, fn func(key uint64) uint64) {
	col := k.resident
	for i := range k.pairs {
		nk := fn(k.pairs[i].Key)
		k.pairs[i].Key = nk
		src, row := k.Deref(k.pairs[i].Ptr)
		src.OverwriteAt(row, col, nk)
	}
	k.sorted = k.Len() <= 1
}

// --- Grouping primitives (sequential access). ------------------------------

// SortRadix sorts the KPA by resident keys in place, stably, with the
// radix kernel (algo.RadixSortPairs), drawing scatter scratch from s. It
// is the one way a KPA is sorted: the simulator's operators sort every
// run they group with it, and the native runtime forms its first-level
// runs with it or with SortColumns; sorted runs then combine through
// MergeK, MergeReducePartial and the merge-reduce of a close (paper
// Table 2's partition/merge split). The second argument is unused: the
// kernel is serial, the runtime's parallelism is one extract task per
// bundle, and the parameter stays only because benchmark/replay.go
// compiles against this signature (ROADMAP item 1(c) drops it).
func SortRadix(k *KPA, _ int, s *algo.Scratch) {
	algo.RadixSortPairs(k.pairs, s)
	k.sorted = true
}

// SortColumns fills k, a run NewValues made for len(keys) pairs, with
// the pairs (keys[i], vals[i]) sorted by key, stably: SortRadix for a run
// whose pairs are still a bundle's key and value columns, without
// staging them first. scan is the key column's (algo.ScanKeys). Narrow
// keys are each written once, into their sorted slot
// (algo.RadixSortColumns); s supplies the scatter buffer any other run
// needs.
func SortColumns(k *KPA, keys, vals []uint64, scan algo.KeyScan, s *algo.Scratch) {
	if !k.vals || k.Len() != len(keys) || len(vals) != len(keys) || scan.N != len(keys) {
		panic(fmt.Sprintf("kpa: SortColumns of %d keys and %d values into %v", len(keys), len(vals), k))
	}
	algo.RadixSortColumns(k.pairs, keys, vals, scan, s)
	k.sorted = true
}

// FoldColumns is SortColumns' sibling for an aggregator with a word
// operation, over columns whose keys lie in [lo, lo+span], a range the
// table rule takes for their rows (algo.KeyScan.Dense): it returns the
// partial run of the pairs (keys[i], vals[i]) — one pair per distinct
// key, in key order, each holding the sum of the key's values (a
// count's holds its row count) — which is what Seal makes of the run
// SortColumns would sort, without that run or its sort
// (algo.FoldColumns). The run is sorted, value-resident and partial, and
// is allocated through al after the fold, at its distinct-key count. A
// key outside the range stops the fold with ok false, before anything is
// allocated; the range of the keys' own scan always holds them.
func FoldColumns(keys, vals []uint64, lo uint64, span int, resident int, op WordOp, al Allocator) (k *KPA, ok bool, err error) {
	if len(vals) != len(keys) {
		panic(fmt.Sprintf("kpa: FoldColumns of %d keys and %d values", len(keys), len(vals)))
	}
	ok = algo.FoldColumns(keys, vals, lo, span, op == WordCount, func(n int) []algo.Pair {
		if k, err = newKPA(n, resident, al); err != nil {
			return nil
		}
		k.pairs = k.pairs[:n]
		return k.pairs
	})
	if !ok || err != nil {
		return nil, ok, err
	}
	k.sorted, k.vals, k.partial = true, true, true
	return k, true, nil
}

// MergeDemand returns the virtual cost of merging a and b.
func MergeDemand(a, b *KPA) memsim.Demand {
	return memsim.MergeDemand(a.Tier(), a.Len()+b.Len())
}

// JoinRow is one match emitted by Join: the shared key plus the two
// source positions.
type JoinRow struct {
	Key  uint64
	Left Ptr
	Rght Ptr
}

// Join scans two sorted KPAs once and calls emit for every key match
// (paper: "Join two sorted KPAs by resident keys. Emit new records." —
// record construction from the pointer pair is the caller's business,
// via Deref on the respective sides).
func Join(a, b *KPA, emit func(JoinRow)) error {
	if !a.sorted || !b.sorted {
		return fmt.Errorf("kpa: join requires sorted inputs")
	}
	algo.JoinSorted(a.pairs, b.pairs, func(key, pa, pb uint64) {
		emit(JoinRow{Key: key, Left: pa, Rght: pb})
	})
	return nil
}

// SelectFromBundle creates a KPA holding only the rows of b whose
// column-col value satisfies pred (ParDo/Filter without new records).
func SelectFromBundle(b *bundle.Bundle, col int, pred func(uint64) bool, al Allocator) (*KPA, error) {
	if col < 0 || col >= b.Schema().NumCols {
		return nil, fmt.Errorf("kpa: select column %d out of range", col)
	}
	keys := b.Col(col)
	n := 0
	for _, key := range keys {
		if pred(key) {
			n++
		}
	}
	k, err := newKPA(n, col, al)
	if err != nil {
		return nil, err
	}
	id := uint32(b.ID())
	for i, key := range keys {
		if pred(key) {
			k.pairs = append(k.pairs, algo.Pair{Key: key, Ptr: PackPtr(id, uint32(i))})
		}
	}
	if n > 0 {
		k.addSource(b)
	}
	k.sorted = n <= 1
	return k, nil
}

// Select creates a new KPA with the surviving key/pointer pairs of k.
func Select(k *KPA, pred func(uint64) bool, al Allocator) (*KPA, error) {
	kept := algo.SelectPairs(k.pairs, pred)
	out, err := newKPA(len(kept), k.resident, al)
	if err != nil {
		return nil, err
	}
	out.pairs = append(out.pairs, kept...)
	if len(kept) > 0 {
		out.inheritSources(k)
	}
	out.sorted = k.sorted || len(kept) <= 1
	return out, nil
}

// Partition splits the KPA into len(boundaries)+1 KPAs by ranges of the
// resident keys (paper: the Windowing operator partitions on the
// timestamp column). Output KPAs inherit the input's bundle links.
func Partition(k *KPA, boundaries []uint64, al Allocator) ([]*KPA, error) {
	buckets := algo.PartitionByKeyRange(k.pairs, boundaries)
	out := make([]*KPA, len(buckets))
	for i, bucket := range buckets {
		kp, err := newKPA(len(bucket), k.resident, al)
		if err != nil {
			for _, done := range out[:i] {
				done.Destroy()
			}
			return nil, err
		}
		kp.pairs = append(kp.pairs, bucket...)
		if len(bucket) > 0 {
			kp.inheritSources(k)
		}
		kp.sorted = k.sorted || len(bucket) <= 1
		out[i] = kp
	}
	return out, nil
}

// PartitionDemandN returns the virtual cost of partitioning a KPA of n
// pairs on tier t, usable before the KPA exists.
func PartitionDemandN(t memsim.Tier, n int) memsim.Demand {
	return memsim.ScanDemand(t, 2*int64(n)*memsim.PairBytes, int64(n)*memsim.PartitionCycles)
}
