package algo

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
)

// Range-partitioned k-way merging (paper §4.3, "Parallel Full KPA
// Merge"): instead of combining R sorted runs through log2(R) pairwise
// levels — each materializing a full copy of the data — the key space
// is partitioned once across all runs (MultiWayCuts) and each partition
// streams through a single merge (MultiMergeFold) on its own core. The
// merge folds as it goes — when the keys span a range narrower than the
// pairs, in a table indexed by key; otherwise as each regrouped bucket is
// sorted, equal keys summed or every pair handed to a visitor — so a
// keyed reduction never sees a merged intermediate: closing a window
// costs one sequential read of the inputs.

// MultiWayCuts partitions the merge of k sorted runs into up to p
// key-aligned ranges of balanced total size. It returns a list of cut
// vectors, each of length k: boundary b's vector holds one cursor per
// run, and partition i covers pairs [cuts[i][j], cuts[i+1][j]) of run j.
// The first vector is all zeros, the last holds every run's length, and
// no key group spans a boundary (all pairs of equal keys land in one
// partition), so partitions merge and reduce independently. Balance is
// as good as key duplication allows: a single key heavier than
// total/p cannot be split. At least two vectors (one partition) are
// always returned; degenerate boundaries are deduplicated, so every
// partition is non-empty unless the input is.
func MultiWayCuts(runs [][]Pair, p int) [][]int {
	k := len(runs)
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if p < 1 {
		p = 1
	}
	if p > total {
		p = total
	}
	last := make([]int, k)
	for j, r := range runs {
		last[j] = len(r)
	}
	cuts := [][]int{make([]int, k)}
	for i := 1; i < p; i++ {
		target := i * total / p
		// Smallest key whose cumulative count reaches the target rank;
		// cutting just past it keeps every key group on one side.
		key, ok := kthKey(runs, target)
		if !ok {
			continue
		}
		cut := make([]int, k)
		n := 0
		for j, r := range runs {
			cut[j] = upperBoundKey(r, key)
			n += cut[j]
		}
		if n == 0 || n >= total || cutsEqual(cut, cuts[len(cuts)-1]) {
			continue
		}
		cuts = append(cuts, cut)
	}
	cuts = append(cuts, last)
	return cuts
}

// kthKey returns the smallest key K such that at least target pairs
// across the runs have key <= K (ok is false when target <= 0). It
// binary-searches the 64-bit key domain; each probe costs one
// upper-bound search per run.
func kthKey(runs [][]Pair, target int) (uint64, bool) {
	if target <= 0 {
		return 0, false
	}
	lo, hi := uint64(0), ^uint64(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		n := 0
		for _, r := range runs {
			n += upperBoundKey(r, mid)
		}
		if n >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// upperBoundKey returns the first index of sorted run whose key
// exceeds key.
func upperBoundKey(run []Pair, key uint64) int {
	return sort.Search(len(run), func(i int) bool { return run[i].Key > key })
}

func cutsEqual(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FoldOp is what a k-way merge writes for the pairs it emits: every pair
// verbatim, or one pair per distinct key whose Ptr is the wrapping sum of
// the key's values — the one word fold, which sums and counts take.
type FoldOp uint8

const (
	FoldCopy FoldOp = iota // every pair, verbatim
	FoldAdd                // one pair per key: the wrapping sum of its values
)

// Fold is the sink of one MultiMergeFold, chosen once per merge.
type Fold struct {
	// Visit, when set, receives every pair and nothing is written: the
	// per-pair path, for consumers the word fold does not describe.
	Visit func(p Pair)
	// Op is what is written when Visit is nil.
	Op FoldOp
	// Units marks the runs whose every pair adds 1 to a fold rather than
	// its Ptr — a count over raw pairs, beside partial counts that add
	// their value. Nil marks none.
	Units []bool
}

// MultiMergeFold merges k sorted runs in ascending key order into the
// sink f names, ties between runs by run index (lowest first) — the
// order the levelwise pairwise merge tree produces, so a fused consumer
// sees the exact pair sequence the materializing path would. With
// f.Visit set it returns 0; otherwise it writes into out from the front
// and returns how many pairs it wrote: every pair (FoldCopy), or one per
// distinct key, in key order (FoldAdd) — out must hold that many.
//
// It merges one of two ways. A word fold over a dense key span takes a
// table: when the live runs' keys lie in [lo, lo+span] with span below
// both the pair count and denseSpan, every pair folds into a table slot
// key−lo, run after run, and the table is emitted in index order, which
// is key order. A wrapping sum is commutative, so the fold order is free
// and the result is the ordered merge's, bit for bit; the copy and the
// visitor, whose order is what they deliver, never take the table.
//
// Every other merge regroups (regroup.go), whatever its run count, pair
// count or out length. The runs split on one key digit by binary search;
// each digit's bucket, about an L1's worth of pairs, is counting-sorted
// straight from its run segments in run order — into out when out has a
// slot for each of its pairs, else into a leaf-sized buffer — and folded
// there, or handed to the visitor. That costs a few sequential passes per
// pair whose number does not grow with k. Every step is stable, so the
// order is mergeRef's, bit for bit.
func MultiMergeFold(runs [][]Pair, f Fold, out []Pair) int {
	if f.Visit != nil {
		f.Op = FoldCopy
	}
	if f.Op == FoldCopy {
		// A copy and a visitor hand over the pairs verbatim.
		f.Units = nil
	}
	live, total := liveRuns(runs, f.Units)
	if f.Op != FoldCopy {
		if lo, span, ok := denseRange(live, total); ok {
			return foldTable(live, lo, span, out)
		}
	}
	return foldRegroup(live, total, f, out)
}

// liveRuns returns the cursors of the non-empty runs, in run order, and
// their pair count. Leaves are the live runs in run order, so a tie
// between leaves is a tie between runs.
func liveRuns(runs [][]Pair, units []bool) ([]cursor, int) {
	live := make([]cursor, 0, len(runs))
	total := 0
	for j, r := range runs {
		if len(r) > 0 {
			c := cursor{pairs: r}
			if units != nil && units[j] {
				c.unit = ^uint64(0)
			}
			live = append(live, c)
			total += len(r)
		}
	}
	return live, total
}

// denseSpan bounds the key span a word fold takes through a table, and
// so the table: 512 KiB of slots per concurrent fold. On BenchmarkFoldSpan
// the table is ahead of the regroup at every span 2^8–2^16 and every pair
// count 4 096–320 000 (2–6 ns per pair against 3.3–9.3, 1.2–3.2× in the
// median of ten alternated rounds, ten wins of ten in every cell), because
// each run is sorted and sweeps its slots in order; what grows with the
// span is the clear and the scan of the slots, which the span-below-pairs
// test holds to one slot per pair. So the bound is the table's memory,
// set at the widest span swept.
const denseSpan = 1 << 16

// denseRange returns the least key of the live runs and the span up to
// their greatest, and whether a word fold over them takes the table
// (tableSpan). The runs are sorted, so their ends bound their keys.
func denseRange(live []cursor, total int) (lo uint64, span int, ok bool) {
	lo, hi := ^uint64(0), uint64(0)
	for _, c := range live {
		lo, hi = min(lo, c.pairs[0].Key), max(hi, c.pairs[len(c.pairs)-1].Key)
	}
	if span, ok = tableSpan(lo, hi, total); ok {
		return lo, span, true
	}
	return 0, 0, false
}

// tableSpan is the rule that sends a word fold of n pairs whose keys lie
// in [lo, hi] through the table: the span hi−lo is below both n and
// denseSpan. It returns the span.
func tableSpan(lo, hi uint64, n int) (int, bool) {
	if d := hi - lo; d < uint64(n) && d < denseSpan {
		return int(d), true
	}
	return 0, false
}

// foldTable is the word fold through a table of span+1 slots, drawn from
// tablePool; only the slots in use are cleared.
func foldTable(live []cursor, lo uint64, span int, out []Pair) int {
	t := tablePool.Get().(*table)
	defer tablePool.Put(t)
	return foldSlots(t.acc[:span+1], t.seen[:span/64+1], live, lo, out)
}

// foldSlots folds the live runs into acc, slot i for key lo+i, which
// must cover their keys: every pair adds its value to its key's slot and
// sets the slot's bit in seen, then the present slots are emitted in
// index order. Every slot starts at 0, the sum's identity, so the first
// pair of a key folds like every other.
func foldSlots(acc, seen []uint64, live []cursor, lo uint64, out []Pair) int {
	clear(acc)
	clear(seen)
	for _, c := range live {
		u := c.unit
		for _, p := range c.pairs {
			i := p.Key - lo
			acc[i] += p.Ptr&^u | u&1
			seen[i/64] |= 1 << (i % 64)
		}
	}
	return emitSlots(acc, seen, lo, out)
}

// emitSlots writes the present slots into out, in index order — key
// order —, and returns how many it wrote.
func emitSlots(acc, seen []uint64, lo uint64, out []Pair) int {
	n := 0
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			out[n] = Pair{Key: lo + uint64(i), Ptr: acc[i]}
			n++
		}
	}
	return n
}

// KeyScan is what one pass over a run's key column finds: its length,
// its least and greatest key, and the bits on which two of its keys
// differ. A run still in columns that no known key range folds is
// formed from it — folded through the table when Dense, else sorted
// (RadixSortColumns) — so the column is read once for the choice,
// whichever way it goes.
type KeyScan struct {
	N      int
	Lo, Hi uint64
	Vary   uint64
}

// ScanKeys scans a key column.
func ScanKeys(keys []uint64) KeyScan {
	lo, hi, or, and := ^uint64(0), uint64(0), uint64(0), ^uint64(0)
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
		or |= k
		and &= k
	}
	return KeyScan{N: len(keys), Lo: lo, Hi: hi, Vary: or ^ and}
}

// Dense reports whether a word fold of the scanned run takes the table,
// and the span Hi−Lo it folds over: the rule a merge applies
// (tableSpan), so a run folded at formation and the runs a seal folds
// share one bound and one table.
func (s KeyScan) Dense() (span int, ok bool) {
	return tableSpan(s.Lo, s.Hi, s.N)
}

// FoldColumns is the word fold of one run still in columns, the pairs
// (keys[i], vals[i]), through foldTable's table over the key range
// [lo, lo+span], which must not wrap and must pass the table rule for
// the run's rows (tableSpan). Each value adds into slot key−lo, in row
// order — with unit set, each row counts 1 and vals is not read —; then
// out(n) supplies a slot for each of the n distinct keys, and they are
// written in key order with their sums. A wrapping sum is commutative,
// so the result is what a sort and a merge fold would make, bit for
// bit, and it does not depend on the range: only the slots of present
// keys are written. When out returns nil nothing is written.
//
// The range need not be the keys' own (KeyScan.Dense): FoldColumns
// checks each key against it as it folds, and returns false at the
// first key outside it, without calling out. Every key inside means the
// keys span no more than the range, so they are Dense too.
func FoldColumns(keys, vals []uint64, lo uint64, span int, unit bool, out func(n int) []Pair) bool {
	if _, ok := tableSpan(lo, lo+uint64(span), len(keys)); !ok || lo+uint64(span) < lo {
		panic(fmt.Sprintf("algo: FoldColumns of %d keys over [%d, %d+%d]", len(keys), lo, lo, span))
	}
	t := tablePool.Get().(*table)
	defer tablePool.Put(t)
	acc, seen := t.acc[:span+1], t.seen[:span/64+1]
	clear(acc)
	clear(seen)
	if unit {
		for _, k := range keys {
			i := k - lo
			if i >= uint64(len(acc)) {
				return false
			}
			acc[i]++
			seen[i/64] |= 1 << (i % 64)
		}
	} else {
		vals = vals[:len(keys)]
		for j, k := range keys {
			i := k - lo
			if i >= uint64(len(acc)) {
				return false
			}
			acc[i] += vals[j]
			seen[i/64] |= 1 << (i % 64)
		}
	}
	n := 0
	for _, w := range seen {
		n += bits.OnesCount64(w)
	}
	if dst := out(n); dst != nil {
		emitSlots(acc, seen, lo, dst)
	}
	return true
}

// table is foldTable's scratch, reused across calls: a slot per key of
// the widest span it takes, and a presence bit per slot.
type table struct {
	acc  [denseSpan]uint64
	seen [denseSpan / 64]uint64
}

var tablePool = sync.Pool{New: func() any { return new(table) }}

// cursor is one live run of MultiMergeFold, or a segment of one: its
// pairs, and all ones when they fold as 1.
type cursor struct {
	pairs []Pair
	unit  uint64
}
