package algo

import (
	"math/bits"
	"sort"
	"sync"
)

// Range-partitioned k-way merging (paper §4.3, "Parallel Full KPA
// Merge"): instead of combining R sorted runs through log2(R) pairwise
// levels — each materializing a full copy of the data — the key space
// is partitioned once across all runs (MultiWayCuts) and each partition
// streams through a single merge (MultiMergeFold) on its own core. The
// merge folds as it goes — equal keys combined with a word operation
// inside the loser-tree loop; when the keys span a range narrower than
// the pairs, in a table indexed by key; in a merge of three or more
// runs, as each regrouped bucket is sorted; or every pair handed to a
// visitor — so a keyed reduction never sees a merged intermediate:
// closing a window costs one sequential read of the inputs.

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
// verbatim, or one pair per distinct key whose Ptr folds the key's values
// with one word operation.
type FoldOp uint8

const (
	FoldCopy FoldOp = iota // every pair, verbatim
	FoldAdd                // one pair per key: the wrapping sum of its values
	FoldMin                // one pair per key: its least value
	FoldMax                // one pair per key: its greatest value
)

// Fold is the sink of one MultiMergeFold, chosen once per merge.
type Fold struct {
	// Visit, when set, receives every pair with the index of its run and
	// nothing is written: the per-pair path, for consumers no word
	// operation describes.
	Visit func(run int, p Pair)
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
// distinct key, in key order (the word folds) — out must hold that many.
//
// A word fold over a dense key span takes no tree: when the live runs'
// keys lie in [lo, lo+span] with span below both the pair count and
// denseSpan, every pair folds into a table slot key−lo, run after run,
// and the table is emitted in index order, which is key order. The word
// operations are commutative, so the fold order is free and the result
// is the tree's, bit for bit; the copy and the visitor, whose order is
// what they deliver, never take the table.
//
// Any other copy or word fold regroups (regroup.go) when at least
// regroupRuns (3) runs are live, they hold at least regroupMinPairs pairs
// (more than one leaf), and out has a slot per pair, which a copy always
// has and a word fold has when its rows are bounded by its pairs
// (RowBound on hashed keys). The runs split on one key digit by binary
// search; each digit's bucket, about an L1's worth of pairs, is
// counting-sorted straight from its run segments in run order into out
// and folded there. That replaces log2(k) node comparisons per pair with
// a few sequential passes whose cost does not grow with k — a 32-run
// seal is five levels of tree, and the tree costs as much per pair on
// runs that sit in L2 as on runs that do not: it is bound by
// instructions. Every step is stable, so the order is the tree's, bit
// for bit.
//
// Otherwise — a visitor, two runs, a short merge or a short out — the
// cursors of the live runs advance through a loser tree whose nodes
// carry their run's current key: replaying a path compares node to node
// — one comparison per level per emitted pair — and run data is touched
// once per pair, to emit it and to fetch the key that follows it. The
// sink is a switch on a loop-invariant mode inside that one replay loop,
// so a word fold costs no call per pair. A lone live run is copied or
// visited without the tree; two make a tree of one level.
func MultiMergeFold(runs [][]Pair, f Fold, out []Pair) int {
	live, total := liveRuns(runs, f.Units)
	if f.Visit == nil {
		if f.Op != FoldCopy {
			if lo, span, ok := denseRange(live, total); ok {
				return foldTable(live, f.Op, lo, span, out)
			}
		}
		if regroups(live, total, out) {
			return foldRegroup(live, total, f.Op, out)
		}
	}
	return foldTree(live, total, f, out)
}

// liveRuns returns the cursors of the non-empty runs, in run order, and
// their pair count. Leaves are the live runs in run order, so a tie
// between leaves is a tie between runs.
func liveRuns(runs [][]Pair, units []bool) ([]cursor, int) {
	live := make([]cursor, 0, len(runs))
	total := 0
	for j, r := range runs {
		if len(r) > 0 {
			c := cursor{pairs: r, run: j}
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
// the table is ahead of the tree at every span 2^8–2^16 and every pair
// count 4 096–320 000 (2–6 ns per pair against 4–23), because each run
// is sorted and sweeps its slots in order; what grows with the span is
// the clear and the scan of the slots, which the span-below-pairs test
// holds to one slot per pair. So the bound is the table's memory, set at
// the widest span swept.
const denseSpan = 1 << 16

// denseRange returns the least key of the live runs and the span up to
// their greatest, and whether a word fold over them takes the table: the
// span is below both the pair count and denseSpan. The runs are sorted,
// so their ends bound their keys.
func denseRange(live []cursor, total int) (lo uint64, span int, ok bool) {
	lo, hi := ^uint64(0), uint64(0)
	for _, c := range live {
		lo, hi = min(lo, c.pairs[0].Key), max(hi, c.pairs[len(c.pairs)-1].Key)
	}
	if d := hi - lo; d < uint64(total) && d < denseSpan {
		return lo, int(d), true
	}
	return 0, 0, false
}

// foldTable is the word fold through a table of span+1 slots, drawn from
// tablePool; only the slots in use are cleared.
func foldTable(live []cursor, op FoldOp, lo uint64, span int, out []Pair) int {
	t := tablePool.Get().(*table)
	defer tablePool.Put(t)
	return foldSlots(t.acc[:span+1], t.seen[:span/64+1], live, op, lo, out)
}

// foldSlots folds the live runs into acc, slot i for key lo+i, which
// must cover their keys: every pair folds its value into its key's slot
// and sets the slot's bit in seen, then the present slots are emitted in
// index order. A slot starts at the operation's identity, so the first
// pair of a key folds like every other.
func foldSlots(acc, seen []uint64, live []cursor, op FoldOp, lo uint64, out []Pair) int {
	clear(seen)
	if op == FoldMin {
		for i := range acc {
			acc[i] = ^uint64(0)
		}
	} else {
		clear(acc)
	}
	for _, c := range live {
		u := c.unit
		switch op {
		case FoldAdd:
			for _, p := range c.pairs {
				i := p.Key - lo
				acc[i] += p.Ptr&^u | u&1
				seen[i/64] |= 1 << (i % 64)
			}
		case FoldMin:
			for _, p := range c.pairs {
				i := p.Key - lo
				acc[i] = min(acc[i], p.Ptr&^u|u&1)
				seen[i/64] |= 1 << (i % 64)
			}
		default:
			for _, p := range c.pairs {
				i := p.Key - lo
				acc[i] = max(acc[i], p.Ptr&^u|u&1)
				seen[i/64] |= 1 << (i % 64)
			}
		}
	}
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

// table is foldTable's scratch, reused across calls: a slot per key of
// the widest span it takes, and a presence bit per slot.
type table struct {
	acc  [denseSpan]uint64
	seen [denseSpan / 64]uint64
}

var tablePool = sync.Pool{New: func() any { return new(table) }}

// foldTree is the loser-tree merge of the live runs into the sink f
// names; total is their pair count.
func foldTree(live []cursor, total int, f Fold, out []Pair) int {
	if len(live) == 0 {
		return 0
	}
	visit, op := f.Visit, f.Op
	if len(live) == 1 {
		switch c := live[0]; {
		case visit != nil:
			for _, p := range c.pairs {
				visit(c.run, p)
			}
			return 0
		case op == FoldCopy:
			return copy(out[:len(c.pairs)], c.pairs)
		}
	}

	k, m := uint64(len(live)), uint64(1)
	for m < k {
		m *= 2
	}
	// An exhausted (or absent) leaf i is (MaxUint64, m+i): it loses every
	// tie to a live run — a live key of MaxUint64 still wins — so the loop
	// needs no sentinel test and ends by count.
	loser := make([]treeNode, m) // internal nodes 1..m-1 hold match losers
	win := make([]treeNode, 2*m) // scratch winners for the initial build
	for i := uint64(0); i < m; i++ {
		if i < k {
			win[m+i] = treeNode{live[i].pairs[0].Key, i}
		} else {
			win[m+i] = treeNode{^uint64(0), m + i}
		}
	}
	for n := m - 1; n >= 1; n-- {
		if l, r := win[2*n], win[2*n+1]; l.beats(r) {
			win[n], loser[n] = l, r
		} else {
			win[n], loser[n] = r, l
		}
	}
	w := win[1]
	// A word fold holds the open key and its value so far; it starts on
	// the first key at the operation's identity, so the first pair folds
	// like every other.
	n, cur, acc := 0, w.key, uint64(0)
	if op == FoldMin {
		acc = ^uint64(0)
	}
	for ; total > 0; total-- {
		r := w.run
		c := &live[r]
		p := c.pairs[c.next]
		switch {
		case visit != nil:
			visit(c.run, p)
		case op == FoldCopy:
			out[n] = p
			n++
		default:
			v := p.Ptr&^c.unit | c.unit&1
			if p.Key != cur {
				out[n] = Pair{Key: cur, Ptr: acc}
				n++
				cur, acc = p.Key, v
			} else if op == FoldAdd {
				acc += v
			} else if op == FoldMin {
				acc = min(acc, v)
			} else {
				acc = max(acc, v)
			}
		}
		if c.next++; c.next == len(c.pairs) {
			w = treeNode{^uint64(0), m + r}
		} else if key := c.pairs[c.next].Key; key != w.key {
			w.key = key
		} else {
			// The winner follows itself: what beat every other run
			// still does.
			continue
		}
		// Replay the leaf-to-root path: the new cursor competes against
		// the stored losers; the surviving node is the next winner.
		for node := (m + r) / 2; node >= 1; node /= 2 {
			l := loser[node]
			// swap is all ones when l beats w: the 128-bit subtraction
			// (l.key:l.run) - (w.key:w.run) borrows. Which of the two
			// wins is a coin toss on real data, so the exchange is
			// arithmetic rather than a branch.
			_, borrow := bits.Sub64(l.run, w.run, 0)
			_, borrow = bits.Sub64(l.key, w.key, borrow)
			swap := -borrow
			dk, dr := (l.key^w.key)&swap, (l.run^w.run)&swap
			loser[node] = treeNode{l.key ^ dk, l.run ^ dr}
			w = treeNode{w.key ^ dk, w.run ^ dr}
		}
	}
	if visit == nil && op != FoldCopy {
		out[n] = Pair{Key: cur, Ptr: acc}
		n++
	}
	return n
}

// cursor is one live run of MultiMergeFold: its pairs, the next one to
// emit, its index in the caller's slice, and all ones when its pairs fold
// as 1. The cursor is an index, not a re-sliced run, so advancing it
// stores no pointer and costs no GC write barrier.
type cursor struct {
	pairs []Pair
	next  int
	run   int
	unit  uint64
}

// treeNode is one contender of MultiMergeFold's loser tree: a leaf and
// the key at its cursor.
type treeNode struct {
	key, run uint64
}

// beats orders contenders by key, ties by leaf index.
func (a treeNode) beats(b treeNode) bool {
	return a.key < b.key || (a.key == b.key && a.run < b.run)
}
