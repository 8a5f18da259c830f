package algo

import (
	"math/bits"
	"sort"
)

// Range-partitioned k-way merging (paper §4.3, "Parallel Full KPA
// Merge"): instead of combining R sorted runs through log2(R) pairwise
// levels — each materializing a full copy of the data — the key space
// is partitioned once across all runs (MultiWayCuts) and each partition
// streams through a single loser-tree merge (MultiMergeVisit) on its
// own core. The merge emits pairs through a visitor instead of an
// output buffer, so a consumer (keyed reduction, materialization) can
// fold them inline: closing a window costs one sequential read of the
// inputs and zero intermediate allocations.

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

// MultiMergeVisit streams the merge of k sorted runs in ascending key
// order, invoking visit once per pair with the index of the run it came
// from — no output buffer, so consumers fold pairs inline. Ties between
// runs resolve by run index (lowest first), the same order the
// levelwise pairwise merge tree produces, so a fused consumer sees the
// exact pair sequence the materializing path would. The k cursors
// advance through a loser tree whose nodes carry their run's current
// key: replaying a path compares node to node — one comparison per level
// per emitted pair — and run data is touched once per pair, to visit it
// and to fetch the key that follows it.
func MultiMergeVisit(runs [][]Pair, visit func(run int, p Pair)) {
	// Fast paths for the fan-ins that need no tree.
	live, total := 0, 0
	a, b := -1, -1
	for j, r := range runs {
		if len(r) > 0 {
			if live++; a < 0 {
				a = j
			} else {
				b = j
			}
			total += len(r)
		}
	}
	switch live {
	case 0:
		return
	case 1:
		for _, p := range runs[a] {
			visit(a, p)
		}
		return
	case 2:
		mergeVisit2(a, runs[a], b, runs[b], visit)
		return
	}

	k := len(runs)
	m := 1
	for m < k {
		m *= 2
	}
	// An exhausted (or absent) leaf i is (MaxUint64, k+i): it loses every
	// tie to a live run — a live key of MaxUint64 still wins — so the loop
	// needs no sentinel test and ends by count.
	loser := make([]treeNode, m) // internal nodes 1..m-1 hold match losers
	win := make([]treeNode, 2*m) // scratch winners for the initial build
	for i := 0; i < m; i++ {
		if i < k && len(runs[i]) > 0 {
			win[m+i] = treeNode{runs[i][0].Key, uint64(i)}
		} else {
			win[m+i] = treeNode{^uint64(0), uint64(k + i)}
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
	rest := make([][]Pair, k) // rest[j] is what run j has yet to emit
	copy(rest, runs)
	for ; total > 0; total-- {
		r := int(w.run)
		run := rest[r]
		visit(r, run[0])
		run = run[1:]
		rest[r] = run
		if len(run) == 0 {
			w = treeNode{^uint64(0), uint64(k + r)}
		} else if run[0].Key != w.key {
			w.key = run[0].Key
		} else {
			// The winner follows itself: what beat every other run
			// still does.
			continue
		}
		// Replay the leaf-to-root path: the new cursor competes against
		// the stored losers; the surviving node is the next winner.
		for n := (m + r) / 2; n >= 1; n /= 2 {
			l := loser[n]
			// swap is all ones when l beats w: the 128-bit subtraction
			// (l.key:l.run) - (w.key:w.run) borrows. Which of the two
			// wins is a coin toss on real data, so the exchange is
			// arithmetic rather than a branch.
			_, borrow := bits.Sub64(l.run, w.run, 0)
			_, borrow = bits.Sub64(l.key, w.key, borrow)
			swap := -borrow
			dk, dr := (l.key^w.key)&swap, (l.run^w.run)&swap
			loser[n] = treeNode{l.key ^ dk, l.run ^ dr}
			w = treeNode{w.key ^ dk, w.run ^ dr}
		}
	}
}

// treeNode is one contender of MultiMergeVisit's loser tree: a run and
// the key at its cursor.
type treeNode struct {
	key, run uint64
}

// beats orders contenders by key, ties by run index.
func (a treeNode) beats(b treeNode) bool {
	return a.key < b.key || (a.key == b.key && a.run < b.run)
}

// mergeVisit2 is the two-cursor fast path of MultiMergeVisit; ia < ib
// are the runs' indices in the caller's slice.
func mergeVisit2(ia int, a []Pair, ib int, b []Pair, visit func(run int, p Pair)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key <= b[j].Key {
			visit(ia, a[i])
			i++
		} else {
			visit(ib, b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		visit(ia, a[i])
	}
	for ; j < len(b); j++ {
		visit(ib, b[j])
	}
}
