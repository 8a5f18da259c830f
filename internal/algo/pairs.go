// Package algo implements the streaming algorithm library of the paper
// (§4.2): sequential-access grouping kernels over 16-byte key/pointer
// pairs, plus the open-addressing hash table used as the DRAM-era
// baseline and as the external-join side table.
//
// Grouping has one kernel per step, the paper's Table 2 split: radix
// sort (RadixSortPairs, RadixSortColumns) forms first-level sorted runs
// with streaming scatter passes — one per key digit that varies, at most
// as many as spread the run thin, the rest finished by insertion — and
// one k-way merge (MultiMergeFold) combines sorted runs, over the
// key-aligned ranges MultiWayCuts draws. The merge picks its way from
// its input: a table indexed by key for a word fold over a dense span,
// a regroup on one key digit for a copy or word fold of at least
// regroupRuns (3) runs holding more pairs than one leaf sorts
// (regroupMinPairs), into an out with a slot per pair — every run split
// by binary search, each bucket sorted by a counting pass, so the work
// per pair does not grow with the run count — and a loser tree for the
// rest: a visitor, two runs, a short merge or a short out. Scratch buffers come from an *Scratch so a recycling
// allocator (internal/mempool) can back the hot path.
//
// All kernels are real implementations operating on real data; the
// engine charges their virtual cost through memsim demand profiles.
package algo

// Pair is one KPA element: a 64-bit resident key and a 64-bit pointer.
// The pointer payload is opaque to this package; the kpa package packs
// (bundle ID, row) into it.
type Pair struct {
	Key uint64
	Ptr uint64
}

// PairsSorted reports whether pairs is non-decreasing by key.
func PairsSorted(pairs []Pair) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key > pairs[i].Key {
			return false
		}
	}
	return true
}

// Keys copies the key column out of pairs (testing helper).
func Keys(pairs []Pair) []uint64 {
	out := make([]uint64, len(pairs))
	for i, p := range pairs {
		out[i] = p.Key
	}
	return out
}
