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
// key-aligned ranges MultiWayCuts draws. The merge picks one of two ways
// from its input: a table indexed by key for a word fold over a dense
// span, and a regroup on one key digit for everything else — every run
// split by binary search, each bucket sorted by a counting pass, so the
// work per pair does not grow with the run count. Scratch buffers come
// from an *Scratch so a recycling allocator (internal/mempool) can back
// the hot path.
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

// Keys copies the key column out of pairs (testing helper).
func Keys(pairs []Pair) []uint64 {
	out := make([]uint64, len(pairs))
	for i, p := range pairs {
		out[i] = p.Key
	}
	return out
}
