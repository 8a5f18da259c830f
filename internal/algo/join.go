package algo

// JoinSorted scans two key-sorted pair slices in one pass and calls emit
// for every pair of elements sharing a key (the cross product within
// each matching key group), the paper's Join primitive.
func JoinSorted(a, b []Pair, emit func(key uint64, pa, pb uint64)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			i++
		case a[i].Key > b[j].Key:
			j++
		default:
			key := a[i].Key
			ie := i
			for ie < len(a) && a[ie].Key == key {
				ie++
			}
			je := j
			for je < len(b) && b[je].Key == key {
				je++
			}
			for x := i; x < ie; x++ {
				for y := j; y < je; y++ {
					emit(key, a[x].Ptr, b[y].Ptr)
				}
			}
			i, j = ie, je
		}
	}
}

// PartitionByKeyRange splits pairs (not necessarily sorted) into
// len(boundaries)+1 buckets: bucket i holds keys in
// [boundaries[i-1], boundaries[i]), with open ends. boundaries must be
// strictly ascending. This is the Partition primitive used for
// windowing, where the key is the timestamp and boundaries are window
// edges.
func PartitionByKeyRange(pairs []Pair, boundaries []uint64) [][]Pair {
	out := make([][]Pair, len(boundaries)+1)
	bucketOf := func(k uint64) int {
		lo, hi := 0, len(boundaries)
		for lo < hi {
			mid := (lo + hi) / 2
			if k < boundaries[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	for _, p := range pairs {
		b := bucketOf(p.Key)
		out[b] = append(out[b], p)
	}
	return out
}

// SelectPairs returns the pairs whose key satisfies pred, preserving
// order (the Select primitive: subset with surviving key/pointer pairs).
func SelectPairs(pairs []Pair, pred func(key uint64) bool) []Pair {
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if pred(p.Key) {
			out = append(out, p)
		}
	}
	return out
}
