package algo

import "sort"

// blockPairs is the run length sorted in cache before merging, standing
// in for the paper's 64-element AVX-512 bitonic blocks (scaled up for a
// scalar implementation).
const blockPairs = 1 << 12

// SortPairs sorts pairs in place by key (stable order of equal keys is
// not guaranteed). It is the single-threaded comparison kernel: blocked
// runs are formed in cache and then merged, mirroring the paper's chunk
// sort. The engine's hot path uses RadixSortPairs for first-level run
// formation instead and keeps this merge structure for combining runs.
func SortPairs(pairs []Pair) { SortPairsScratch(pairs, nil) }

// SortPairsScratch is SortPairs with the merge ping-pong buffer drawn
// from s instead of the Go heap.
func SortPairsScratch(pairs []Pair, s *Scratch) {
	n := len(pairs)
	if n <= 1 {
		return
	}
	if n <= blockPairs {
		sortRun(pairs)
		return
	}
	// Sort cache-sized blocks, then bottom-up merge with a scratch buffer.
	for lo := 0; lo < n; lo += blockPairs {
		hi := lo + blockPairs
		if hi > n {
			hi = n
		}
		sortRun(pairs[lo:hi])
	}
	scratch := s.GetPairs(n)
	defer s.PutPairs(scratch)
	src, dst := pairs, scratch
	for width := blockPairs; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// sortRun sorts a short run (insertion sort for tiny runs, pattern-
// defeating stdlib sort otherwise).
func sortRun(run []Pair) {
	if len(run) <= 24 {
		insertionSort(run)
		return
	}
	sort.Slice(run, func(i, j int) bool { return run[i].Key < run[j].Key })
}

// insertionSort sorts a tiny run by key; equal keys keep their order.
func insertionSort(run []Pair) {
	for i := 1; i < len(run); i++ {
		p := run[i]
		j := i - 1
		for j >= 0 && run[j].Key > p.Key {
			run[j+1] = run[j]
			j--
		}
		run[j+1] = p
	}
}

// mergeRuns merges sorted a and b into dst; len(dst) == len(a)+len(b).
func mergeRuns(dst, a, b []Pair) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Key <= b[j].Key {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// MergeInto merges sorted a and b into dst, which must have length
// len(a)+len(b).
func MergeInto(dst, a, b []Pair) {
	if len(dst) != len(a)+len(b) {
		panic("algo: MergeInto destination has wrong length")
	}
	mergeRuns(dst, a, b)
}

// MultiMerge merges k sorted runs into one sorted slice by levelwise
// pairwise merging (the shape the engine schedules as parallel tasks).
// All levels merge between two ping-pong buffers, so the whole k-way
// merge costs two buffers of the total size instead of a fresh slice per
// pairwise merge per level.
func MultiMerge(runs [][]Pair) []Pair {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if len(runs) == 0 {
		return nil
	}
	out := make([]Pair, n)
	MultiMergeInto(out, runs, nil)
	return out
}

// MultiMergeInto merges k sorted runs into dst, whose length must equal
// the total run length. The single ping-pong scratch buffer comes from
// s, so with a pool-backed scratch the merge moves no memory through
// the Go heap beyond the small run-bounds index.
func MultiMergeInto(dst []Pair, runs [][]Pair, s *Scratch) {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if len(dst) != n {
		panic("algo: MultiMergeInto destination has wrong length")
	}
	switch len(runs) {
	case 0:
		return
	case 1:
		copy(dst, runs[0])
		return
	}
	levels := 0
	for c := len(runs); c > 1; c = (c + 1) / 2 {
		levels++
	}
	scratch := s.GetPairs(n)
	defer s.PutPairs(scratch)
	// Start in whichever buffer lands the final level's output in dst.
	src, dst2 := dst, scratch
	if levels%2 == 1 {
		src, dst2 = scratch, dst
	}
	// bounds[i] is the start of run i in src; compacted in place as
	// levels halve the run count (writes trail the reads).
	bounds := make([]int, len(runs)+1)
	off := 0
	for i, r := range runs {
		copy(src[off:], r)
		off += len(r)
		bounds[i+1] = off
	}
	for len(bounds) > 2 {
		m := 1
		for i := 0; i+2 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+2]
			mergeRuns(dst2[lo:hi], src[lo:mid], src[mid:hi])
			bounds[m] = hi
			m++
		}
		if (len(bounds)-1)%2 == 1 { // odd run left over: copy through
			lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
			copy(dst2[lo:hi], src[lo:hi])
			bounds[m] = hi
			m++
		}
		bounds = bounds[:m]
		src, dst2 = dst2, src
	}
}
