package algo

import "sync"

// The engine splits grouping between two sort kernels (paper Table 2):
// RadixSortPairs forms the first-level sorted runs — bundle-sized KPAs
// whose keys it spreads with sequential-access scatter passes — and the
// merge kernels in sort.go combine those runs level by level. Radix is
// the bandwidth-friendly choice for run formation (it streams the data
// a fixed number of times regardless of n), while merging stays
// comparison-based so runs of any key distribution combine in one pass.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
)

// RadixSortPairs sorts pairs in place by key with an LSD radix sort:
// 8-bit digits over the 64-bit key, one histogram pre-pass, then one
// scatter pass per non-degenerate digit, ping-ponging between the input
// and a scratch buffer drawn from s. Digits on which every key agrees
// (common when keys occupy a bounded domain) are skipped, so sorting
// 32-bit-valued keys costs four passes, not eight. With workers > 1 the
// histogram and scatter of each pass are computed in parallel over
// contiguous segments. The sort is stable — every scatter pass is, as
// LSD needs, and so is the tiny-run path: the native runtime stages a
// bundle's pairs in row order, and an order-sensitive aggregator must
// see a key's values in that order.
func RadixSortPairs(pairs []Pair, workers int, s *Scratch) {
	n := len(pairs)
	if n <= 1 {
		return
	}
	if n <= 64 {
		insertionSort(pairs) // beats 8 passes on tiny runs
		return
	}

	// One read pass counts all eight digit histograms; digit histograms
	// are permutation-invariant, so they stay valid across passes.
	var hist [radixPasses][radixBuckets]int
	for i := range pairs {
		k := pairs[i].Key
		for d := 0; d < radixPasses; d++ {
			hist[d][(k>>(uint(d)*radixBits))&(radixBuckets-1)]++
		}
	}

	buf := s.GetPairs(n)
	defer s.PutPairs(buf)
	src, dst := pairs, buf
	for d := 0; d < radixPasses; d++ {
		if degenerateDigit(&hist[d], n) {
			continue
		}
		shift := uint(d) * radixBits
		if workers > 1 {
			parallelScatter(dst, src, shift, workers)
		} else {
			var off [radixBuckets]int
			sum := 0
			for b := 0; b < radixBuckets; b++ {
				off[b] = sum
				sum += hist[d][b]
			}
			for i := range src {
				b := (src[i].Key >> shift) & (radixBuckets - 1)
				dst[off[b]] = src[i]
				off[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// degenerateDigit reports whether every key shares one value of the
// digit (the pass would be an identity permutation).
func degenerateDigit(h *[radixBuckets]int, n int) bool {
	for _, c := range h {
		if c == n {
			return true
		}
		if c > 0 {
			return false
		}
	}
	return false
}

// parallelScatter performs one radix pass from src to dst with up to
// workers goroutines: each worker histograms its contiguous segment,
// segment offsets are combined into disjoint per-(worker, bucket)
// scatter cursors, and the workers scatter concurrently. Within a
// bucket, segment order is preserved (the pass is stable), which LSD
// correctness requires.
func parallelScatter(dst, src []Pair, shift uint, workers int) {
	n := len(src)
	if workers > n/radixBuckets {
		workers = n / radixBuckets // keep per-segment histograms meaningful
	}
	if workers < 2 {
		var off [radixBuckets]int
		var hist [radixBuckets]int
		for i := range src {
			hist[(src[i].Key>>shift)&(radixBuckets-1)]++
		}
		sum := 0
		for b := 0; b < radixBuckets; b++ {
			off[b] = sum
			sum += hist[b]
		}
		for i := range src {
			b := (src[i].Key >> shift) & (radixBuckets - 1)
			dst[off[b]] = src[i]
			off[b]++
		}
		return
	}
	bounds := make([]int, workers+1)
	for i := 0; i <= workers; i++ {
		bounds[i] = i * n / workers
	}
	counts := make([][radixBuckets]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seg := src[bounds[w]:bounds[w+1]]
			for i := range seg {
				counts[w][(seg[i].Key>>shift)&(radixBuckets-1)]++
			}
		}(w)
	}
	wg.Wait()
	// Cursor for (worker w, bucket b): all smaller buckets, then bucket
	// b's share of the preceding segments.
	sum := 0
	for b := 0; b < radixBuckets; b++ {
		for w := 0; w < workers; w++ {
			c := counts[w][b]
			counts[w][b] = sum
			sum += c
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := &counts[w]
			seg := src[bounds[w]:bounds[w+1]]
			for i := range seg {
				b := (seg[i].Key >> shift) & (radixBuckets - 1)
				dst[off[b]] = seg[i]
				off[b]++
			}
		}(w)
	}
	wg.Wait()
}
