package algo

// The engine splits grouping between two sort kernels (paper Table 2):
// RadixSortPairs forms the first-level sorted runs — bundle-sized KPAs
// whose keys it spreads with sequential-access scatter passes — and the
// merge kernels in sort.go combine those runs level by level. Radix is
// the bandwidth-friendly choice for run formation (it streams the data
// a bounded number of times regardless of n), while merging stays
// comparison-based so runs of any key distribution combine in one pass.
//
// A scatter pass is worth exactly the bits it separates, so the kernel
// pays only for the digits a run's keys need: digits on which every key
// agrees are never read, and once enough digits have been scattered to
// spread the run thin the rest of the key is finished by insertion.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits
	// insertionMax is the longest run, or segment of equal prefix, that
	// is finished by insertion sort rather than scattered.
	insertionMax = 64
)

// RadixSortPairs sorts pairs in place by key, stably, with a radix sort
// over 8-bit digits that ping-pongs between the input and one scratch
// buffer drawn from s.
//
// One OR/AND scan of the keys says which digits vary. With n pairs, t
// digits spread them thin (256^t >= n). When no more than t digits vary
// the sort is a plain LSD over exactly those: 1 024 dense keys cost two
// passes, not eight. When more vary, LSD runs over the top t of them
// only — two passes put almost every one of 10 000 hashed 64-bit keys in
// its final place — and a walk over the segments of equal prefix
// finishes each one: insertion sort up to insertionMax pairs, this same
// routine above it (its scan then skips the digits the prefix fixed). A
// pair is therefore never scattered more often than digits vary, eight
// at most.
//
// Every step is stable — each scatter pass, as LSD needs, the insertion
// sort, and so the recursion: the native runtime stages a bundle's pairs
// in row order, and an order-sensitive aggregator must see a key's
// values in that order. The second argument is unused (it selected a
// goroutine fan-out no caller wanted; ROADMAP item 1(e) drops it
// together with kpa.SortRadix's).
func RadixSortPairs(pairs []Pair, _ int, s *Scratch) {
	if len(pairs) <= insertionMax {
		insertionSort(pairs)
		return
	}
	or, and := uint64(0), ^uint64(0)
	for i := range pairs {
		k := pairs[i].Key
		or |= k
		and &= k
	}
	buf := s.GetPairs(len(pairs))
	radixSort(pairs, buf, or^and)
	s.PutPairs(buf)
}

// radixSort sorts pairs, scattering through buf (same length). vary has
// a bit set wherever two of the keys differ.
func radixSort(pairs, buf []Pair, vary uint64) {
	n := len(pairs)
	// shifts[:v] are the digits on which some two keys differ, low to high.
	var shifts [radixDigits]uint
	v := 0
	for sh := uint(0); sh < 64; sh += radixBits {
		if vary>>sh&(radixBuckets-1) != 0 {
			shifts[v] = sh
			v++
		}
	}
	t := 1
	for span := radixBuckets; span < n && t < radixDigits; span <<= radixBits {
		t++
	}
	if v <= t {
		scatterPasses(pairs, buf, shifts[:v])
		return
	}
	top := shifts[v-t : v]
	scatterPasses(pairs, buf, top)
	// Keys that agree above the lowest scattered digit are now adjacent,
	// in input order: each such segment is an independent stable sort on
	// the digits below. The walk that finds a segment's end is also the
	// OR/AND scan of its keys.
	sh := top[0]
	for i := 0; i < n; {
		first := pairs[i].Key
		or, and := first, first
		j := i + 1
		for ; j < n && pairs[j].Key>>sh == first>>sh; j++ {
			or |= pairs[j].Key
			and &= pairs[j].Key
		}
		if j-i > insertionMax {
			radixSort(pairs[i:j], buf[i:j], or^and)
		} else {
			insertionSort(pairs[i:j])
		}
		i = j
	}
}

// scatterPasses runs one stable counting-sort pass per shift, in order,
// and leaves the result in pairs.
func scatterPasses(pairs, buf []Pair, shifts []uint) {
	src, dst := pairs, buf
	for _, sh := range shifts {
		scatter(dst, src, sh)
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// scatter moves src into dst ordered by the digit at sh, equal digits in
// src order: count the digit, turn the counts into cursors, scatter. The
// counters are 32-bit — a run is a bundle's worth of pairs — and indexed
// by a byte, so no lookup carries a bounds check. Not inlined: on its
// own the loops keep everything in registers, which inside the caller's
// frame they do not.
//
//go:noinline
func scatter(dst, src []Pair, sh uint) {
	sh &= 63 // lets the compiler drop the shift's range check
	// Two histograms, alternate pairs: neighbours that share a digit —
	// every pair, when most of a digit's bits are fixed — do not wait on
	// one another's counter.
	var c, odd [radixBuckets]uint32
	i := 0
	for ; i+1 < len(src); i += 2 {
		c[uint8(src[i].Key>>sh)]++
		odd[uint8(src[i+1].Key>>sh)]++
	}
	if i < len(src) {
		c[uint8(src[i].Key>>sh)]++
	}
	sum := uint32(0)
	for b, n := range c {
		c[b] = sum
		sum += n + odd[b]
	}
	for i := range src {
		b := uint8(src[i].Key >> sh)
		dst[c[b]] = src[i]
		c[b]++
	}
}
