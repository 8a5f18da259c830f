package algo

import mathbits "math/bits"

// Grouping has one kernel per step (paper Table 2): RadixSortPairs (or
// RadixSortColumns) forms the first-level sorted runs — bundle-sized KPAs
// whose keys it spreads with sequential-access scatter passes — and
// MultiMergeFold (multiway.go) combines sorted runs, copying, folding or
// visiting their pairs in one pass over key ranges that MultiWayCuts
// draws. Radix is the bandwidth-friendly choice for run formation (it
// streams the data a bounded number of times regardless of n). Merging
// is the same idea over sorted runs: a merge regroups its runs on a key
// digit (regroup.go), found by binary search in each sorted run, and
// sorts each bucket with this file's counting pass and insertion finish,
// so its cost per pair does not grow with the run count; only a word fold
// over a dense key span takes a table instead.
//
// A scatter pass is worth exactly the bits it separates, so the kernel
// pays only for the bits a run's keys need: when they all fit in one
// wide digit the run is sorted by one counting pass over just those
// bits; otherwise 8-bit digits on which every key agrees are never read,
// and once enough digits have been scattered to spread the run thin the
// rest of the key is finished by insertion.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixDigits  = 64 / radixBits
	// insertionMax is the longest run, or segment of equal prefix, that
	// is finished by insertion sort rather than scattered.
	insertionMax = 64
	// narrowBits is the widest span of varying key bits sorted by one
	// counting pass: 2^11 32-bit counters are 8 KiB, well inside L1.
	narrowBits    = 11
	narrowBuckets = 1 << narrowBits
)

// RadixSortPairs sorts pairs in place by key, stably, drawing one
// scratch buffer from s.
//
// One OR/AND scan of the keys says which bits vary. When they span no
// more than narrowBits — 1 024 dense keys span 10, whatever their common
// high bits — one counting pass over exactly that span sorts the run
// (narrowSpan has the small-run guard). Otherwise the sort is a radix
// sort over 8-bit digits that ping-pongs between the input and the
// scratch. With n pairs, t digits spread them thin (256^t >= n). When no
// more than t digits vary the sort is a plain LSD over exactly those.
// When more vary, LSD runs over the top t of them only — two passes put
// almost every one of 10 000 hashed 64-bit keys in its final place — and
// insertion finishes the rest: one pass over the whole run when the top
// digit's pass left no bucket over insertionMax pairs, which hashed keys
// never do, else a walk over the segments of equal prefix, insertion
// sort up to insertionMax pairs and this same routine above it (its scan
// then skips the digits the prefix fixed). A pair is therefore never
// scattered more often than digits vary, eight at most.
//
// Every step is stable — each scatter pass, as LSD needs, the counting
// pass, the insertion sort, and so the recursion: the native runtime
// stages a bundle's pairs in row order, and an order-sensitive
// aggregator must see a key's values in that order.
func RadixSortPairs(pairs []Pair, s *Scratch) {
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
	vary := or ^ and
	if vary == 0 {
		return // every key is equal: already in stable order
	}
	buf := s.GetPairs(len(pairs))
	sortVarying(pairs, buf, vary)
	s.PutPairs(buf)
}

// sortVarying is RadixSortPairs past its scan: it sorts pairs, whose keys
// differ in the bits of vary (non-zero), through buf (same length).
func sortVarying(pairs, buf []Pair, vary uint64) {
	if lo, bits, ok := narrowSpan(vary, len(pairs)); ok {
		countingSort(buf, pairs, nil, nil, lo, bits)
		copy(pairs, buf)
	} else {
		radixSort(pairs, buf, nil, nil, vary)
	}
}

// RadixSortColumns writes the pairs (keys[i], vals[i]) into dst, which
// has len(keys) slots, sorted by key, stably — RadixSortPairs for a run
// whose keys and values are still two columns, and whose key column s
// scanned (ScanKeys). Narrow keys take the counting pass straight from
// the columns, so each pair is written once, into its sorted slot, with
// no scratch and no copy back. Any other run takes the radix path on the
// varying bits the scan found, and its first scatter pass reads the
// columns too: it writes to dst or to the scratch by the parity of the
// passes, so the last one lands in dst and nothing is zipped or copied.
func RadixSortColumns(dst []Pair, keys, vals []uint64, s KeyScan, scratch *Scratch) {
	n := len(keys)
	dst, vals = dst[:n], vals[:n]
	if lo, bits, ok := narrowSpan(s.Vary, n); ok && n > insertionMax {
		countingSort(dst, nil, keys, vals, lo, bits)
		return
	}
	if n <= insertionMax || s.Vary == 0 {
		for i, k := range keys {
			dst[i] = Pair{Key: k, Ptr: vals[i]}
		}
		if s.Vary != 0 {
			insertionSort(dst)
		}
		return
	}
	buf := scratch.GetPairs(n)
	radixSort(dst, buf, keys, vals, s.Vary)
	scratch.PutPairs(buf)
}

// narrowSpan reports whether n pairs whose keys differ in the bits of
// vary sort in one counting pass, and over which bits: [lo, lo+bits).
// The span must fit narrowBits, and the counters must not outnumber the
// pairs more than 16 to 1: on a shorter run, summing 2^bits of them
// costs more than the 8-bit passes they replace (measured on the 2-vCPU
// reference host: 2^11 counters pay from 128 pairs, 2^10 from 96;
// BenchmarkRadixSortPairs' dense-2048/128 sits on the edge).
func narrowSpan(vary uint64, n int) (lo, bits uint, ok bool) {
	lo = uint(mathbits.TrailingZeros64(vary))
	bits = uint(64-mathbits.LeadingZeros64(vary)) - lo
	return lo, bits, bits <= narrowBits && 1<<bits <= 16*n
}

// countingSort writes n pairs into dst (len n) ordered by key, stably,
// in one counting pass — count, prefix-sum, scatter — over the key bits
// [lo, lo+bits), bits <= narrowBits: every other bit must agree across
// the keys. The pairs are src, or when src is nil the columns keys and
// vals, zipped as they are scattered. Not inlined, like scatter.
//
//go:noinline
func countingSort(dst, src []Pair, keys, vals []uint64, lo, bits uint) {
	lo &= 63
	// The second mask is the first's bound, in a form the compiler can
	// read: no counter lookup carries a bounds check.
	mask := (uint64(1)<<bits - 1) & (narrowBuckets - 1)
	var c [narrowBuckets]uint32
	if src != nil {
		for i := range src {
			c[src[i].Key>>lo&mask]++
		}
	} else {
		for _, k := range keys {
			c[k>>lo&mask]++
		}
	}
	sum := uint32(0)
	for b, n := range c[:mask+1] {
		c[b] = sum
		sum += n
	}
	if src != nil {
		for i := range src {
			b := src[i].Key >> lo & mask
			dst[c[b]] = src[i]
			c[b]++
		}
		return
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		b := k >> lo & mask
		dst[c[b]] = Pair{Key: k, Ptr: vals[i]}
		c[b]++
	}
}

// radixSort sorts pairs, scattering through buf (same length). vary has
// a bit set wherever two of the keys differ. The pairs to sort are pairs
// themselves, or when keys is non-nil the columns keys and vals, which
// the first pass reads (pairs' contents are then ignored).
//
// After the top digits' passes no pair lies outside its top digit's
// bucket, so when the last pass found no bucket longer than insertionMax
// one insertion sort over the whole run finishes it, moving each pair
// only within its segment of equal prefix; the segment walk is the
// fallback for a run whose top digit leaves a heavy bucket.
func radixSort(pairs, buf []Pair, keys, vals []uint64, vary uint64) {
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
		scatterPasses(pairs, buf, keys, vals, shifts[:v])
		return
	}
	top := shifts[v-t : v]
	if scatterPasses(pairs, buf, keys, vals, top) <= insertionMax {
		insertionSort(pairs)
		return
	}
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
			radixSort(pairs[i:j], buf[i:j], nil, nil, or^and)
		} else {
			insertionSort(pairs[i:j])
		}
		i = j
	}
}

// scatterPasses runs one stable counting-sort pass per shift, in order,
// and leaves the result in pairs; it returns the largest bucket of the
// last pass. The passes ping-pong between pairs and buf. When keys is
// non-nil the first pass reads the columns keys and vals instead of
// pairs, into whichever of the two makes the last pass land in pairs;
// otherwise an odd number of passes ends in buf and is copied back.
func scatterPasses(pairs, buf []Pair, keys, vals []uint64, shifts []uint) (most uint32) {
	src, dst := pairs, buf
	if keys != nil {
		if len(shifts)%2 == 1 {
			src, dst = dst, src
		}
		most = scatter(dst, nil, keys, vals, shifts[0])
		src, dst = dst, src
		shifts = shifts[1:]
	}
	for _, sh := range shifts {
		most = scatter(dst, src, nil, nil, sh)
		src, dst = dst, src
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
	return most
}

// scatter moves src into dst ordered by the digit at sh, equal digits in
// src order: count the digit, turn the counts into cursors, scatter. It
// returns the largest count. When src is nil the pairs are the columns
// keys and vals, zipped as they are scattered. The counters are 32-bit —
// a run is a bundle's worth of pairs — and indexed by a byte, so no
// lookup carries a bounds check. Not inlined: on its own the loops keep
// everything in registers, which inside the caller's frame they do not.
//
//go:noinline
func scatter(dst, src []Pair, keys, vals []uint64, sh uint) (most uint32) {
	sh &= 63 // lets the compiler drop the shift's range check
	// Two histograms, alternate pairs: neighbours that share a digit —
	// every pair, when most of a digit's bits are fixed — do not wait on
	// one another's counter.
	var c, odd [radixBuckets]uint32
	if src != nil {
		i := 0
		for ; i+1 < len(src); i += 2 {
			c[uint8(src[i].Key>>sh)]++
			odd[uint8(src[i+1].Key>>sh)]++
		}
		if i < len(src) {
			c[uint8(src[i].Key>>sh)]++
		}
	} else {
		i := 0
		for ; i+1 < len(keys); i += 2 {
			c[uint8(keys[i]>>sh)]++
			odd[uint8(keys[i+1]>>sh)]++
		}
		if i < len(keys) {
			c[uint8(keys[i]>>sh)]++
		}
	}
	sum := uint32(0)
	for b, n := range c {
		c[b] = sum
		n += odd[b]
		sum += n
		most = max(most, n)
	}
	if src != nil {
		for i := range src {
			b := uint8(src[i].Key >> sh)
			dst[c[b]] = src[i]
			c[b]++
		}
		return most
	}
	vals = vals[:len(keys)]
	for i, k := range keys {
		b := uint8(k >> sh)
		dst[c[b]] = Pair{Key: k, Ptr: vals[i]}
		c[b]++
	}
	return most
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
