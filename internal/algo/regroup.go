package algo

import (
	"math/bits"
	"sync"
)

// Regrouping is MultiMergeFold's way through every merge the table does
// not take — a copy, a word fold or a visitor, of any run count, pair
// count or out length: the sorted runs are split on one key digit and
// each digit's bucket — a segment of every run, together about an L1's
// worth of pairs — is sorted on its own by a counting pass straight from
// those segments, finished by one insertion pass, then folded without a
// branch on the keys. Every pass is sequential, and the work per pair
// does not grow with the run count.
//
// The order is mergeRef's, bit for bit: segments are read in run order
// and every step is stable (the counting scatter, the insertion finish,
// sortVarying for a long segment), so equal keys come out by run index,
// then in run order.

// regroupLeaf is the pairs a bucket aims at: 2 048 pairs are 32 KiB, an
// L1's worth, sorted by one counting pass whose counters stay in L1 too.
// A bucket over twice that — clustered keys — regroups again on the digit
// below its own common prefix.
const (
	regroupLeaf    = 2048
	regroupLeafCap = 2 * regroupLeaf
)

// foldRegroup merges the live runs, total pairs, into the sink f names
// and returns how many pairs it wrote: every pair for FoldCopy, one per
// distinct key for FoldAdd, none to a visitor. It may consume live's
// cursors.
func foldRegroup(live []cursor, total int, f Fold, out []Pair) int {
	if total == 0 {
		return 0
	}
	g := regroupPool.Get().(*regrouper)
	defer regroupPool.Put(g)
	n := g.merge(live, total, f, out)
	// The segment stack points into the caller's runs; the pool must not
	// keep them alive.
	clear(g.segs[:cap(g.segs)])
	return n
}

// regrouper is foldRegroup's scratch, reused across calls: the counting
// pass's counters; the buffer a leaf sorts into when out cannot take it —
// a visitor's leaf, or a word fold's whose out is shorter than the leaf —
// and the buffer a long segment sorts through; and a stack of segments,
// a bucket's per level of regrouping.
type regrouper struct {
	count [narrowBuckets]uint32
	leaf  [regroupLeafCap]Pair
	buf   [regroupLeafCap]Pair
	segs  []cursor
}

var regroupPool = sync.Pool{New: func() any { return new(regrouper) }}

// merge hands the merge of segs (sorted, in run order, total pairs) to
// the sink f names, writing into out after whatever the buckets before
// wrote, and returns the pairs written; it may leave segs empty. One
// segment, or segments whose keys are all equal, are in merge order
// already (ordered); a merge that fits a leaf is sorted at once
// (sortLeaf). Otherwise the digit is the b bits just below the common
// prefix of the least and greatest key, b sized so a bucket holds about
// regroupLeaf pairs — or every varying bit, when they are no more than
// narrowBits and a run holds 16 pairs per key value they span, so that
// every bucket is one key and none is sorted; every run splits on it by
// binary search, and each bucket — the runs' segments of that digit, in
// run order — merges in digit order.
func (g *regrouper) merge(segs []cursor, total int, f Fold, out []Pair) int {
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range segs {
		lo, hi = min(lo, s.pairs[0].Key), max(hi, s.pairs[len(s.pairs)-1].Key)
	}
	if len(segs) == 1 || lo == hi {
		return ordered(segs, f, out)
	}
	if total <= regroupLeafCap {
		return g.sortLeaf(segs, total, lo, hi, f, out)
	}
	top := uint(64 - bits.LeadingZeros64(lo^hi))
	b := min(uint(bits.Len(uint((total-1)/regroupLeaf))), top, narrowBits)
	if top <= narrowBits && total >= len(segs)<<(top+4) {
		// Few keys, each 16 pairs of every run on average: split on all of
		// them, so that every bucket is one key, in merge order already.
		b = top
	}
	sh := top - b
	n, last := 0, hi>>sh
	for d := lo >> sh; ; d++ {
		// Bucket d is every segment's front up to its first key past digit
		// d, cut off the segment: no table of bounds is kept, and the
		// search that ends a bucket touches the lines its merge reads next.
		start, size := len(g.segs), 0
		for j := range segs {
			s := &segs[j]
			e := len(s.pairs)
			if d < last {
				e = searchShifted(s.pairs, d+1, sh)
			}
			if e > 0 {
				g.segs = append(g.segs, cursor{pairs: s.pairs[:e], unit: s.unit})
				s.pairs = s.pairs[e:]
				size += e
			}
		}
		if size > 0 {
			n += g.merge(g.segs[start:], size, f, out[n:])
		}
		g.segs = g.segs[:start]
		if d == last {
			return n
		}
	}
}

// searchShifted returns the first index of the sorted pairs whose key,
// shifted right by sh, is at least t. The bucket's end is usually near,
// so it gallops from the front — steps of 1, 2, 4, … — and bisects the
// last step.
func searchShifted(pairs []Pair, t uint64, sh uint) int {
	lo, hi := 0, len(pairs)
	for step := 1; lo+step < hi; step *= 2 {
		if pairs[lo+step].Key>>sh >= t {
			hi = lo + step
			break
		}
		lo += step
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pairs[m].Key>>sh < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// ordered hands segs whose concatenation is already in merge order — one
// segment, or keys all equal — to the sink f names, from the segments
// themselves, and returns the pairs it wrote.
func ordered(segs []cursor, f Fold, out []Pair) int {
	n := 0
	switch {
	case f.Visit != nil:
		for _, s := range segs {
			for _, p := range s.pairs {
				f.Visit(p)
			}
		}
	case f.Op == FoldCopy:
		for _, s := range segs {
			n += copy(out[n:], s.pairs)
		}
	default:
		key, acc := segs[0].pairs[0].Key, uint64(0)
		for _, s := range segs {
			u := s.unit
			for _, p := range s.pairs {
				if p.Key != key {
					out[n] = Pair{Key: key, Ptr: acc}
					n++
					key, acc = p.Key, 0
				}
				acc += p.Ptr&^u | u&1
			}
		}
		out[n] = Pair{Key: key, Ptr: acc}
		n++
	}
	return n
}

// sortLeaf merges a leaf — segs of total pairs, at most regroupLeafCap,
// keys from lo to hi, lo < hi — into the sink f names and returns the
// pairs it wrote. The leaf is sorted (sortInto) into out when out has a
// slot per pair, else into the regrouper's leaf buffer, and folded there
// unless f's op is FoldCopy; a visitor then gets the buffer's pairs in
// order, and a word fold's rows are copied out.
func (g *regrouper) sortLeaf(segs []cursor, total int, lo, hi uint64, f Fold, out []Pair) int {
	dst := out
	if f.Visit != nil || len(out) < total {
		dst = g.leaf[:]
	}
	dst = dst[:total]
	g.sortInto(segs, dst, lo, hi)
	n := foldSorted(dst, f.Op)
	switch {
	case f.Visit != nil:
		for _, p := range dst {
			f.Visit(p)
		}
		return 0
	case len(out) < total:
		copy(out[:n], dst[:n])
	}
	return n
}

// sortInto sorts the segs' pairs, keys from lo to hi, into dst (one slot
// each), writing a Units run's values as 1. A short leaf is copied in
// run order and finished by insertion. Any other is one counting pass
// over the (at most narrowBits, and no more than its pairs need) top bits
// below the leaf's common prefix, finished by insertion over the whole
// leaf when no counter exceeds insertionMax, otherwise segment by segment
// — sortVarying for one longer than that.
//
// The pass is the leaf's own rather than countingSort's or sortVarying's
// because it scatters from several segments and rewrites Units values on
// the way. Copying the segments out first and sorting them with
// sortVarying, as RadixSortPairs would, reads 1.3–2.7× slower per pair on
// BenchmarkMergeShapes. Its 8-bit digits take two scatter passes over a
// leaf of hashed keys where this takes one.
func (g *regrouper) sortInto(segs []cursor, dst []Pair, lo, hi uint64) {
	if len(dst) <= insertionMax {
		at := 0
		for _, s := range segs {
			u := s.unit
			for _, p := range s.pairs {
				dst[at] = Pair{Key: p.Key, Ptr: p.Ptr&^u | u&1}
				at++
			}
		}
		insertionSort(dst)
		return
	}
	top := uint(64 - bits.LeadingZeros64(lo^hi))
	c := min(top, narrowBits, uint(bits.Len(uint(len(dst)))))
	sh := (top - c) & 63
	// The second mask is the first's bound, in a form the compiler can
	// read: no counter lookup carries a bounds check.
	mask := (uint64(1)<<c - 1) & (narrowBuckets - 1)
	cnt := &g.count
	clear(cnt[:mask+1])
	for _, s := range segs {
		for _, p := range s.pairs {
			cnt[p.Key>>sh&mask]++
		}
	}
	sum, most := uint32(0), uint32(0)
	for d, m := range cnt[:mask+1] {
		cnt[d] = sum
		sum += m
		most = max(most, m)
	}
	for _, s := range segs {
		u := s.unit
		for _, p := range s.pairs {
			d := p.Key >> sh & mask
			dst[cnt[d]] = Pair{Key: p.Key, Ptr: p.Ptr&^u | u&1}
			cnt[d]++
		}
	}
	// Each cnt[d] is now the end of digit d's segment. With sh 0 the
	// digit is the whole varying key, so every segment is one key.
	switch {
	case sh == 0:
	case most <= insertionMax:
		insertionSort(dst)
	default:
		from := 0
		for _, end := range cnt[:mask+1] {
			g.finish(dst[from:end])
			from = int(end)
		}
	}
}

// finish sorts one segment of a counting pass, stably: insertion up to
// insertionMax pairs, sortVarying through the leaf's buffer above it.
func (g *regrouper) finish(seg []Pair) {
	if len(seg) <= insertionMax {
		insertionSort(seg)
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, p := range seg {
		or |= p.Key
		and &= p.Key
	}
	if vary := or ^ and; vary != 0 {
		sortVarying(seg, g.buf[:len(seg)], vary)
	}
}

// foldSorted folds the runs of equal keys of sorted pairs in place, one
// pair per key holding the wrapping sum of its values, and returns how
// many are left; FoldCopy leaves them all.
//
// The loop has no branch on the keys: hashed keys drawn from about as
// many ids as a merge holds pairs repeat one pair in three, which a
// key-change branch mispredicts: on the 2-vCPU reference host
// BenchmarkFoldSorted reads ~2.5 ns a pair against ~5.2 on such keys.
// Where keys never repeat the branch always predicts, and this loop
// costs up to half a nanosecond a pair more. Every step stores the
// running pair at pairs[n] — a slot at or behind the pair it reads —
// and then advances n by neq, 1 where the key changes and 0 where it
// repeats, while a mask of neq − 1 selects the new value: p's alone
// where the key changes, p's added to the running sum where it repeats.
func foldSorted(pairs []Pair, op FoldOp) int {
	if op == FoldCopy || len(pairs) == 0 {
		return len(pairs)
	}
	n, key, acc := 0, pairs[0].Key, pairs[0].Ptr
	for _, p := range pairs[1:] {
		pairs[n] = Pair{Key: key, Ptr: acc}
		neq := keyChange(key, p.Key)
		n += int(neq)
		key, acc = p.Key, p.Ptr+acc&(neq-1)
	}
	pairs[n] = Pair{Key: key, Ptr: acc}
	return n + 1
}

// keyChange is 1 when a and b differ and 0 when they are equal. The
// compiler makes the assignment a SETNE, not a branch; the arithmetic
// form ((a^b) | -(a^b)) >> 63 measured slower in foldSorted.
func keyChange(a, b uint64) uint64 {
	var neq uint64
	if a != b {
		neq = 1
	}
	return neq
}
