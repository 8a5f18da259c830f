package algo

import (
	"math/bits"
	"slices"
	"sync"
)

// Regrouping is MultiMergeFold's way through a merge of three or more
// runs that holds more than one leaf of pairs: instead of a
// loser tree that replays log2(k) nodes for every pair, the sorted runs
// are split on one key digit and each digit's bucket — a segment of every
// run, together about an L1's worth of pairs — is sorted on its own by a
// counting pass straight from those segments into out, finished by one
// insertion pass, then folded in place without a branch on the keys.
// Every pass is sequential, and the work per pair does not grow with the
// run count.
//
// The order is the tree's, bit for bit: segments are read in run order
// and every step is stable (the counting scatter, the insertion finish,
// sortVarying for a long segment), so equal keys come out by run index,
// then in run order — mergeRef's definition.

const (
	// regroupLeaf is the pairs a bucket aims at: 2 048 pairs are 32 KiB,
	// an L1's worth, sorted by one counting pass whose counters stay in
	// L1 too. A bucket over twice that — clustered keys — regroups again
	// on the digit below its own common prefix.
	regroupLeaf    = 2048
	regroupLeafCap = 2 * regroupLeaf
	// regroupRuns and regroupMinPairs are the least live runs and pairs a
	// merge regroups, where BenchmarkMergeShapes (2–64 runs, 500–640 000
	// pairs, a sum and a copy) puts the crossover. A merge no larger than
	// one leaf is one counting pass over its runs concatenated, which
	// drops their order: on clustered keys, where most pairs share a
	// counter, it loses to the tree by up to 3×. Above that the regroup
	// wins every cell from 3 runs on, by 1.06–2.7× (1.17–1.44× at 3 runs
	// over ten alternated runs); over 2 runs the tree is one comparison per
	// pair and the two tie (a sum 0.91–1.00× the tree, a copy 1.06–1.14×),
	// so two runs keep the tree.
	regroupRuns     = 3
	regroupMinPairs = regroupLeafCap + 1
)

// regroups reports whether a merge of live runs holding total pairs
// into out regroups: enough runs and pairs, and out has a slot per pair —
// the buckets are sorted in out before they fold. A copy's out always
// has; a word fold's has when its rows are bounded by its pairs, which is
// what RowBound gives hashed keys.
func regroups(live []cursor, total int, out []Pair) bool {
	return len(live) >= regroupRuns && total >= regroupMinPairs && len(out) >= total
}

// foldRegroup merges the live runs, total pairs, into out by regrouping
// and returns how many pairs it wrote: every pair for FoldCopy, else one
// per distinct key. A copy writes its pairs verbatim, so it drops the
// runs' Units marks.
func foldRegroup(live []cursor, total int, op FoldOp, out []Pair) int {
	if op == FoldCopy {
		for i := range live {
			live[i].unit = 0
		}
	}
	g := regroupPool.Get().(*regrouper)
	defer regroupPool.Put(g)
	n := g.merge(live, total, op, out)
	// The segment stack points into the caller's runs; the pool must not
	// keep them alive.
	clear(g.segs[:cap(g.segs)])
	return n
}

// regrouper is foldRegroup's scratch, reused across calls: the counting
// pass's counters, the buffer a long segment sorts through, and two
// stacks — per level of regrouping, a bucket-boundary table and a
// bucket's segments.
type regrouper struct {
	count  [narrowBuckets]uint32
	buf    [regroupLeafCap]Pair
	bounds []int
	segs   []cursor
}

var regroupPool = sync.Pool{New: func() any { return new(regrouper) }}

// merge writes the merge of segs (sorted, in run order, total pairs) into
// out, which holds at least total, and returns the pairs written. A
// merge that fits a leaf, or whose keys are all equal, is sorted at once.
// Otherwise the digit is the b bits just below the common prefix of the
// least and greatest key, b sized so a bucket holds about regroupLeaf
// pairs; every run splits on it by binary search, and each bucket — the
// runs' segments of that digit, in run order — merges in digit order
// into out after the buckets before it, which wrote no more pairs than
// they hold.
func (g *regrouper) merge(segs []cursor, total int, op FoldOp, out []Pair) int {
	lo, hi := ^uint64(0), uint64(0)
	for _, s := range segs {
		lo, hi = min(lo, s.pairs[0].Key), max(hi, s.pairs[len(s.pairs)-1].Key)
	}
	if total <= regroupLeafCap || lo == hi {
		return g.leaf(segs, out[:total], lo, hi, op)
	}
	top := uint(64 - bits.LeadingZeros64(lo^hi))
	b := min(uint(bits.Len(uint((total-1)/regroupLeaf))), top, narrowBits)
	sh := top - b
	first := lo >> sh
	nb, k := int(hi>>sh-first)+1, len(segs)
	// bounds[d*k+j] is where run j's bucket d starts; row nb holds the
	// run's end. The table sits on the stack of tables, above the caller's.
	base := len(g.bounds)
	g.bounds = slices.Grow(g.bounds, (nb+1)*k)[:base+(nb+1)*k]
	bounds := g.bounds[base:]
	for j, s := range segs {
		at := 0
		bounds[j] = 0
		for d := 1; d < nb; d++ {
			at = searchShifted(s.pairs, at, first+uint64(d), sh)
			bounds[d*k+j] = at
		}
		bounds[nb*k+j] = len(s.pairs)
	}
	n := 0
	for d := range nb {
		start, size := len(g.segs), 0
		for j, s := range segs {
			if a, e := bounds[d*k+j], bounds[(d+1)*k+j]; a < e {
				g.segs = append(g.segs, cursor{pairs: s.pairs[a:e], unit: s.unit})
				size += e - a
			}
		}
		if size > 0 {
			n += g.merge(g.segs[start:], size, op, out[n:])
		}
		g.segs = g.segs[:start]
	}
	g.bounds = g.bounds[:base]
	return n
}

// searchShifted returns the first index from at of the sorted pairs whose
// key, shifted right by sh, is at least t. The next bucket's bound is
// usually near, so it gallops from at — steps of 1, 2, 4, … over lines
// the previous search touched — and bisects the last step.
func searchShifted(pairs []Pair, at int, t uint64, sh uint) int {
	lo, hi := at, len(pairs)
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

// leaf sorts the segs' pairs, keys from lo to hi, into dst (one slot
// each), writing a Units run's values as 1, and folds them there unless
// op is FoldCopy; it returns the pairs left. Equal keys are copied in run
// order and a short leaf is finished by insertion. Any other is one
// counting pass over the (at most narrowBits, and no more than its pairs
// need) top bits below the leaf's common prefix, finished by insertion
// over the whole leaf when no counter exceeds insertionMax, otherwise
// segment by segment — sortVarying for one longer than that.
//
// The pass is the leaf's own rather than countingSort's or sortVarying's
// because it scatters from several segments and rewrites Units values on
// the way. Copying the segments out first and sorting them with
// sortVarying, as RadixSortPairs would, reads 1.3–2.7× slower per pair on
// BenchmarkMergeShapes. Its 8-bit digits take two scatter passes over a
// leaf of hashed keys where this takes one.
func (g *regrouper) leaf(segs []cursor, dst []Pair, lo, hi uint64, op FoldOp) int {
	if len(dst) <= insertionMax || lo == hi {
		at := 0
		for _, s := range segs {
			u := s.unit
			for _, p := range s.pairs {
				dst[at] = Pair{Key: p.Key, Ptr: p.Ptr&^u | u&1}
				at++
			}
		}
		if lo != hi {
			insertionSort(dst)
		}
		return foldSorted(dst, op)
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
	return foldSorted(dst, op)
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
// pair per key with op over its values, and returns how many are left;
// FoldCopy leaves them all.
//
// The loop has no branch on the keys: hashed keys drawn from about as
// many ids as a merge holds pairs repeat one pair in three, which a
// key-change branch mispredicts: on the 2-vCPU reference host
// BenchmarkFoldSorted reads ~2.5 ns a pair against ~5.2 on such keys.
// Where keys never repeat the branch always predicts, and this loop
// costs up to half a nanosecond a pair more. Every step stores the running pair at pairs[n] — a slot at or
// behind the pair it reads — and then advances n by neq, 1 where the
// key changes and 0 where it repeats, while a mask of neq − 1 selects
// the new value: p's alone where the key changes, p's folded into the
// running one where it repeats.
func foldSorted(pairs []Pair, op FoldOp) int {
	if op == FoldCopy || len(pairs) == 0 {
		return len(pairs)
	}
	n, key, acc := 0, pairs[0].Key, pairs[0].Ptr
	switch op {
	case FoldAdd:
		for _, p := range pairs[1:] {
			pairs[n] = Pair{Key: key, Ptr: acc}
			neq := keyChange(key, p.Key)
			n += int(neq)
			key, acc = p.Key, p.Ptr+acc&(neq-1)
		}
	case FoldMin:
		for _, p := range pairs[1:] {
			pairs[n] = Pair{Key: key, Ptr: acc}
			neq := keyChange(key, p.Key)
			n += int(neq)
			key, acc = p.Key, min(p.Ptr, acc|^(neq-1))
		}
	default:
		for _, p := range pairs[1:] {
			pairs[n] = Pair{Key: key, Ptr: acc}
			neq := keyChange(key, p.Key)
			n += int(neq)
			key, acc = p.Key, max(p.Ptr, acc&(neq-1))
		}
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
