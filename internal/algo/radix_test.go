package algo

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func randomPairs(n int, seed int64, keyMask uint64) []Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: r.Uint64() & keyMask, Ptr: uint64(i)}
	}
	return out
}

func assertSortedPermutation(t *testing.T, got, orig []Pair) {
	t.Helper()
	if !PairsSorted(got) {
		t.Fatal("output not sorted")
	}
	if len(got) != len(orig) {
		t.Fatalf("length changed: %d vs %d", len(got), len(orig))
	}
	// Ptr values are unique row ids: sorting by Ptr must recover the
	// original multiset exactly.
	a := append([]Pair(nil), got...)
	b := append([]Pair(nil), orig...)
	sort.Slice(a, func(i, j int) bool { return a[i].Ptr < a[j].Ptr })
	sort.Slice(b, func(i, j int) bool { return b[i].Ptr < b[j].Ptr })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("element %d changed: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRadixSortPairs(t *testing.T) {
	masks := map[string]uint64{
		"full64":  ^uint64(0),
		"low32":   (1 << 32) - 1, // upper digits degenerate: 4 passes
		"low8":    255,           // 7 degenerate digits
		"onlyOdd": 0xFF00FF00FF00FF00,
	}
	for name, mask := range masks {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 1 << 14} {
			orig := randomPairs(n, int64(n)+7, mask)
			got := append([]Pair(nil), orig...)
			RadixSortPairs(got, nil)
			if t.Failed() {
				return
			}
			assertSortedPermutation(t, got, orig)
			_ = name
		}
	}
}

// TestRadixSortStable pins that equal keys keep their input order at
// every size class: the insertion-sorted tiny runs (up to 64 pairs — the
// 25 to 64 range went through an unstable sort once) and the scatter.
func TestRadixSortStable(t *testing.T) {
	for _, n := range []int{2, 24, 25, 40, 64, 65, 1000, 70_000} {
		pairs := randomPairs(n, int64(n), 0x0f0f)
		for i := range pairs {
			pairs[i].Ptr = uint64(i)
		}
		RadixSortPairs(pairs, nil)
		for i := 1; i < n; i++ {
			a, b := pairs[i-1], pairs[i]
			if a.Key > b.Key || (a.Key == b.Key && a.Ptr > b.Ptr) {
				t.Fatalf("n=%d: pair %d (key %d, input position %d) follows (key %d, position %d)",
					n, i, b.Key, b.Ptr, a.Key, a.Ptr)
			}
		}
	}
}

func TestRadixSortAllEqualKeys(t *testing.T) {
	pairs := make([]Pair, 500)
	for i := range pairs {
		pairs[i] = Pair{Key: 42, Ptr: uint64(i)}
	}
	orig := append([]Pair(nil), pairs...)
	RadixSortPairs(pairs, nil)
	assertSortedPermutation(t, pairs, orig)
}

// TestRadixSortMatchesMergeSort holds the kernel to the library's stable
// sort (an insertion-and-merge sort) pair for pair, on wide keys and on
// keys narrow enough to repeat.
func TestRadixSortMatchesMergeSort(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0xff} {
		orig := randomPairs(10_000, 3, mask)
		a := append([]Pair(nil), orig...)
		b := append([]Pair(nil), orig...)
		RadixSortPairs(a, nil)
		slices.SortStableFunc(b, func(x, y Pair) int { return cmp.Compare(x.Key, y.Key) })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("mask %#x: order diverges at %d: %+v vs %+v", mask, i, a[i], b[i])
			}
		}
	}
}

// TestRadixSortScratchReuse verifies the kernel draws its scatter
// buffer from the scratch and hands it back.
func TestRadixSortScratchReuse(t *testing.T) {
	var gets, puts int
	backing := make([]Pair, 1<<15)
	s := &Scratch{
		Get: func(n int) []Pair {
			gets++
			if n > len(backing) {
				t.Fatalf("scratch request %d exceeds backing", n)
			}
			return backing[:n]
		},
		Put: func(b []Pair) {
			puts++
			if &b[0] != &backing[0] {
				t.Error("returned buffer is not the one handed out")
			}
		},
	}
	pairs := randomPairs(1<<14, 9, ^uint64(0))
	RadixSortPairs(pairs, s)
	if !PairsSorted(pairs) {
		t.Fatal("not sorted")
	}
	if gets != 1 || puts != 1 {
		t.Errorf("gets=%d puts=%d, want 1/1", gets, puts)
	}
}

type keyShape struct {
	name string
	key  func(r *rand.Rand, i, n int) uint64
}

// keyShapes are the key distributions that could break a kernel that
// adapts to its keys, each as a generator of the i-th of n keys.
var keyShapes = []keyShape{
	{"all-equal", func(*rand.Rand, int, int) uint64 { return 0xdead_beef_0042 }},
	{"one-bit", func(r *rand.Rand, _, _ int) uint64 { return 0x1100 | uint64(r.Intn(2))<<37 }},
	{"zero-and-max", func(r *rand.Rand, _, _ int) uint64 { return -uint64(r.Intn(2)) }},
	// All but ten keys share their top 16 bits: the top two digits vary,
	// separate almost nothing, and the big segment is finished recursively.
	{"clustered-prefix", func(r *rand.Rand, i, n int) uint64 {
		if i%(n/10+1) == 0 {
			return r.Uint64()
		}
		return 0xabcd<<48 | r.Uint64()>>16
	}},
	{"three-tops", func(r *rand.Rand, _, _ int) uint64 {
		return [3]uint64{0x0100 << 48, 0x7fff << 48, 0xff00 << 48}[r.Intn(3)] | r.Uint64()&0xffff
	}},
	{"hashed", func(r *rand.Rand, _, _ int) uint64 { return r.Uint64() }},
	{"dense-1024", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(1024)) }},
	// The counting pass's edges: a span of exactly narrowBits, one bit
	// over it (the radix path), a narrow span under shared high bits, and
	// one above low bits that are all zero.
	{"dense-2048", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(2048)) }},
	{"dense-4096", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(4096)) }},
	{"offset-dense", func(r *rand.Rand, _, _ int) uint64 { return 0xFFFF_FFFF_FFFF_F000 + uint64(r.Intn(1024)) }},
	{"strided", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(1024)) << 20 }},
	// The adaptive kernel's worst case: every digit varies, but each
	// pair of digits splits off only a few outliers, so every level of
	// the finish recurses on nearly the whole run — eight scatter passes
	// plus a scan and a segment walk per level.
	{"layered-prefix", func(r *rand.Rand, i, n int) uint64 {
		k := r.Uint64()
		switch i % 1000 {
		case 1:
			return k
		case 2:
			return 0xabcd<<48 | k>>16
		case 3:
			return 0xabcd_abcd<<32 | k>>32
		}
		return 0xabcd_abcd_abcd<<16 | k>>48
	}},
	// The radix path's pass plans (radixSort): with t the digits that
	// spread n pairs thin — one up to 256 pairs, two up to 65 536, three
	// above — v varying digits take v passes when v <= t, else the top t
	// and a finish: one insertion pass when the top digit's buckets are
	// light, a segment walk where heavy-top-digit piles three quarters of
	// the keys under one value. Odd and even pass counts are what place
	// the column path's first pass in the destination or in the scratch.
	{"two-digits", func(r *rand.Rand, _, _ int) uint64 {
		return uint64(r.Intn(256)) | uint64(r.Intn(256))<<16
	}},
	{"three-digits", func(r *rand.Rand, _, _ int) uint64 {
		return uint64(r.Intn(256)) | uint64(r.Intn(256))<<16 | uint64(r.Intn(256))<<32
	}},
	{"heavy-top-digit", func(r *rand.Rand, _, _ int) uint64 {
		top := uint64(7)
		if r.Intn(4) == 0 {
			top = uint64(r.Intn(256))
		}
		return uint64(r.Intn(256)) | uint64(r.Intn(256))<<16 | top<<32
	}},
}

// shapedPairs draws n pairs of the named shape, Ptr = input index.
func shapedPairs(shape string, n int, seed int64) []Pair {
	i := slices.IndexFunc(keyShapes, func(s keyShape) bool { return s.name == shape })
	r := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for j := range out {
		out[j] = Pair{Key: keyShapes[i].key(r, j, n), Ptr: uint64(j)}
	}
	return out
}

// assertStableSortOf holds got against the order a stable sort of orig
// by key yields: the same keys in the same order, and equal keys in
// input order. Each Ptr of orig must be its input index, so that order
// is the library's sort by (key, Ptr) — slices.SortFunc, which takes
// half the time SortStableFunc does under the race detector, where the
// race legs sort 200 000 pairs a few dozen times.
func assertStableSortOf(t *testing.T, got, orig []Pair) {
	t.Helper()
	for i, p := range orig {
		if p.Ptr != uint64(i) {
			t.Fatalf("input %d carries Ptr %d: Ptr must be the input index", i, p.Ptr)
		}
	}
	want := slices.Clone(orig)
	slices.SortFunc(want, func(a, b Pair) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Ptr, b.Ptr)
	})
	if len(got) != len(want) {
		t.Fatalf("length changed: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got (key %#x, input %d), want (key %#x, input %d)",
				i, got[i].Key, got[i].Ptr, want[i].Key, want[i].Ptr)
		}
	}
}

// TestRadixSortShapes is the property the runtime relies on — the order
// a stable comparison sort yields, exactly — on every shape at the
// lengths where the kernel changes strategy: the insertion threshold,
// one digit's and two digits' worth of pairs, and the run sizes the
// workloads sort.
func TestRadixSortShapes(t *testing.T) {
	lengths := []int{2, 64, 65, 256, 257, 4096, 10_000, 65_537, 200_000}
	if testing.Short() {
		lengths = lengths[:7]
	}
	for si, shape := range keyShapes {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				orig := shapedPairs(shape.name, n, int64(n)*31+int64(si))
				got := append([]Pair(nil), orig...)
				RadixSortPairs(got, nil)
				assertStableSortOf(t, got, orig)
			})
		}
	}
}

// sortColumnsOf runs RadixSortColumns over the key and value columns of
// orig into a destination of stale pairs.
func sortColumnsOf(orig []Pair) []Pair {
	keys, vals := make([]uint64, len(orig)), make([]uint64, len(orig))
	for i, p := range orig {
		keys[i], vals[i] = p.Key, p.Ptr
	}
	dst := make([]Pair, len(orig))
	for i := range dst {
		dst[i] = Pair{Key: ^uint64(i), Ptr: ^uint64(0)}
	}
	RadixSortColumns(dst, keys, vals, ScanKeys(keys), nil)
	return dst
}

// TestRadixSortColumnsShapes holds the column entry — the counting pass
// straight from the columns, or the radix path whose first pass reads
// them — to the same property on the same shapes, at the lengths where it
// changes strategy: empty, one pair, the insertion threshold and one past
// it, one scatter pass (200), two (512 to 10 000, the run sizes the
// workloads form) and three (65 537).
func TestRadixSortColumnsShapes(t *testing.T) {
	lengths := []int{0, 1, 64, 65, 200, 512, 4096, 10_000, 65_537}
	if testing.Short() {
		lengths = lengths[:8]
	}
	for si, shape := range keyShapes {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/%d", shape.name, n), func(t *testing.T) {
				orig := shapedPairs(shape.name, n, int64(n)*37+int64(si))
				assertStableSortOf(t, sortColumnsOf(orig), orig)
			})
		}
	}
}

// FuzzRadixSortPairs reads its input as little-endian keys, sorted both
// as pairs and as columns; the seeds are the shapes above, long enough
// to leave the insertion path, at 300 keys (two scatter passes on the
// radix path) and 200 (one).
func FuzzRadixSortPairs(f *testing.F) {
	for _, n := range []int{300, 200} {
		for si, shape := range keyShapes {
			var seed []byte
			for _, p := range shapedPairs(shape.name, n, int64(si)) {
				seed = binary.LittleEndian.AppendUint64(seed, p.Key)
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := make([]Pair, len(data)/8)
		for i := range orig {
			orig[i] = Pair{Key: binary.LittleEndian.Uint64(data[8*i:]), Ptr: uint64(i)}
		}
		got := append([]Pair(nil), orig...)
		RadixSortPairs(got, nil)
		assertStableSortOf(t, got, orig)
		assertStableSortOf(t, sortColumnsOf(orig), orig)
	})
}

// foldColumnsOf runs FoldColumns over the range of the keys' scan, which
// must be Dense.
func foldColumnsOf(keys, vals []uint64, op FoldOp, unit bool) []Pair {
	s := ScanKeys(keys)
	span, _ := s.Dense()
	out, _ := foldRangeOf(keys, vals, s.Lo, span, op, unit)
	return out
}

// foldRangeOf runs FoldColumns over the columns and the key range
// [lo, lo+span] into a destination of stale pairs, sized by the count
// the fold asks for; out is nil when the fold did not ask, which it
// must not do when it reports a key outside the range.
func foldRangeOf(keys, vals []uint64, lo uint64, span int, op FoldOp, unit bool) (out []Pair, fit bool) {
	fit = FoldColumns(keys, vals, lo, span, op, unit, func(n int) []Pair {
		out = make([]Pair, n)
		for i := range out {
			out[i] = Pair{Key: ^uint64(i), Ptr: ^uint64(0)}
		}
		return out
	})
	return out, fit
}

// foldOracle is the fold the table must reproduce, through a map: a
// key's first value is taken as it is — 1 for a row when unit is set —
// and each later one folded into it by op; the keys come out ascending.
func foldOracle(keys, vals []uint64, op FoldOp, unit bool) []Pair {
	acc := map[uint64]uint64{}
	for i, k := range keys {
		v := vals[i]
		if unit {
			v = 1
		}
		prev, ok := acc[k]
		switch {
		case !ok:
			acc[k] = v
		case op == FoldAdd:
			acc[k] = prev + v
		case op == FoldMin:
			acc[k] = min(prev, v)
		default:
			acc[k] = max(prev, v)
		}
	}
	out := make([]Pair, 0, len(acc))
	for k, v := range acc {
		out = append(out, Pair{Key: k, Ptr: v})
	}
	slices.SortFunc(out, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// TestFoldColumns holds the formation fold of sum, count (each row 1),
// min and max to a map oracle, over 1 024 keys at offset 0 and ending at
// MaxUint64, with values of 0 and MaxUint64 and sums that wrap; then
// pins the rule's edges, which are the merge's (tableSpan): a span of one
// less than the rows folds and of the rows sorts, a span of denseSpan − 1
// folds and of denseSpan sorts, a bundle of one key folds at every
// length, one row included, and each edge holds just below MaxUint64 as
// at 0.
func TestFoldColumns(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(41))
	ops := []struct {
		name string
		op   FoldOp
		unit bool
	}{
		{"sum", FoldAdd, false}, {"count", FoldAdd, true}, {"min", FoldMin, false}, {"max", FoldMax, false},
	}
	// columns draws n rows whose keys span exactly span from lo: the
	// first two rows hold the ends, the rest fall between.
	columns := func(lo uint64, span, n int) (keys, vals []uint64) {
		keys, vals = make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i] = lo + uint64(r.Intn(span+1))
			vals[i] = r.Uint64() >> uint(r.Intn(64))
			switch r.Intn(6) {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = maxKey
			}
		}
		keys[0] = lo
		if n > 1 {
			keys[1] = lo + uint64(span)
		}
		return keys, vals
	}
	check := func(name string, keys, vals []uint64, dense bool) {
		t.Helper()
		if _, got := ScanKeys(keys).Dense(); got != dense {
			t.Fatalf("%s: Dense() = %v, want %v", name, got, dense)
		}
		if !dense {
			return
		}
		for _, o := range ops {
			if got, want := foldColumnsOf(keys, vals, o.op, o.unit), foldOracle(keys, vals, o.op, o.unit); !slices.Equal(got, want) {
				t.Fatalf("%s %s: folded %d pairs, the oracle %d; first %v, want %v", name, o.name, len(got), len(want), got[:min(len(got), 3)], want[:min(len(want), 3)])
			}
		}
	}
	for _, lo := range []uint64{0, maxKey - 1023} {
		for _, n := range []int{1025, 4096, 10_000} {
			keys, vals := columns(lo, 1023, n)
			check(fmt.Sprintf("keys=[%d,+1024) rows=%d", lo, n), keys, vals, true)
		}
	}
	for _, c := range []struct {
		span, rows int
		dense      bool
	}{
		{99, 100, true},
		{100, 100, false},
		{denseSpan - 1, denseSpan + 50, true},
		{denseSpan, denseSpan + 50, false},
		{0, 1, true},
		{0, 2, true},
		{0, 700, true},
	} {
		for _, lo := range []uint64{0, maxKey - uint64(c.span)} {
			keys, vals := columns(lo, c.span, c.rows)
			check(fmt.Sprintf("span=%d rows=%d lo=%d", c.span, c.rows, lo), keys, vals, c.dense)
		}
	}
}

// TestFoldColumnsRange holds the fold over a given key range, the one
// formation tries before it scans: over ranges up to 64 slots wider than
// the keys' span on either side, still below the rows, sum, count, min
// and max fold to the map oracle, at offset 0 and ending at MaxUint64.
// A key just below the range's low end (which wraps to the top of the
// slot index) or just past its high end, at the first, middle or last
// row, stops the fold: it reports false and never asks for a
// destination. A fold right after each miss, on the table the miss left
// behind, is still exact.
func TestFoldColumnsRange(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(43))
	ops := []struct {
		name string
		op   FoldOp
		unit bool
	}{
		{"sum", FoldAdd, false}, {"count", FoldAdd, true}, {"min", FoldMin, false}, {"max", FoldMax, false},
	}
	const n, keySpan, pad = 2000, 1023, 64
	for _, keyLo := range []uint64{pad, maxKey - keySpan - pad} {
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i := range keys {
			keys[i] = keyLo + uint64(r.Intn(keySpan+1))
			vals[i] = r.Uint64() >> uint(r.Intn(64))
			if i%9 == 0 {
				vals[i] = maxKey
			}
		}
		for _, o := range ops {
			want := foldOracle(keys, vals, o.op, o.unit)
			for _, w := range []struct{ below, above int }{{0, 0}, {1, 0}, {0, 1}, {pad, pad}, {7, 50}} {
				lo, span := keyLo-uint64(w.below), keySpan+w.below+w.above
				name := fmt.Sprintf("%s keys=[%d,+%d] range=[%d,+%d]", o.name, keyLo, keySpan, lo, span)
				if got, fit := foldRangeOf(keys, vals, lo, span, o.op, o.unit); !fit || !slices.Equal(got, want) {
					t.Fatalf("%s: fit %v, folded %d pairs, the oracle %d", name, fit, len(got), len(want))
				}
			}
			for _, bad := range []uint64{keyLo - 1, keyLo + keySpan + 1} {
				for _, row := range []int{0, n / 2, n - 1} {
					missing := slices.Clone(keys)
					missing[row] = bad
					if got, fit := foldRangeOf(missing, vals, keyLo, keySpan, o.op, o.unit); fit || got != nil {
						t.Fatalf("%s: key %d at row %d outside [%d,+%d]: fit %v, asked for %d pairs", o.name, bad, row, keyLo, keySpan, fit, len(got))
					}
					if got, fit := foldRangeOf(keys, vals, keyLo, keySpan, o.op, o.unit); !fit || !slices.Equal(got, want) {
						t.Fatalf("%s after a miss at row %d: fit %v, folded %d pairs, the oracle %d", o.name, row, fit, len(got), len(want))
					}
				}
			}
		}
	}
}

// BenchmarkRadixSortPairs prices the kernel on the run shapes the six
// benchmark workloads sort — a 10 000-record in-process bundle or a
// 4 096-record frame of 1 024 keys, a bundle of hashed 64-bit keys — and
// where the finish recurses, so its trajectory reads without the
// end-to-end harness. The dense shapes at 512 and 128 pairs and at 2 048
// keys price the counting pass near its length guard and at its widest
// span. clustered-prefix must stay well inside the cost of
// a fixed eight-pass LSD sort (35–45 ns/pair on the 2-vCPU host the
// README's tables come from) and layered-prefix, which is built to make
// every level of the recursion a waste, near it.
func BenchmarkRadixSortPairs(b *testing.B) {
	for _, c := range []struct {
		shape string
		n     int
	}{
		{"dense-1024", 10_000},
		{"dense-1024", 4096},
		{"dense-1024", 512},
		{"dense-2048", 10_000},
		{"dense-2048", 128},
		{"hashed", 10_000},
		{"clustered-prefix", 10_000},
		{"layered-prefix", 10_000},
		{"hashed", 1 << 20},
	} {
		b.Run(fmt.Sprintf("%s/%d", c.shape, c.n), func(b *testing.B) {
			src := shapedPairs(c.shape, c.n, 7)
			buf := make([]Pair, c.n)
			scratch := make([]Pair, c.n)
			s := &Scratch{Get: func(n int) []Pair { return scratch[:n] }, Put: func([]Pair) {}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				RadixSortPairs(buf, s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.n), "ns/pair")
		})
	}
}

// BenchmarkRadixSortColumns prices run formation of a sorted run from
// its two columns (RadixSortColumns, scan included), in ns per pair: a
// 10 000-row bundle of hashed keys, which takes the radix path — two
// scatter passes, the first straight from the columns, and an insertion
// finish — and of 1 024 keys, which takes the counting pass.
func BenchmarkRadixSortColumns(b *testing.B) {
	for _, shape := range []string{"hashed", "dense-1024"} {
		const n = 10_000
		src := shapedPairs(shape, n, 7)
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i, p := range src {
			keys[i], vals[i] = p.Key, p.Ptr
		}
		dst, scratch := make([]Pair, n), make([]Pair, n)
		s := &Scratch{Get: func(n int) []Pair { return scratch[:n] }, Put: func([]Pair) {}}
		b.Run(fmt.Sprintf("%s/%d", shape, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RadixSortColumns(dst, keys, vals, ScanKeys(keys), s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
		})
	}
}

// BenchmarkFoldColumns prices run formation of a word aggregator on the
// shapes the fold takes — a 4 096-record frame and a 10 000-record
// bundle, each over 1 024 keys — four ways, in ns per row: "scan+fold"
// scans the key column and folds over its range (FoldColumns), what
// formation does without a range to try; "fold-range-known" folds over
// the range alone, what it does when the last dense range holds the
// keys; "sort" scans and forms the sorted run the fold replaces
// (RadixSortColumns' counting pass), and "sort+neighbours" then folds
// equal neighbours of that run in place, a pair per key left.
func BenchmarkFoldColumns(b *testing.B) {
	for _, n := range []int{4096, 10_000} {
		src := shapedPairs("dense-1024", n, 7)
		keys, vals := make([]uint64, n), make([]uint64, n)
		for i, p := range src {
			keys[i], vals[i] = p.Key, p.Ptr
		}
		dst := make([]Pair, n)
		for _, way := range []struct {
			name string
			form func() int
		}{
			{"scan+fold", func() int {
				m := 0
				s := ScanKeys(keys)
				span, _ := s.Dense()
				FoldColumns(keys, vals, s.Lo, span, FoldAdd, false, func(k int) []Pair { m = k; return dst[:k] })
				return m
			}},
			{"fold-range-known", func() int {
				m := 0
				FoldColumns(keys, vals, 0, 1023, FoldAdd, false, func(k int) []Pair { m = k; return dst[:k] })
				return m
			}},
			{"sort", func() int {
				RadixSortColumns(dst, keys, vals, ScanKeys(keys), nil)
				return n
			}},
			{"sort+neighbours", func() int {
				RadixSortColumns(dst, keys, vals, ScanKeys(keys), nil)
				m := 0
				for _, p := range dst[1:] {
					if p.Key == dst[m].Key {
						dst[m].Ptr += p.Ptr
					} else {
						m++
						dst[m] = p
					}
				}
				return m + 1
			}},
		} {
			b.Run(fmt.Sprintf("dense-1024/%d/%s", n, way.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					way.form()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}
