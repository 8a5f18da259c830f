package algo

import (
	"math/rand"
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
			for _, workers := range []int{1, 4} {
				orig := randomPairs(n, int64(n)+7, mask)
				got := append([]Pair(nil), orig...)
				RadixSortPairs(got, workers, nil)
				if t.Failed() {
					return
				}
				assertSortedPermutation(t, got, orig)
				_ = name
			}
		}
	}
}

// TestRadixSortStable pins that equal keys keep their input order at
// every size class: the insertion-sorted tiny runs (up to 64 pairs — the
// 25 to 64 range went through an unstable sort once), the serial
// scatter, and the parallel one.
func TestRadixSortStable(t *testing.T) {
	for _, n := range []int{2, 24, 25, 40, 64, 65, 1000, 70_000} {
		for _, workers := range []int{1, 4} {
			pairs := randomPairs(n, int64(n), 0x0f0f)
			for i := range pairs {
				pairs[i].Ptr = uint64(i)
			}
			RadixSortPairs(pairs, workers, nil)
			for i := 1; i < n; i++ {
				a, b := pairs[i-1], pairs[i]
				if a.Key > b.Key || (a.Key == b.Key && a.Ptr > b.Ptr) {
					t.Fatalf("n=%d workers=%d: pair %d (key %d, input position %d) follows (key %d, position %d)",
						n, workers, i, b.Key, b.Ptr, a.Key, a.Ptr)
				}
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
	RadixSortPairs(pairs, 2, nil)
	assertSortedPermutation(t, pairs, orig)
}

func TestRadixSortMatchesMergeSort(t *testing.T) {
	orig := randomPairs(10_000, 3, ^uint64(0))
	a := append([]Pair(nil), orig...)
	b := append([]Pair(nil), orig...)
	RadixSortPairs(a, 3, nil)
	SortPairs(b)
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("key order diverges at %d: %d vs %d", i, a[i].Key, b[i].Key)
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
	RadixSortPairs(pairs, 1, s)
	if !PairsSorted(pairs) {
		t.Fatal("not sorted")
	}
	if gets != 1 || puts != 1 {
		t.Errorf("gets=%d puts=%d, want 1/1", gets, puts)
	}
}

func TestMultiMergeInto(t *testing.T) {
	var runs [][]Pair
	total := 0
	for i := 0; i < 7; i++ {
		r := randomPairs(100+i*37, int64(i), 1<<20-1)
		SortPairs(r)
		runs = append(runs, r)
		total += len(r)
	}
	dst := make([]Pair, total)
	MultiMergeInto(dst, runs, nil)
	if !PairsSorted(dst) {
		t.Fatal("multi-merge output not sorted")
	}
	want := MultiMerge(runs)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MultiMergeInto diverges from MultiMerge at %d", i)
		}
	}
	// Wrong destination length must panic, not corrupt.
	defer func() {
		if recover() == nil {
			t.Fatal("short destination must panic")
		}
	}()
	MultiMergeInto(dst[:total-1], runs, nil)
}

func BenchmarkRadixSortPairs(b *testing.B) {
	src := randomPairs(1<<20, 7, ^uint64(0))
	buf := make([]Pair, len(src))
	scratch := make([]Pair, len(src))
	s := &Scratch{Get: func(n int) []Pair { return scratch[:n] }, Put: func([]Pair) {}}
	b.SetBytes(int64(len(src)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		RadixSortPairs(buf, 1, s)
	}
}
