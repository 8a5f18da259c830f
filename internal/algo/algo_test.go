package algo

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// PairsSorted reports whether pairs is non-decreasing by key.
func PairsSorted(pairs []Pair) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1].Key > pairs[i].Key {
			return false
		}
	}
	return true
}

func randPairs(n int, seed int64) []Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: r.Uint64(), Ptr: uint64(i)}
	}
	return out
}

func keyedPairs(keys ...uint64) []Pair {
	out := make([]Pair, len(keys))
	for i, k := range keys {
		out[i] = Pair{Key: k, Ptr: uint64(i)}
	}
	return out
}

func TestSortPairsSmall(t *testing.T) {
	p := keyedPairs(5, 3, 9, 1, 1, 7)
	RadixSortPairs(p, nil)
	if !PairsSorted(p) {
		t.Fatalf("not sorted: %v", Keys(p))
	}
	want := []uint64{1, 1, 3, 5, 7, 9}
	if !reflect.DeepEqual(Keys(p), want) {
		t.Fatalf("keys = %v, want %v", Keys(p), want)
	}
}

func TestSortPairsEmptyAndSingle(t *testing.T) {
	RadixSortPairs(nil, nil)
	RadixSortPairs([]Pair{}, nil)
	one := keyedPairs(42)
	RadixSortPairs(one, nil)
	if one[0].Key != 42 {
		t.Fatal("single element corrupted")
	}
}

func TestSortPairsLarge(t *testing.T) {
	const n = 3<<12 + 17
	p := randPairs(n, 1)
	RadixSortPairs(p, nil)
	if !PairsSorted(p) {
		t.Fatal("large input not sorted")
	}
	if len(p) != n {
		t.Fatal("length changed")
	}
}

func TestSortPreservesPtrBinding(t *testing.T) {
	// Each pair's ptr records its key; sorting must keep the binding.
	r := rand.New(rand.NewSource(7))
	p := make([]Pair, 10000)
	for i := range p {
		k := r.Uint64() % 1000
		p[i] = Pair{Key: k, Ptr: k * 2}
	}
	RadixSortPairs(p, nil)
	for _, e := range p {
		if e.Ptr != e.Key*2 {
			t.Fatal("key/ptr binding broken by sort")
		}
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 100, 4096, 4097, 5 * 4096} {
		p := randPairs(n, int64(n))
		want := Keys(p)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		RadixSortPairs(p, nil)
		if !reflect.DeepEqual(Keys(p), want) {
			t.Fatalf("n=%d: mismatch with stdlib sort", n)
		}
	}
}

// TestMultiMerge holds the k-way merge's verbatim copy to the basics: the
// sorted union of every run, nothing from no runs, and a lone run copied
// into out, not aliased.
func TestMultiMerge(t *testing.T) {
	runs := [][]Pair{
		keyedPairs(1, 5, 9),
		keyedPairs(2, 6),
		keyedPairs(3, 7, 11, 13),
		keyedPairs(4),
		keyedPairs(8, 10, 12),
	}
	m := copyAll(t, runs)
	if !PairsSorted(m) {
		t.Fatalf("not sorted: %v", Keys(m))
	}
	if len(m) != 13 {
		t.Fatalf("len = %d, want 13", len(m))
	}
	if n := MultiMergeFold(nil, Fold{Op: FoldCopy}, nil); n != 0 {
		t.Fatalf("a merge of no runs wrote %d pairs", n)
	}
	single := copyAll(t, [][]Pair{keyedPairs(4, 5)})
	if !reflect.DeepEqual(Keys(single), []uint64{4, 5}) {
		t.Fatal("single-run multimerge")
	}
	// Result must be a copy, not an alias.
	src := keyedPairs(1, 2)
	cp := copyAll(t, [][]Pair{src})
	cp[0].Key = 99
	if src[0].Key != 1 {
		t.Fatal("the merge aliased its input")
	}
}

func TestJoinSorted(t *testing.T) {
	a := keyedPairs(1, 2, 2, 5)
	b := keyedPairs(2, 2, 3, 5, 5)
	type row struct{ k, pa, pb uint64 }
	var got []row
	JoinSorted(a, b, func(k, pa, pb uint64) { got = append(got, row{k, pa, pb}) })
	// key 2: 2x2 = 4 rows; key 5: 1x2 = 2 rows.
	if len(got) != 6 {
		t.Fatalf("join rows = %d, want 6", len(got))
	}
	for _, r := range got {
		if r.k != 2 && r.k != 5 {
			t.Fatalf("unexpected join key %d", r.k)
		}
	}
}

// joinCount counts the rows JoinSorted emits.
func joinCount(a, b []Pair) int {
	n := 0
	JoinSorted(a, b, func(uint64, uint64, uint64) { n++ })
	return n
}

func TestJoinSortedDisjoint(t *testing.T) {
	if joinCount(keyedPairs(1, 3), keyedPairs(2, 4)) != 0 {
		t.Fatal("disjoint join must be empty")
	}
	if joinCount(nil, keyedPairs(1)) != 0 {
		t.Fatal("empty side join must be empty")
	}
}

func TestPartitionByKeyRange(t *testing.T) {
	p := keyedPairs(12, 1, 5, 9, 2, 5)
	buckets := PartitionByKeyRange(p, []uint64{5, 10})
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if len(buckets[0]) != 2 { // 1, 2
		t.Errorf("bucket0 = %v", Keys(buckets[0]))
	}
	if len(buckets[1]) != 3 { // 5, 9, 5
		t.Errorf("bucket1 = %v", Keys(buckets[1]))
	}
	if len(buckets[2]) != 1 { // 12
		t.Errorf("bucket2 = %v", Keys(buckets[2]))
	}
}

func TestSelectPairs(t *testing.T) {
	p := keyedPairs(1, 2, 3, 4, 5)
	even := SelectPairs(p, func(k uint64) bool { return k%2 == 0 })
	if !reflect.DeepEqual(Keys(even), []uint64{2, 4}) {
		t.Fatalf("selected = %v", Keys(even))
	}
	if len(SelectPairs(nil, func(uint64) bool { return true })) != 0 {
		t.Fatal("empty select")
	}
}

func TestHashTableBasics(t *testing.T) {
	h := NewHashTable(4)
	if _, ok := h.Get(1); ok {
		t.Fatal("empty table must miss")
	}
	h.Put(1, 10)
	h.Put(2, 20)
	h.Put(1, 11) // overwrite
	if v, ok := h.Get(1); !ok || v != 11 {
		t.Fatalf("get(1) = %d,%v", v, ok)
	}
	if v, ok := h.Get(2); !ok || v != 20 {
		t.Fatalf("get(2) = %d,%v", v, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
	if !strings.Contains(h.String(), "n=2") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestHashTableGrowth(t *testing.T) {
	h := NewHashTable(1)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		h.Put(i, i*3)
	}
	if h.Len() != n {
		t.Fatalf("len = %d", h.Len())
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := h.Get(i); !ok || v != i*3 {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestHashTableAdd(t *testing.T) {
	h := NewHashTable(8)
	for i := 0; i < 5; i++ {
		h.Add(7, 2)
	}
	if v, _ := h.Get(7); v != 10 {
		t.Fatalf("accumulated = %d, want 10", v)
	}
}

func TestHashTableRange(t *testing.T) {
	h := NewHashTable(8)
	h.Put(1, 10)
	h.Put(2, 20)
	h.Put(3, 30)
	var sum uint64
	h.Range(func(k, v uint64) bool { sum += v; return true })
	if sum != 60 {
		t.Fatalf("sum = %d", sum)
	}
	count := 0
	h.Range(func(k, v uint64) bool { count++; return false })
	if count != 1 {
		t.Fatal("Range must stop when fn returns false")
	}
}

// --- Property-based tests (testing/quick). -------------------------------

func TestPropSortIsPermutationAndSorted(t *testing.T) {
	f := func(keys []uint64) bool {
		p := make([]Pair, len(keys))
		for i, k := range keys {
			p[i] = Pair{Key: k, Ptr: uint64(i)}
		}
		RadixSortPairs(p, nil)
		if !PairsSorted(p) {
			return false
		}
		// Permutation check: ptrs 0..n-1 all present exactly once.
		seen := make(map[uint64]bool, len(p))
		for _, e := range p {
			if seen[e.Ptr] {
				return false
			}
			seen[e.Ptr] = true
			if e.Key != keys[e.Ptr] {
				return false
			}
		}
		return len(seen) == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMergePreservesMultiset(t *testing.T) {
	f := func(ka, kb []uint64) bool {
		a := make([]Pair, len(ka))
		for i, k := range ka {
			a[i] = Pair{Key: k}
		}
		b := make([]Pair, len(kb))
		for i, k := range kb {
			b[i] = Pair{Key: k}
		}
		RadixSortPairs(a, nil)
		RadixSortPairs(b, nil)
		m := copyAll(t, [][]Pair{a, b})
		if !PairsSorted(m) {
			return false
		}
		counts := make(map[uint64]int)
		for _, k := range ka {
			counts[k]++
		}
		for _, k := range kb {
			counts[k]++
		}
		for _, e := range m {
			counts[e.Key]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropHashTableMatchesMap(t *testing.T) {
	f := func(ops []struct {
		Key uint64
		Val uint64
	}) bool {
		h := NewHashTable(4)
		ref := make(map[uint64]uint64)
		for _, op := range ops {
			h.Put(op.Key, op.Val)
			ref[op.Key] = op.Val
		}
		if h.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := h.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropJoinMatchesNestedLoop(t *testing.T) {
	f := func(ka, kb []uint8) bool {
		a := make([]Pair, len(ka))
		for i, k := range ka {
			a[i] = Pair{Key: uint64(k % 16), Ptr: uint64(i)}
		}
		b := make([]Pair, len(kb))
		for i, k := range kb {
			b[i] = Pair{Key: uint64(k % 16), Ptr: uint64(i)}
		}
		RadixSortPairs(a, nil)
		RadixSortPairs(b, nil)
		want := 0
		for _, x := range a {
			for _, y := range b {
				if x.Key == y.Key {
					want++
				}
			}
		}
		return joinCount(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPartitionConserves(t *testing.T) {
	f := func(keys []uint64, rawBounds []uint64) bool {
		p := make([]Pair, len(keys))
		for i, k := range keys {
			p[i] = Pair{Key: k}
		}
		bounds := append([]uint64(nil), rawBounds...)
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		// De-duplicate to keep boundaries strictly ascending.
		uniq := bounds[:0]
		for i, b := range bounds {
			if i == 0 || b != uniq[len(uniq)-1] {
				uniq = append(uniq, b)
			}
		}
		buckets := PartitionByKeyRange(p, uniq)
		total := 0
		for bi, bucket := range buckets {
			total += len(bucket)
			for _, e := range bucket {
				if bi > 0 && e.Key < uniq[bi-1] {
					return false
				}
				if bi < len(uniq) && e.Key >= uniq[bi] {
					return false
				}
			}
		}
		return total == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
