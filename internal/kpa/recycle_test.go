package kpa

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

func byKey(a, b algo.Pair) int { return cmp.Compare(a.Key, b.Key) }

// poolAllocator returns a FixedAllocator over a fresh accounting pool.
func poolAllocator(t *testing.T, tier memsim.Tier) (FixedAllocator, *mempool.Pool) {
	t.Helper()
	p := mempool.New(memsim.KNLConfig(), 0)
	return FixedAllocator{Pool: p, T: tier}, p
}

func sortedKPA(t *testing.T, reg *bundle.Registry, al Allocator, keys []uint64) *KPA {
	t.Helper()
	bd, err := reg.NewBuilder(bundle.Schema{NumCols: 2, TsCol: 1}, len(keys), memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := bd.Append(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := bd.Seal()
	k, err := Extract(b, 0, al)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	SortRadix(k, 1, nil)
	return k
}

// TestPooledKPAUsesSlab: a KPA built through an accounting allocator
// stores its pairs in the allocation's slab, and destroying it recycles
// the slab into the next same-class KPA.
func TestPooledKPAUsesSlab(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	reg := bundle.NewRegistry()
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(997 * i % 1301)
	}
	k1 := sortedKPA(t, reg, al, keys)
	first := k1.Pairs()
	k1.Destroy()
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Fatalf("used after destroy = %d", got)
	}
	k2 := sortedKPA(t, reg, al, keys)
	if &k2.Pairs()[0] != &first[0] {
		t.Error("second KPA should reuse the destroyed KPA's slab")
	}
	if pool.Snapshot().Recycled == 0 {
		t.Error("no recycling recorded")
	}
	// Recycling must not leak stale pairs: contents are exactly the
	// sorted keys, not leftovers.
	want := append([]uint64(nil), keys...)
	got := k2.Keys()
	seen := map[uint64]int{}
	for _, k := range want {
		seen[k]++
	}
	for _, k := range got {
		seen[k]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("key multiset mismatch at %d (%+d)", k, c)
		}
	}
	k2.Destroy()
}

// TestMergeTreeConcurrentDestroy runs a pairwise merge tree over pooled
// KPAs on many goroutines — each merge destroys its two inputs while
// sibling merges are consuming theirs, the exact shape of the native
// runtime's window close. Under -race this checks that slab recycling
// never hands a destroyed KPA's storage to a concurrent reader of a
// live one.
func TestMergeTreeConcurrentDestroy(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	reg := bundle.NewRegistry()

	const runs = 16
	const perRun = 500
	level := make([]*KPA, runs)
	total := 0
	for i := range level {
		keys := make([]uint64, perRun)
		for j := range keys {
			keys[j] = uint64((i*perRun+j)*2654435761) % 100_000
		}
		level[i] = sortedKPA(t, reg, al, keys)
		total += perRun
	}

	for len(level) > 1 {
		next := make([]*KPA, 0, (len(level)+1)/2)
		results := make([]*KPA, len(level)/2)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(level); i += 2 {
			wg.Add(1)
			go func(slot int, a, b *KPA) {
				defer wg.Done()
				m, err := MergeK([]*KPA{a, b}, al)
				a.Destroy()
				b.Destroy()
				if err != nil {
					t.Error(err)
					return
				}
				results[slot] = m
			}(i/2, level[i], level[i+1])
		}
		wg.Wait()
		for _, m := range results {
			if m != nil {
				next = append(next, m)
			}
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}

	root := level[0]
	if root.Len() != total {
		t.Fatalf("root len = %d, want %d", root.Len(), total)
	}
	if !slices.IsSortedFunc(root.Pairs(), byKey) {
		t.Fatal("merge-tree output not sorted")
	}
	root.Destroy()
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Errorf("pool leak after merge tree: %d bytes", got)
	}
}

// TestConcurrentDoubleDestroyPanics: racing destroyers of one KPA must
// produce exactly one panic and one successful destroy (never a silent
// double slab free).
func TestConcurrentDoubleDestroyPanics(t *testing.T) {
	al, _ := poolAllocator(t, memsim.DRAM)
	reg := bundle.NewRegistry()
	for iter := 0; iter < 50; iter++ {
		k := sortedKPA(t, reg, al, []uint64{3, 1, 2})
		var wg sync.WaitGroup
		panics := make(chan interface{}, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panics <- r
					}
				}()
				k.Destroy()
			}()
		}
		wg.Wait()
		close(panics)
		n := 0
		for r := range panics {
			n++
			if fmt.Sprint(r) != "kpa: double destroy" {
				t.Fatalf("unexpected panic: %v", r)
			}
		}
		if n != 1 {
			t.Fatalf("got %d panics, want exactly 1", n)
		}
	}
}

// TestSortRadixPrimitive: SortRadix sorts and marks the KPA sorted,
// with scratch drawn from the pool.
func TestSortRadixPrimitive(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	reg := bundle.NewRegistry()
	keys := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i*48271) % (1 << 30)
	}
	bd, _ := reg.NewBuilder(bundle.Schema{NumCols: 2, TsCol: 1}, len(keys), memsim.DRAM)
	for i, k := range keys {
		bd.Append(k, uint64(i))
	}
	b := bd.Seal()
	k, err := Extract(b, 0, al)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if k.Sorted() {
		t.Fatal("unsorted KPA reported sorted")
	}
	SortRadix(k, 1, pool.ScratchFor(memsim.HBM))
	if !k.Sorted() || !slices.IsSortedFunc(k.Pairs(), byKey) {
		t.Fatal("SortRadix failed to sort")
	}
	k.Destroy()
}
