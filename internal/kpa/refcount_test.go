package kpa

import (
	"sync"
	"testing"

	"streambox/internal/bundle"
	"streambox/internal/memsim"
)

// TestRetainDestroyCounts: a KPA retained N-1 extra times survives N-1
// destroys and frees on the Nth; pool accounting returns to zero and
// the slab is recycled exactly once.
func TestRetainDestroyCounts(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	reg := bundle.NewRegistry()
	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = uint64(i * 31 % 257)
	}
	k := sortedKPA(t, reg, al, keys)
	const refs = 4
	k.Retain(refs - 1)
	if got := k.Refs(); got != refs {
		t.Fatalf("refs = %d, want %d", got, refs)
	}
	for i := 0; i < refs-1; i++ {
		if k.Destroy() {
			t.Fatalf("destroy %d freed the KPA with %d references outstanding", i, refs-1-i)
		}
		if k.Refs() <= 0 {
			t.Fatal("KPA reports destroyed while references remain")
		}
		if pool.Used(memsim.HBM) == 0 {
			t.Fatal("slab freed while references remain")
		}
	}
	if !k.Destroy() {
		t.Fatal("final destroy must free the KPA")
	}
	if k.Refs() > 0 {
		t.Fatal("KPA must report destroyed after the final release")
	}
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Fatalf("pool used = %d after final destroy, want 0", got)
	}
	st := pool.Snapshot()
	if st.Frees != st.Allocs {
		t.Fatalf("frees %d != allocs %d: a shared run freed more or less than once", st.Frees, st.Allocs)
	}
}

// TestRetainAfterDestroyPanics: minting a reference on a dead KPA must
// fail loudly, like double destroy.
func TestRetainAfterDestroyPanics(t *testing.T) {
	al, _ := poolAllocator(t, memsim.DRAM)
	reg := bundle.NewRegistry()
	k := sortedKPA(t, reg, al, []uint64{3, 1, 2})
	k.Destroy()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain on a destroyed KPA must panic")
		}
	}()
	k.Retain(1)
}

// TestOverReleasePanics: releasing more references than were held must
// panic instead of double-freeing a recycled slab.
func TestOverReleasePanics(t *testing.T) {
	al, _ := poolAllocator(t, memsim.DRAM)
	reg := bundle.NewRegistry()
	k := sortedKPA(t, reg, al, []uint64{5, 4})
	k.Retain(1)
	k.Destroy()
	k.Destroy()
	defer func() {
		if recover() == nil {
			t.Fatal("third destroy of a twice-referenced KPA must panic")
		}
	}()
	k.Destroy()
}

// TestSharedRunConcurrentDestroy hammers the pane-sharing shape under
// -race: many shared runs, each referenced by `windows` concurrent
// closers that read the run's pairs (a stand-in for the fused merge)
// and then release their reference. Every slab must return to the pool
// exactly once — frees match allocs, used bytes drop to zero, and
// exactly one closer per run observes the final free.
func TestSharedRunConcurrentDestroy(t *testing.T) {
	const (
		runs    = 64
		windows = 7
		pairs   = 1024
	)
	al, pool := poolAllocator(t, memsim.HBM)
	reg := bundle.NewRegistry()
	keys := make([]uint64, pairs)
	for i := range keys {
		keys[i] = uint64(i*2654435761) % 1000
	}

	shared := make([]*KPA, runs)
	for i := range shared {
		shared[i] = sortedKPA(t, reg, al, keys)
		shared[i].Retain(windows - 1)
	}

	finals := make([]int, runs) // writes guarded by the exactly-once property
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < windows; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, k := range shared {
				// Read the shared pairs before releasing — the reference
				// must keep the slab alive under every sibling's release.
				var sum uint64
				for _, p := range k.Pairs() {
					sum += p.Key
				}
				if sum == 0 {
					t.Error("shared run read empty pairs while holding a reference")
				}
				if k.Destroy() {
					finals[i]++ // only the last release may write
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	for i, n := range finals {
		if n != 1 {
			t.Fatalf("run %d freed %d times, want exactly 1", i, n)
		}
	}
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Fatalf("pool used = %d after all windows closed, want 0", got)
	}
	st := pool.Snapshot()
	if st.Frees != st.Allocs {
		t.Fatalf("frees %d != allocs %d: shared runs must free exactly once", st.Frees, st.Allocs)
	}
}
