package mempool

import (
	"sync"
	"testing"

	"streambox/internal/memsim"
)

// TestSlabReuse exhausts a small tier, frees, and re-allocates: the
// recycled allocation must hand back the very same backing array
// (pointer identity), not a fresh one.
func TestSlabReuse(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 64 << 10
	p := New(cfg, 0)

	a, err := p.Alloc(memsim.HBM, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	first := a.Pairs(1000)
	first[0].Key = 7 // touch it so the slab is real
	if _, err := p.Alloc(memsim.HBM, 4<<10); err == nil {
		t.Fatal("tier should be exhausted")
	}
	a.Free()

	b, err := p.Alloc(memsim.HBM, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	second := b.Pairs(1000)
	if &first[0] != &second[0] {
		t.Error("recycled allocation must reuse the freed slab's backing array")
	}
	if p.Snapshot().Recycled != 1 {
		t.Errorf("recycled = %d, want 1", p.Snapshot().Recycled)
	}
	b.Free()
}

// TestSlabReuseTierAndClassSeparation checks that free lists are keyed
// by (tier, class of the pairs a slab holds): a freed DRAM slab must not
// satisfy an HBM request, nor a request for another class of pairs.
func TestSlabReuseTierAndClassSeparation(t *testing.T) {
	p := testPool()
	d, _ := p.Alloc(memsim.DRAM, 16<<10)
	dp := d.Pairs(1024) // the 16 KiB class
	d.Free()

	h, _ := p.Alloc(memsim.HBM, 16<<10)
	hp := h.Pairs(1024)
	if &dp[0] == &hp[0] {
		t.Error("HBM allocation reused a DRAM slab")
	}
	h.Free()

	big, _ := p.Alloc(memsim.DRAM, 32<<10)
	bp := big.Pairs(2048)
	if &bp[0] == &dp[0] {
		t.Error("32 KiB class reused a 16 KiB slab")
	}
	big.Free()

	// Same tier, same class: now it must hit.
	d2, _ := p.Alloc(memsim.DRAM, 16<<10)
	if got := d2.Pairs(1024); &got[0] != &dp[0] {
		t.Error("same-class DRAM allocation should reuse the freed slab")
	}
	d2.Free()
}

// TestSlabSizedByPairs pins that a slab holds the pairs asked for, not
// the charge: the simulator charges ~100x the bytes its runs hold. A
// charge far above n pairs, a jumbo one included, gets a slab of n's
// class that goes back to that class's free list and serves the next
// allocation of as many pairs, whatever its charge; the charge itself is
// accounted unchanged.
func TestSlabSizedByPairs(t *testing.T) {
	p := testPool()
	const n = 1000 // 16 000 B: the 16 KiB class
	for _, charge := range []int64{100 * n * memsim.PairBytes, 300 << 20} {
		a, err := p.Alloc(memsim.DRAM, charge)
		if err != nil {
			t.Fatal(err)
		}
		if a.size < charge {
			t.Fatalf("charge %d accounted as %d", charge, a.size)
		}
		first := a.Pairs(n)
		if cap(first) != 1024 {
			t.Fatalf("charge %d: slab of %d pairs, want the 1 024 of n's class", charge, cap(first))
		}
		a.Free()
		recycled := p.Snapshot().Recycled
		b, _ := p.Alloc(memsim.DRAM, 16<<10)
		if got := b.Pairs(n); &got[0] != &first[0] || p.Snapshot().Recycled != recycled+1 {
			t.Fatalf("charge %d: the slab did not recycle into a same-class allocation", charge)
		}
		b.Free()
	}
	if used := p.Used(memsim.DRAM); used != 0 {
		t.Fatalf("%d bytes still charged", used)
	}
}

func TestPairsSizing(t *testing.T) {
	p := testPool()

	// Exactly a class: full capacity usable in pairs.
	a, _ := p.Alloc(memsim.DRAM, 4<<10)
	pairs := a.Pairs(256) // 256 * 16 B == 4 KiB exactly
	if len(pairs) != 256 {
		t.Errorf("len = %d", len(pairs))
	}
	if cap(pairs) < 256 {
		t.Errorf("cap = %d, want >= 256", cap(pairs))
	}
	// One past the charged size must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Pairs beyond the allocation must panic")
			}
		}()
		a.Pairs(257)
	}()
	a.Free()

	// Rounding: a 5 KiB request is charged the 8 KiB class and serves
	// 512 pairs.
	b, _ := p.Alloc(memsim.DRAM, 5<<10)
	if b.size != 8<<10 {
		t.Errorf("size = %d", b.size)
	}
	if got := b.Pairs(512); len(got) != 512 {
		t.Errorf("rounded class must serve 512 pairs, got %d", len(got))
	}
	b.Free()

	// Zero pairs on a minimal allocation (empty-KPA placement).
	c, _ := p.Alloc(memsim.DRAM, 16)
	if got := c.Pairs(0); len(got) != 0 {
		t.Errorf("Pairs(0) len = %d", len(got))
	}
	c.Free()
}

// TestJumboNotRecycled: allocations beyond the largest class pass
// through to the heap and never join a free list.
func TestJumboNotRecycled(t *testing.T) {
	cfg := memsim.KNLConfig()
	p := New(cfg, 0)
	jumbo := int64(300 << 20)
	a, err := p.Alloc(memsim.DRAM, jumbo)
	if err != nil {
		t.Fatal(err)
	}
	n := int(jumbo / memsim.PairBytes)
	first := a.Pairs(n)
	a.Free()
	b, _ := p.Alloc(memsim.DRAM, jumbo)
	second := b.Pairs(n)
	if &first[0] == &second[0] {
		t.Error("jumbo slabs must not be recycled")
	}
	if p.Snapshot().Recycled != 0 {
		t.Errorf("recycled = %d, want 0", p.Snapshot().Recycled)
	}
	b.Free()
}

func TestPairsOnFreedAllocationPanics(t *testing.T) {
	p := testPool()
	a, _ := p.Alloc(memsim.DRAM, 4096)
	a.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("Pairs after Free must panic")
		}
	}()
	a.Pairs(1)
}

func TestScratchRecycles(t *testing.T) {
	p := testPool()
	s := p.ScratchFor(memsim.HBM)
	b1 := s.GetPairs(1000)
	s.PutPairs(b1)
	b2 := s.GetPairs(900) // same 16 KiB class
	if &b1[0] != &b2[0] {
		t.Error("scratch must reuse the returned buffer")
	}
	if len(b2) != 900 {
		t.Errorf("len = %d", len(b2))
	}
	// Scratch bypasses accounting.
	if p.Used(memsim.HBM) != 0 {
		t.Errorf("scratch charged the tier: used = %d", p.Used(memsim.HBM))
	}
}

// TestScratchFeedsAllocations: scratch buffers and allocation slabs
// share one free list per (tier, class).
func TestScratchFeedsAllocations(t *testing.T) {
	p := testPool()
	s := p.ScratchFor(memsim.DRAM)
	b := s.GetPairs(256) // 4 KiB class
	s.PutPairs(b)
	a, _ := p.Alloc(memsim.DRAM, 4<<10)
	if got := a.Pairs(256); &got[0] != &b[0] {
		t.Error("allocation should draw from the scratch-returned slab")
	}
	a.Free()
}

// TestConcurrentRecycle hammers the sharded free lists from many
// goroutines (run with -race): accounting must conserve and every
// allocation's pairs view must be private to its owner.
func TestConcurrentRecycle(t *testing.T) {
	p := testPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a, err := p.Alloc(memsim.Tier(i%2), int64(4+i%60)<<10)
				if err != nil {
					continue
				}
				pairs := a.Pairs(64)
				for j := range pairs {
					pairs[j].Key = uint64(g)
				}
				for j := range pairs {
					if pairs[j].Key != uint64(g) {
						t.Errorf("slab shared across owners")
						break
					}
				}
				a.Free()
			}
		}(g)
	}
	wg.Wait()
	if p.Used(memsim.HBM) != 0 || p.Used(memsim.DRAM) != 0 {
		t.Error("accounting leak after concurrent recycle")
	}
	if p.Snapshot().Recycled == 0 {
		t.Error("expected some recycling under churn")
	}
}

// TestColSlabReuse pins the column free lists behind the zero-copy
// ingest path: a returned column slab must be handed out again
// (pointer identity), class-rounded, with occupancy gauges tracking.
func TestColSlabReuse(t *testing.T) {
	p := New(memsim.KNLConfig(), 0)

	col := p.TakeCol(memsim.DRAM, 512) // exactly the 4 KiB class
	if len(col) != 512 || cap(col) != 512 {
		t.Fatalf("len %d cap %d, want the full 512-word class", len(col), cap(col))
	}
	first := &col[0]
	p.PutCol(memsim.DRAM, col)
	s := p.Snapshot()
	if s.ColSlabsCached != 1 || s.ColSlabBytesCache == 0 {
		t.Fatalf("occupancy after put: %+v", s)
	}

	again := p.TakeCol(memsim.DRAM, 100)
	if &again[0] != first {
		t.Fatal("column slab not recycled")
	}
	if len(again) != 100 {
		t.Fatalf("recycled slab has len %d, want 100", len(again))
	}
	if p.Snapshot().ColSlabsRecycled != 1 {
		t.Fatalf("ColRecycled %d, want 1", p.Snapshot().ColSlabsRecycled)
	}
	s = p.Snapshot()
	if s.ColSlabsCached != 0 || s.ColSlabBytesCache != 0 {
		t.Fatalf("occupancy after take: %+v", s)
	}

	// Foreign capacities are trimmed to the class floor; tiny ones drop.
	p.PutCol(memsim.DRAM, make([]uint64, 700)) // floor class 4 KiB
	if got := p.TakeCol(memsim.DRAM, 512); cap(got) != 512 {
		t.Fatalf("floored slab cap %d, want 512 words", cap(got))
	}
	p.PutCol(memsim.DRAM, make([]uint64, 10)) // below the smallest class
	if n := p.Snapshot().ColSlabsCached; n != 0 {
		t.Fatalf("sub-class slab cached (%d)", n)
	}
}
