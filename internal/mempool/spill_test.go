package mempool

import (
	"errors"
	"testing"

	"streambox/internal/memsim"
	"streambox/internal/spill"
)

func TestSpillTierAlloc(t *testing.T) {
	p := New(memsim.KNLConfig(), 0)

	// Detached cold tier: allocations fail, gauges read empty.
	if _, err := p.Alloc(memsim.Spill, 128); err == nil {
		t.Fatal("Alloc on detached spill tier succeeded")
	}
	if u := p.Utilization(memsim.Spill); u != 0 {
		t.Fatalf("detached spill utilization %v, want 0", u)
	}

	f, err := spill.Create(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p.AttachSpill(f)
	if got := p.Capacity(memsim.Spill); got != 1<<16 {
		t.Fatalf("spill capacity %d, want %d", got, 1<<16)
	}

	a, err := p.Alloc(memsim.Spill, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier() != memsim.Spill {
		t.Fatalf("tier %v", a.Tier())
	}
	if a.size != spill.RoundUp(100) {
		t.Fatalf("size %d, want extent-rounded %d", a.size, spill.RoundUp(100))
	}
	pairs := a.Pairs(4)
	pairs[3].Key = 42
	if again := a.Pairs(4); again[3].Key != 42 {
		t.Fatal("spill Pairs view is not stable")
	}
	if used := p.Used(memsim.Spill); used != a.size {
		t.Fatalf("used %d, want %d", used, a.size)
	}
	snap := p.Snapshot()
	if snap.Tiers[memsim.Spill].Used != a.size {
		t.Fatalf("snapshot spill used %d, want %d", snap.Tiers[memsim.Spill].Used, a.size)
	}

	// Spill pressure must not trigger admission control.
	if pr := p.Pressure(); pr != 0 {
		t.Fatalf("pressure %v with only spill in use, want 0", pr)
	}

	a.Free()
	if used := p.Used(memsim.Spill); used != 0 {
		t.Fatalf("used after free %d", used)
	}
	// The arena took the extent back: its free list hands it out again.
	if off, err := f.Alloc(100); err != nil || off != a.spillOff {
		t.Fatalf("arena realloc at %d (%v), want the freed extent at %d", off, err, a.spillOff)
	} else {
		f.Free(off, 100)
	}

	// Exhaustion surfaces as the pool's uniform ErrExhausted.
	if _, err := p.Alloc(memsim.Spill, 1<<20); err == nil {
		t.Fatal("oversize spill alloc succeeded")
	} else {
		var ex *ErrExhausted
		if !errors.As(err, &ex) || ex.Tier != memsim.Spill {
			t.Fatalf("err = %v, want spill ErrExhausted", err)
		}
	}
}

// TestSpillTierCols: the arena holds runs only. A column slab asked of
// the spill tier is an ordinary pooled slab, attached arena or not, and
// goes back to the free lists, not into an extent.
func TestSpillTierCols(t *testing.T) {
	p := New(memsim.KNLConfig(), 0)
	f, err := spill.Create(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p.AttachSpill(f)

	col := p.TakeCol(memsim.Spill, 16)
	if len(col) != 16 {
		t.Fatalf("col len %d", len(col))
	}
	if off, err := f.Alloc(1 << 16); err != nil {
		t.Fatalf("a column slab took part of the arena: %v", err)
	} else {
		f.Free(off, 1<<16)
	}
	p.PutCol(memsim.Spill, col)
	if out := p.Snapshot().ColsOut; out != 0 {
		t.Fatalf("%d column slabs out after PutCol", out)
	}
}
