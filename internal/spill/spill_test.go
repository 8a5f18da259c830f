package spill

import (
	"errors"
	"testing"

	"streambox/internal/algo"
)

// allocated returns the bytes of f's extents that are not on a free
// list: the bump region less what was freed.
func allocated(f *File) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.tail
	for size, offs := range f.free {
		n -= size * int64(len(offs))
	}
	return n
}

func TestArenaAllocFreeReuse(t *testing.T) {
	f, err := Create(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Capacity() != 4096 {
		t.Fatalf("capacity %d, want 4096", f.Capacity())
	}
	a, err := f.Alloc(100) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	if a%extentAlign != 0 {
		t.Fatalf("offset %d not %d-aligned", a, extentAlign)
	}
	b, err := f.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("distinct allocs share offset %d", a)
	}
	if got := allocated(f); got != 256 {
		t.Fatalf("used %d, want 256", got)
	}
	f.Free(a, 100)
	if got := allocated(f); got != 128 {
		t.Fatalf("used after free %d, want 128", got)
	}
	c, err := f.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("free-list reuse: got offset %d, want %d", c, a)
	}
}

func TestArenaFull(t *testing.T) {
	f, err := Create(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Alloc(256); err != nil {
		t.Fatal(err)
	}
	_, err = f.Alloc(64)
	var full *ErrFull
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want *ErrFull", err)
	}
	if full.Want != 64 || full.Free != 0 {
		t.Fatalf("ErrFull %+v", full)
	}
}

func TestArenaPairsView(t *testing.T) {
	f, err := Create(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const n = 10
	off, err := f.Alloc(n * 16)
	if err != nil {
		t.Fatal(err)
	}
	view := f.Pairs(off, n)
	for i := range view {
		view[i] = algo.Pair{Key: uint64(i), Ptr: uint64(100 + i)}
	}
	again := f.Pairs(off, n)
	for i, p := range again {
		if p.Key != uint64(i) || p.Ptr != uint64(100+i) {
			t.Fatalf("pair %d = %+v", i, p)
		}
	}
}
