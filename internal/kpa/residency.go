package kpa

import (
	"fmt"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

// Run residency: the cold rung of the degradation ladder.
//
// The native runtime places a run once, at birth — in the spill arena
// when its allocator says so — and never moves it: a spilled run stays
// in its extent until its last Destroy, and every merge reads its pairs
// through the mmap view like any other pair slice. Evict and
// EnsureResident, which relocate a run after birth, are the benchmark
// replay's alone: it prices an eviction and a load. Evict copies a
// value-resident run as it is; a pointer run materializes its values on
// the way, every pair's bundle pointer dereferenced once and replaced by
// the value itself, and its bundle links drop, so the bundles behind it
// free with the last KPA link that releases them. EnsureResident copies
// a spilled run back into a memory tier.
//
// Concurrency contract: Evict and EnsureResident relocate the pairs, so
// both may only be called while the run is quiescent — no merge reads
// it. The runtime relocates no run, so its merges never race one; a
// caller that does must order the relocation before any reader itself.
// The two serialize per KPA (resMu), so concurrent callers of
// EnsureResident see one load.

// dropSources releases every source-bundle link.
func (k *KPA) dropSources() {
	for _, b := range k.sources {
		b.Release()
	}
	k.sources = nil
}

// valueOf resolves one pair to its aggregation value: the materialized
// value for a value-resident run, a bundle dereference otherwise.
func (k *KPA) valueOf(p algo.Pair, valCol int) uint64 {
	if k.vals {
		return p.Ptr
	}
	b, row := k.Deref(p.Ptr)
	return b.At(row, valCol)
}

// values returns pairs [lo, hi) of k with every Ptr a value: the run's
// own pairs when they carry their values, else a fresh slice in which
// each pointer is dereferenced once for value column valCol — the
// source map is consulted only where the bundle changes, once for a
// first-level run. A merge-reduce reads a pointer run here, on entry,
// so its fold sees values only.
func (k *KPA) values(lo, hi, valCol int) ([]algo.Pair, error) {
	if k.vals {
		return k.pairs[lo:hi], nil
	}
	if err := k.checkValCol(valCol); err != nil {
		return nil, err
	}
	out := make([]algo.Pair, hi-lo)
	var b *bundle.Bundle
	for i, p := range k.pairs[lo:hi] {
		if b == nil || uint32(b.ID()) != PtrBundle(p.Ptr) {
			b, _ = k.Deref(p.Ptr)
		}
		out[i] = algo.Pair{Key: p.Key, Ptr: b.At(int(PtrRow(p.Ptr)), valCol)}
	}
	return out, nil
}

// checkValCol validates valCol against every source bundle's schema
// (vacuously true for value-resident runs, which have no sources).
func (k *KPA) checkValCol(valCol int) error {
	if k.vals {
		return nil
	}
	for _, b := range k.sources {
		if valCol < 0 || valCol >= b.Schema().NumCols {
			return fmt.Errorf("kpa: value column %d out of range", valCol)
		}
	}
	return nil
}

// Evict moves a sealed, sorted run to the spill tier: the pairs are
// copied, values materialized from valCol, into an extent of the pool's
// mmap'd arena — bare pairs, nothing else: sorted, resident, partial and
// meta stay on the KPA, and the unlinked file is never read by anyone
// who does not hold it — the bundle links and the memory-tier slab free,
// and the KPA's pairs become a view of the extent, which a merge reads
// where it lies. Returns the bytes of pair slab released from the run's
// former tier. Fails without side effects when the spill tier is
// detached or full (mempool.ErrExhausted).
//
// The caller must guarantee quiescence: no concurrent reader of the
// run.
func (k *KPA) Evict(pool *mempool.Pool, valCol int) (freed int64, err error) {
	k.resMu.Lock()
	defer k.resMu.Unlock()
	if k.tier == memsim.Spill {
		return 0, nil
	}
	if !k.sorted {
		return 0, fmt.Errorf("kpa: evict of unsorted run")
	}
	if err := k.checkValCol(valCol); err != nil {
		return 0, err
	}
	alloc, err := pool.Alloc(memsim.Spill, max(k.Bytes(), memsim.PairBytes))
	if err != nil {
		return 0, err
	}
	extent := alloc.Pairs(k.Len())
	if k.vals {
		copy(extent, k.pairs)
	} else {
		for i, p := range k.pairs {
			extent[i] = algo.Pair{Key: p.Key, Ptr: k.valueOf(p, valCol)}
		}
	}

	freed = k.Bytes()
	k.dropSources()
	if k.alloc != nil {
		k.alloc.Free()
	}
	k.alloc = alloc
	k.pairs = extent
	k.tier = memsim.Spill
	k.vals = true
	return freed, nil
}

// EnsureResident loads a spilled run back onto a memory tier chosen by
// al, copying the extent into a fresh pair slab and freeing it; loaded
// reports whether this call performed the load. Idempotent: a run
// already in memory returns immediately, and concurrent callers
// serialize on the KPA, so exactly one performs the load. On allocation
// failure the run stays spilled and readable through its mmap view.
func (k *KPA) EnsureResident(al Allocator) (loaded bool, err error) {
	k.resMu.Lock()
	defer k.resMu.Unlock()
	if k.tier != memsim.Spill {
		return false, nil
	}
	n := k.Len()
	tier, alloc, err := al.AllocKPA(k.Bytes())
	if err != nil {
		return false, err
	}
	var pairs []algo.Pair
	if alloc != nil {
		pairs = alloc.Pairs(n)
	} else {
		pairs = make([]algo.Pair, n)
	}
	copy(pairs, k.pairs)
	old := k.alloc
	k.pairs = pairs
	k.alloc = alloc
	k.tier = tier
	if old != nil {
		old.Free()
	}
	return true, nil
}
