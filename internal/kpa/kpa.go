// Package kpa implements the Key Pointer Array (paper §4), the only data
// structure StreamBox-HBM places in HBM. A KPA holds a sequence of
// (resident key, record pointer) pairs; keys replicate one column of the
// full records, pointers reference rows of record bundles in DRAM. The
// package provides the ten streaming primitives of paper Table 2.
//
// Pointer runs are what the simulator (internal/ops, internal/engine)
// and the benchmark's replay build. The native runtime's pairs hold the
// record's aggregation value in the second word instead (NewValues):
// its plans aggregate one value column, so the value is everything a
// pointer would ever be followed for.
//
// Ownership: a KPA is reference counted. Most KPAs live their whole
// life with the single reference they are born with — create, use,
// Destroy. Sorted pane runs under the native runtime's pane-based
// sliding aggregation are the exception: one run is referenced by every
// sliding window covering its pane (Retain per extra window), each
// window's close releases one reference, and the slab returns to the
// mempool exactly once, when the last covering window closes.
package kpa

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

// Ptr packs a record pointer: high 32 bits bundle ID, low 32 bits row.
type Ptr = uint64

// PackPtr builds a record pointer.
func PackPtr(bundleID, row uint32) Ptr {
	return uint64(bundleID)<<32 | uint64(row)
}

// PtrBundle extracts the bundle ID of a pointer.
func PtrBundle(p Ptr) uint32 { return uint32(p >> 32) }

// PtrRow extracts the row index of a pointer.
func PtrRow(p Ptr) uint32 { return uint32(p) }

// Allocator decides where a new KPA lives. The simulator's engine
// applies the demand-balance knob and performance-impact tags (paper
// §5); the native runtime's is runtime.placement, one occupancy rule
// over the pool's tiers; tests use FixedAllocator.
type Allocator interface {
	// AllocKPA reserves nBytes for a new KPA and returns its placement.
	AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error)
}

// FixedAllocator always allocates from one tier of a pool.
type FixedAllocator struct {
	Pool *mempool.Pool
	T    memsim.Tier
}

// AllocKPA implements Allocator.
func (f FixedAllocator) AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error) {
	a, err := f.Pool.Alloc(f.T, nBytes)
	if err != nil {
		return 0, nil, err
	}
	return f.T, a, nil
}

// KPA is a key pointer array: intermediate grouping state. A KPA is
// itself reference counted: it is born with one reference, Retain adds
// more, and Destroy releases one — the storage frees when the last
// reference drops. Single-owner KPAs never call Retain and keep the
// original create/destroy discipline; the native runtime's pane-based
// sliding aggregation retains one reference per window sharing a
// sorted pane run, so the run is freed exactly once, when its last
// covering window closes.
type KPA struct {
	pairs    []algo.Pair
	resident int // column index the keys replicate
	tier     memsim.Tier
	sorted   bool
	meta     algo.RunMeta
	// sources maps bundle ID -> bundle for every bundle any pointer
	// references; each entry holds one reference count (paper §5.1).
	sources map[uint32]*bundle.Bundle
	alloc   *mempool.Allocation
	// refs is the KPA's own reference count; <= 0 means destroyed.
	refs atomic.Int32

	// vals marks a value-resident KPA: each pair's Ptr field holds the
	// aggregation value itself and sources is empty. The native runtime's
	// runs are born that way (NewValues); a pointer run becomes
	// value-resident only when evicted to the spill tier (an extent holds
	// bare pairs, and dropping the bundle links is what frees the
	// bundles). A merge-reduce reads a pointer run's values once, on
	// entry, and leaves the run as it is. See residency.go.
	vals bool
	// partial marks a word-folded run: value-resident, one pair per
	// distinct key, and each Ptr is a WordFolder's result over the
	// records the run replaced — a sum, or a count that a merge adds as
	// it is rather than as 1. Only a word fold makes one (FoldColumns,
	// MergeReducePartial) and only a word fold reads one: every
	// merge-reduce entry refuses a partial run under any other
	// aggregator, and MergeK, the other aggregators' seal, refuses one
	// outright. The flag lives on the KPA, so it survives Evict and
	// EnsureResident.
	partial bool
	// resMu serializes residency transitions (Evict/EnsureResident).
	resMu sync.Mutex
}

// newKPA allocates backing storage for n pairs via al. When the
// allocator hands back a mempool allocation, the pair array is the
// allocation's (possibly recycled) slab; accounting-free allocators
// (NoopAllocator) fall back to the Go heap.
func newKPA(n int, resident int, al Allocator) (*KPA, error) {
	bytes := int64(n) * memsim.PairBytes
	if bytes == 0 {
		bytes = memsim.PairBytes // placement still matters for empties
	}
	tier, alloc, err := al.AllocKPA(bytes)
	if err != nil {
		return nil, fmt.Errorf("kpa: allocating %d pairs: %w", n, err)
	}
	var pairs []algo.Pair
	if alloc != nil {
		pairs = alloc.Pairs(n)[:0]
	} else {
		pairs = make([]algo.Pair, 0, n)
	}
	k := &KPA{
		pairs:    pairs,
		resident: resident,
		tier:     tier,
		alloc:    alloc,
	}
	k.refs.Store(1)
	return k, nil
}

// Len returns the number of pairs.
func (k *KPA) Len() int { return len(k.pairs) }

// Tier returns the memory tier holding the KPA.
func (k *KPA) Tier() memsim.Tier { return k.tier }

// Resident returns the column index the keys replicate (SyntheticKey
// for computed keys).
func (k *KPA) Resident() int { return k.resident }

// Sorted reports whether the pairs are sorted by resident key.
func (k *KPA) Sorted() bool { return k.sorted }

// Pairs returns the underlying pairs. Callers must treat the slice as
// read-only; primitives in this package are the only mutators.
func (k *KPA) Pairs() []algo.Pair { return k.pairs }

// Keys returns a copy of the resident keys (testing/debugging helper).
func (k *KPA) Keys() []uint64 { return algo.Keys(k.pairs) }

// Bytes returns the modeled in-memory size of the KPA.
func (k *KPA) Bytes() int64 { return int64(len(k.pairs)) * memsim.PairBytes }

// Schema returns the schema shared by the KPA's source bundles; ok is
// false when the KPA has no sources or they disagree.
func (k *KPA) Schema() (bundle.Schema, bool) {
	s, err := k.uniformSchema()
	return s, err == nil
}

// Deref resolves a pointer into (bundle, row). It panics on a dangling
// pointer, which would indicate broken reference counting.
func (k *KPA) Deref(p Ptr) (*bundle.Bundle, int) {
	b := k.sources[PtrBundle(p)]
	if b == nil {
		panic(fmt.Sprintf("kpa: dangling pointer into bundle %d", PtrBundle(p)))
	}
	return b, int(PtrRow(p))
}

// addSource links a bundle, taking one reference if new (paper §5.1:
// "adds a link pointing to R if one does not exist and increments the
// reference count").
func (k *KPA) addSource(b *bundle.Bundle) {
	id := uint32(b.ID())
	if _, ok := k.sources[id]; !ok {
		if k.sources == nil { // built lazily: most KPAs link one bundle
			k.sources = make(map[uint32]*bundle.Bundle, 1)
		}
		b.Retain()
		k.sources[id] = b
	}
}

// inheritSources copies another KPA's bundle links, retaining each.
func (k *KPA) inheritSources(from *KPA) {
	if len(from.sources) == 0 {
		return
	}
	if k.sources == nil {
		k.sources = make(map[uint32]*bundle.Bundle, len(from.sources))
	}
	for id, b := range from.sources {
		if _, ok := k.sources[id]; !ok {
			b.Retain()
			k.sources[id] = b
		}
	}
}

// Meta returns the run's provenance metadata (zero until SetMeta).
func (k *KPA) Meta() algo.RunMeta { return k.meta }

// SetMeta records the run's provenance, used to order a window's runs
// deterministically at close.
func (k *KPA) SetMeta(m algo.RunMeta) { k.meta = m }

// Retain adds n references to the KPA: Destroy must then be called n
// more times before the storage frees. The pane path retains one
// reference per additional window sharing a sorted pane run. Retaining
// a destroyed KPA panics — a reference can only be minted by an owner
// who already holds one.
func (k *KPA) Retain(n int) {
	if n <= 0 {
		return
	}
	if k.refs.Add(int32(n)) <= int32(n) {
		panic("kpa: retain of destroyed KPA")
	}
}

// Refs returns the current reference count (tests/metrics).
func (k *KPA) Refs() int { return int(k.refs.Load()) }

// Destroy releases one reference to the KPA; the last release drops
// every source-bundle reference (possibly reclaiming bundles) and frees
// the slab allocation, whose pair array rejoins the pool's free list
// for reuse. It returns true when this call freed the storage. Each
// reference must be destroyed exactly once; releasing more references
// than were ever held panics — the count is atomic, so even racing
// destroyers (a merge-tree bug, not a legal schedule) fail loudly
// instead of double-freeing a recycled slab under a still-running
// reader. The atomic decrement also orders the free after every
// sharer's reads: a window still merging a shared run holds a
// reference, so the slab cannot be recycled under it.
func (k *KPA) Destroy() bool {
	switch r := k.refs.Add(-1); {
	case r > 0:
		return false
	case r < 0:
		panic("kpa: double destroy")
	}
	for _, b := range k.sources {
		b.Release()
	}
	k.sources = nil
	if k.alloc != nil {
		k.alloc.Free()
		k.alloc = nil
	}
	k.pairs = nil
	return true
}

// String renders a short description.
func (k *KPA) String() string {
	return fmt.Sprintf("kpa(len=%d col=%d tier=%v sorted=%v srcs=%d)",
		len(k.pairs), k.resident, k.tier, k.sorted, len(k.sources))
}
