package bundle

import (
	"fmt"
	"sync"

	"streambox/internal/memsim"
)

// Registry assigns 32-bit bundle IDs and tracks the live bundles. KPA
// pointers pack (bundle ID, row) into 64 bits, so a process-wide ID
// space makes pointers meaningful across KPA merges without remapping —
// the role virtual addresses play in the paper's C++ implementation.
type Registry struct {
	mu   sync.Mutex
	next uint32
	m    map[uint32]*Bundle
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[uint32]*Bundle)}
}

// NewBuilder starts a bundle with a fresh registry-assigned ID, in heap
// columns of its own (the simulator's form). The bundle is registered
// when sealed and unregistered when its reference count drops to zero.
func (r *Registry) NewBuilder(schema Schema, capacity int, tier memsim.Tier) (*Builder, error) {
	return r.own(NewBuilder(uint64(r.nextID()), schema, capacity, tier))
}

// NewBuilderOver is NewBuilder over column storage the caller supplies
// (the native runtime's form): one slice per schema column, of equal
// lengths. The rows they already hold are the bundle's first rows — a
// full batch seals as it is, never copied — and appends fill their
// spare capacity. The bundle owns cols, header included, from here on;
// release, when non-nil, is handed them back by the Release that
// reclaims the bundle.
func (r *Registry) NewBuilderOver(schema Schema, cols [][]uint64, tier memsim.Tier, release func(cols [][]uint64)) (*Builder, error) {
	return r.own(newBuilderOver(uint64(r.nextID()), schema, cols, tier, release))
}

func (r *Registry) nextID() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// own makes the registry the one the builder's bundle registers with.
func (r *Registry) own(bd *Builder, err error) (*Builder, error) {
	if err != nil {
		return nil, err
	}
	bd.reg = r
	return bd, nil
}

// Live returns the number of registered bundles.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

func (r *Registry) register(b *Bundle) {
	if b.id > 0xFFFFFFFF {
		panic(fmt.Sprintf("bundle: id %d exceeds 32-bit pointer space", b.id))
	}
	r.mu.Lock()
	r.m[uint32(b.id)] = b
	r.mu.Unlock()
	b.AddOnFree(func(bb *Bundle) {
		r.mu.Lock()
		delete(r.m, uint32(bb.id))
		r.mu.Unlock()
	})
}
