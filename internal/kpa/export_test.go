package kpa

import (
	"streambox/internal/algo"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

// NoopAllocator places KPAs on a tier without capacity accounting, for
// tests that do not care about memory pressure.
type NoopAllocator struct{ T memsim.Tier }

// AllocKPA implements Allocator.
func (n NoopAllocator) AllocKPA(int64) (memsim.Tier, *mempool.Allocation, error) {
	return n.T, nil, nil
}

// FromValues is NewValues filled with a copy of externally prepared
// (key, value) pairs.
func FromValues(pairs []algo.Pair, resident int, al Allocator) (*KPA, error) {
	k, fill, err := NewValues(len(pairs), resident, al)
	if err != nil {
		return nil, err
	}
	copy(fill, pairs)
	return k, nil
}

// NumSources returns the number of distinct bundles referenced.
func (k *KPA) NumSources() int { return len(k.sources) }

// ValuesResident reports whether the pairs carry materialized values in
// Ptr instead of bundle pointers.
func (k *KPA) ValuesResident() bool { return k.vals }

// Partial reports whether the pairs carry partial aggregates (see
// MergeReducePartial): a value-resident run whose values fold with
// Combiner.Combine instead of Agg.Add.
func (k *KPA) Partial() bool { return k.partial }

// ValueTwin returns a value-resident copy of run k — its pairs with each
// pointer resolved to value column valCol, in the same order — and
// destroys k.
func ValueTwin(k *KPA, valCol int, al Allocator) (*KPA, error) {
	defer k.Destroy()
	vals, err := k.values(0, k.Len(), valCol)
	if err != nil {
		return nil, err
	}
	v, err := FromValues(vals, k.resident, al)
	if err != nil {
		return nil, err
	}
	v.sorted = k.sorted
	return v, nil
}
