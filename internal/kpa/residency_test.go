package kpa

import (
	"fmt"
	"sync"
	"testing"

	"streambox/internal/bundle"
	"streambox/internal/memsim"
	"streambox/internal/spill"
)

// The order-sensitive orderAgg/newOrderAgg from mergereduce_test.go
// makes any reordering between evaluation strategies visible.

func emitKey(k, v uint64) string { return fmt.Sprintf("%d=%d", k, v) }

func TestEvictLoadRoundTrip(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	f, err := spill.Create(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool.AttachSpill(f)

	reg := bundle.NewRegistry()
	keys := make([]uint64, 600)
	for i := range keys {
		keys[i] = uint64(i * 37 % 101)
	}
	k := sortedKPA(t, reg, al, keys)

	// Capture the expected (key, value) sequence before eviction.
	type kv struct{ key, val uint64 }
	want := make([]kv, k.Len())
	for i, p := range k.Pairs() {
		b, row := k.Deref(p.Ptr)
		want[i] = kv{p.Key, b.At(row, 1)}
	}

	freed, err := k.Evict(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freed != int64(len(keys))*memsim.PairBytes {
		t.Fatalf("freed %d bytes, want %d", freed, int64(len(keys))*memsim.PairBytes)
	}
	if k.Tier() != memsim.Spill || !k.ValuesResident() {
		t.Fatalf("after evict: tier=%v vals=%v", k.Tier(), k.ValuesResident())
	}
	if k.NumSources() != 0 {
		t.Fatalf("evicted run still links %d bundles", k.NumSources())
	}
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Fatalf("HBM used %d after evict, want 0", got)
	}
	if pool.Used(memsim.Spill) == 0 || f.Used() == 0 {
		t.Fatal("spill tier shows no usage after evict")
	}
	for i, p := range k.Pairs() {
		if p.Key != want[i].key || p.Ptr != want[i].val {
			t.Fatalf("spilled pair %d = %+v, want %+v", i, p, want[i])
		}
	}
	// Double evict is a no-op.
	if freed, err := k.Evict(pool, 1); err != nil || freed != 0 {
		t.Fatalf("second evict: freed=%d err=%v", freed, err)
	}

	loaded, err := k.EnsureResident(al)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded {
		t.Fatal("EnsureResident reported no load for a spilled run")
	}
	if k.Tier() != memsim.HBM {
		t.Fatalf("loaded to %v, want HBM", k.Tier())
	}
	if got := pool.Used(memsim.Spill); got != 0 {
		t.Fatalf("spill used %d after load, want 0", got)
	}
	for i, p := range k.Pairs() {
		if p.Key != want[i].key || p.Ptr != want[i].val {
			t.Fatalf("loaded pair %d = %+v, want %+v", i, p, want[i])
		}
	}

	k.Destroy()
	if got := pool.Used(memsim.HBM); got != 0 {
		t.Fatalf("HBM used %d after destroy, want 0", got)
	}
}

// TestMergeReduceMixedResidency pins the tentpole's correctness claim
// at the kpa level: a fused merge-reduce over a mix of spilled
// (value-resident) and in-memory (pointer) runs emits bit-identical
// results to the all-in-memory merge, even for an order-sensitive
// aggregator.
func TestMergeReduceMixedResidency(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	f, err := spill.Create(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool.AttachSpill(f)

	reg := bundle.NewRegistry()
	mkKeys := func(seed int) []uint64 {
		keys := make([]uint64, 400)
		for i := range keys {
			keys[i] = uint64((i*seed + seed) % 53)
		}
		return keys
	}
	runs := []*KPA{
		sortedKPA(t, reg, al, mkKeys(7)),
		sortedKPA(t, reg, al, mkKeys(11)),
		sortedKPA(t, reg, al, mkKeys(13)),
	}

	collect := func() []string {
		var out []string
		lo := []int{0, 0, 0}
		hi := []int{runs[0].Len(), runs[1].Len(), runs[2].Len()}
		if err := MergeReduceRange(runs, lo, hi, 1, newOrderAgg, func(k, v uint64) {
			out = append(out, emitKey(k, v))
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	want := collect()
	if _, err := runs[1].Evict(pool, 1); err != nil {
		t.Fatal(err)
	}
	got := collect()
	if len(got) != len(want) {
		t.Fatalf("emitted %d groups with spilled run, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d: %s, want %s", i, got[i], want[i])
		}
	}
	for _, r := range runs {
		r.Destroy()
	}
}

// TestMergeHomogeneity: the materializing merge (MergeK) refuses mixed
// pointer/value-resident inputs, and succeeds once the inputs are
// converted to one mode.
func TestMergeHomogeneity(t *testing.T) {
	al, pool := poolAllocator(t, memsim.DRAM)
	f, err := spill.Create(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool.AttachSpill(f)

	reg := bundle.NewRegistry()
	a := sortedKPA(t, reg, al, []uint64{1, 3, 5})
	b := sortedKPA(t, reg, al, []uint64{2, 4, 6})
	if _, err := a.Evict(pool, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeK([]*KPA{a, b}, al); err == nil {
		t.Fatal("MergeK accepted mixed residency")
	}
	if b, err = ValueTwin(b, 1, al); err != nil {
		t.Fatal(err)
	}
	m, err := MergeK([]*KPA{a, b}, al)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ValuesResident() {
		t.Fatal("merged output of value-resident runs is not value-resident")
	}
	m.Destroy()
	a.Destroy()
	b.Destroy()
}

// TestConcurrentEnsureResident: many closes demanding the same spilled
// pane run load it exactly once.
func TestConcurrentEnsureResident(t *testing.T) {
	al, pool := poolAllocator(t, memsim.HBM)
	f, err := spill.Create(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pool.AttachSpill(f)

	reg := bundle.NewRegistry()
	k := sortedKPA(t, reg, al, make([]uint64, 256))
	if _, err := k.Evict(pool, 1); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Allocs

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := k.EnsureResident(al); err != nil {
				t.Error(err)
			}
			// Post-load read: every caller must see the loaded pairs.
			if len(k.Pairs()) != 256 {
				t.Error("short pairs after load")
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := pool.Stats().Allocs - before; got != 1 {
		t.Fatalf("%d allocations for one shared load, want 1", got)
	}
	k.Destroy()
}
