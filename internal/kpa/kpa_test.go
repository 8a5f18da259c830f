package kpa

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

var kvSchema = bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}}

type env struct {
	reg  *bundle.Registry
	pool *mempool.Pool
	al   Allocator
}

func newEnv() *env {
	pool := mempool.New(memsim.KNLConfig(), 0)
	return &env{
		reg:  bundle.NewRegistry(),
		pool: pool,
		al:   FixedAllocator{Pool: pool, T: memsim.HBM},
	}
}

func (e *env) bundleOf(t *testing.T, rows ...[3]uint64) *bundle.Bundle {
	if t != nil {
		t.Helper()
	}
	bd, err := e.reg.NewBuilder(kvSchema, len(rows)+1, memsim.DRAM)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		if err := bd.Append(r[0], r[1], r[2]); err != nil {
			panic(err)
		}
	}
	return bd.Seal()
}

func (e *env) newBuilder(schema bundle.Schema, capacity int) (*bundle.Builder, error) {
	return e.reg.NewBuilder(schema, capacity, memsim.DRAM)
}

func TestPtrPacking(t *testing.T) {
	p := PackPtr(0xDEADBEEF, 0x12345678)
	if PtrBundle(p) != 0xDEADBEEF {
		t.Errorf("bundle = %x", PtrBundle(p))
	}
	if PtrRow(p) != 0x12345678 {
		t.Errorf("row = %x", PtrRow(p))
	}
}

func TestExtract(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1}, [3]uint64{3, 30, 2}, [3]uint64{9, 90, 3})
	k, err := Extract(b, 0, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != 3 {
		t.Fatalf("len = %d", k.Len())
	}
	if !reflect.DeepEqual(k.Keys(), []uint64{7, 3, 9}) {
		t.Fatalf("keys = %v", k.Keys())
	}
	if k.Resident() != 0 {
		t.Errorf("resident = %d", k.Resident())
	}
	if k.Tier() != memsim.HBM {
		t.Errorf("tier = %v", k.Tier())
	}
	if k.Sorted() {
		t.Error("unsorted input must not claim sortedness")
	}
	if k.NumSources() != 1 {
		t.Errorf("sources = %d", k.NumSources())
	}
	// Extract takes a reference: producer ref + KPA ref.
	if b.RC() != 2 {
		t.Errorf("rc = %d, want 2", b.RC())
	}
	// Pointers resolve to the right rows.
	src, row := k.Deref(k.Pairs()[1].Ptr)
	if src != b || row != 1 {
		t.Error("pointer dereference wrong")
	}
	if !strings.Contains(k.String(), "len=3") {
		t.Errorf("String = %q", k.String())
	}
}

func TestExtractBadColumn(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 2, 3})
	if _, err := Extract(b, 5, e.al); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Extract(b, -1, e.al); err == nil {
		t.Fatal("expected error")
	}
}

func TestExtractAllocFailure(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 0
	pool := mempool.New(cfg, 0)
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 2, 3})
	_, err := Extract(b, 0, FixedAllocator{Pool: pool, T: memsim.HBM})
	if err == nil {
		t.Fatal("expected allocation failure")
	}
}

func TestDestroyReleasesSources(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 2, 3})
	k, _ := Extract(b, 0, e.al)
	st := e.pool.Snapshot()
	if st.Allocs != 1 {
		t.Fatalf("allocs = %d", st.Allocs)
	}
	k.Destroy()
	if k.Refs() > 0 {
		t.Error("not marked destroyed")
	}
	if b.RC() != 1 {
		t.Errorf("rc after destroy = %d, want 1 (producer)", b.RC())
	}
	if e.pool.Snapshot().Frees != 1 {
		t.Error("slab not freed")
	}
	b.Release() // producer drops: bundle reclaimed
	if e.reg.Live() != 0 {
		t.Error("bundle not unregistered")
	}
}

func TestDoubleDestroyPanics(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 2, 3})
	k, _ := Extract(b, 0, e.al)
	k.Destroy()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Destroy()
}

func TestSortAndKeys(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1}, [3]uint64{3, 30, 2}, [3]uint64{9, 90, 3})
	k, _ := Extract(b, 0, e.al)
	SortRadix(k, 1, nil)
	if !k.Sorted() {
		t.Fatal("not marked sorted")
	}
	if !reflect.DeepEqual(k.Keys(), []uint64{3, 7, 9}) {
		t.Fatalf("keys = %v", k.Keys())
	}
	// Pointers still resolve to rows carrying the matching key.
	for _, p := range k.Pairs() {
		src, row := k.Deref(p.Ptr)
		if src.At(row, 0) != p.Key {
			t.Fatal("pointer/key binding broken")
		}
	}
}

// TestSortColumnsBuildsSortedRun pins the column entry's contract: the
// run NewValues made ends sorted and value-resident, pair for pair what
// SortRadix makes of the zipped columns, on narrow keys (the counting
// pass) and wide ones (zip and radix); a run of another length is a bug.
func TestSortColumnsBuildsSortedRun(t *testing.T) {
	e := newEnv()
	r := rand.New(rand.NewSource(5))
	for _, mask := range []uint64{1023, ^uint64(0)} {
		keys, vals := make([]uint64, 3000), make([]uint64, 3000)
		zipped := make([]algo.Pair, len(keys))
		for i := range keys {
			keys[i], vals[i] = r.Uint64()&mask, uint64(i)
			zipped[i] = algo.Pair{Key: keys[i], Ptr: vals[i]}
		}
		want, err := FromValues(zipped, 0, e.al)
		if err != nil {
			t.Fatal(err)
		}
		SortRadix(want, 1, nil)
		got, _, err := NewValues(len(keys), 0, e.al)
		if err != nil {
			t.Fatal(err)
		}
		SortColumns(got, keys, vals, algo.ScanKeys(keys), nil)
		if !got.Sorted() || !got.ValuesResident() || !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
			t.Fatalf("mask %#x: SortColumns made %v, not SortRadix's run of the zipped columns", mask, got)
		}
		got.Destroy()
		want.Destroy()
	}
	short, _, err := NewValues(2, 0, e.al)
	if err != nil {
		t.Fatal(err)
	}
	defer short.Destroy()
	defer func() {
		if recover() == nil {
			t.Fatal("SortColumns of 3 keys into a 2-pair run must panic")
		}
	}()
	SortColumns(short, []uint64{1, 2, 3}, []uint64{1, 2, 3}, algo.ScanKeys([]uint64{1, 2, 3}), nil)
}

func TestKeySwap(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1}, [3]uint64{3, 30, 2})
	k, _ := Extract(b, 0, e.al)
	SortRadix(k, 1, nil)
	if err := KeySwap(k, 1); err != nil {
		t.Fatal(err)
	}
	if k.Resident() != 1 {
		t.Errorf("resident = %d", k.Resident())
	}
	if k.Sorted() {
		t.Error("keyswap must invalidate sortedness")
	}
	sort.Slice(k.pairs, func(i, j int) bool { return k.pairs[i].Key < k.pairs[j].Key })
	if !reflect.DeepEqual(k.Keys(), []uint64{30, 70}) {
		t.Fatalf("keys = %v", k.Keys())
	}
	if err := KeySwap(k, 9); err == nil {
		t.Fatal("bad column must fail")
	}
}

func TestMaterialize(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1}, [3]uint64{3, 30, 2}, [3]uint64{9, 90, 3})
	k, _ := Extract(b, 0, e.al)
	SortRadix(k, 1, nil)
	out, err := Materialize(k, e.newBuilder)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("rows = %d", out.Rows())
	}
	// Sorted order: keys 3, 7, 9 with their full records.
	if out.At(0, 0) != 3 || out.At(0, 1) != 30 || out.At(0, 2) != 2 {
		t.Fatalf("row 0 = %d %d %d", out.At(0, 0), out.At(0, 1), out.At(0, 2))
	}
	if out.At(2, 1) != 90 {
		t.Error("row 2 wrong")
	}
}

func TestMaterializeWritesBackDirtyKeys(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1})
	// A resident-column in-place update is written back.
	k2, _ := Extract(b, 0, e.al)
	k2.pairs[0].Key = 99
	out2, _ := Materialize(k2, e.newBuilder)
	if out2.At(0, 0) != 99 {
		t.Error("dirty resident key must be written back on materialize")
	}
}

func TestMaterializeEmptyFails(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t) // empty bundle
	k, err := Extract(b, 0, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(k, e.newBuilder); err == nil {
		t.Fatal("materializing an empty KPA must fail (no schema)")
	}
}

func TestMerge(t *testing.T) {
	e := newEnv()
	b1 := e.bundleOf(t, [3]uint64{5, 50, 1}, [3]uint64{1, 10, 2})
	b2 := e.bundleOf(t, [3]uint64{3, 30, 3}, [3]uint64{7, 70, 4})
	k1, _ := Extract(b1, 0, e.al)
	k2, _ := Extract(b2, 0, e.al)
	SortRadix(k1, 1, nil)
	SortRadix(k2, 1, nil)
	m, err := MergeK([]*KPA{k1, k2}, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Keys(), []uint64{1, 3, 5, 7}) {
		t.Fatalf("keys = %v", m.Keys())
	}
	if !m.Sorted() {
		t.Error("merge output must be sorted")
	}
	if m.NumSources() != 2 {
		t.Errorf("sources = %d", m.NumSources())
	}
	// RC: producer + k1 + m for b1.
	if b1.RC() != 3 {
		t.Errorf("b1 rc = %d, want 3", b1.RC())
	}
	// Destroying inputs keeps the merge output dereferenceable.
	k1.Destroy()
	k2.Destroy()
	for _, p := range m.Pairs() {
		src, row := m.Deref(p.Ptr)
		if src.At(row, 0) != p.Key {
			t.Fatal("binding broken after input destroy")
		}
	}
}

func TestMergeErrors(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{5, 50, 1}, [3]uint64{1, 10, 2})
	k1, _ := Extract(b, 0, e.al)
	k2, _ := Extract(b, 0, e.al)
	if _, err := MergeK([]*KPA{k1, k2}, e.al); err == nil {
		t.Fatal("unsorted merge must fail")
	}
	SortRadix(k1, 1, nil)
	SortRadix(k2, 1, nil)
	KeySwap(k2, 1)
	SortRadix(k2, 1, nil)
	if _, err := MergeK([]*KPA{k1, k2}, e.al); err == nil {
		t.Fatal("mixed-resident merge must fail")
	}
}

func TestJoin(t *testing.T) {
	e := newEnv()
	b1 := e.bundleOf(t, [3]uint64{1, 10, 1}, [3]uint64{2, 20, 2})
	b2 := e.bundleOf(t, [3]uint64{2, 200, 3}, [3]uint64{3, 300, 4})
	k1, _ := Extract(b1, 0, e.al)
	k2, _ := Extract(b2, 0, e.al)
	SortRadix(k1, 1, nil)
	SortRadix(k2, 1, nil)
	var rows []JoinRow
	if err := Join(k1, k2, func(r JoinRow) { rows = append(rows, r) }); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("join rows = %d", len(rows))
	}
	if rows[0].Key != 2 {
		t.Errorf("key = %d", rows[0].Key)
	}
	lb, lr := k1.Deref(rows[0].Left)
	rb, rr := k2.Deref(rows[0].Rght)
	if lb.At(lr, 1) != 20 || rb.At(rr, 1) != 200 {
		t.Error("join sides resolve wrong rows")
	}
	// Unsorted join fails.
	k3, _ := Extract(b1, 0, e.al)
	if err := Join(k3, k2, func(JoinRow) {}); err == nil {
		t.Fatal("unsorted join must fail")
	}
}

func TestSelectFromBundle(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 1}, [3]uint64{2, 20, 2}, [3]uint64{3, 30, 3})
	k, err := SelectFromBundle(b, 0, func(v uint64) bool { return v%2 == 1 }, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(k.Keys(), []uint64{1, 3}) {
		t.Fatalf("keys = %v", k.Keys())
	}
	if b.RC() != 2 {
		t.Errorf("rc = %d", b.RC())
	}
	// Empty selection holds no source reference.
	k0, _ := SelectFromBundle(b, 0, func(uint64) bool { return false }, e.al)
	if k0.NumSources() != 0 {
		t.Error("empty selection must not link the bundle")
	}
	if _, err := SelectFromBundle(b, 7, nil, e.al); err == nil {
		t.Fatal("bad column must fail")
	}
}

func TestSelectFromKPA(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 1}, [3]uint64{2, 20, 2}, [3]uint64{4, 40, 3})
	k, _ := Extract(b, 0, e.al)
	SortRadix(k, 1, nil)
	out, err := Select(k, func(v uint64) bool { return v >= 2 }, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Keys(), []uint64{2, 4}) {
		t.Fatalf("keys = %v", out.Keys())
	}
	if !out.Sorted() {
		t.Error("selection of sorted KPA stays sorted")
	}
}

func TestPartition(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t,
		[3]uint64{1, 10, 5}, [3]uint64{2, 20, 15}, [3]uint64{3, 30, 25}, [3]uint64{4, 40, 8})
	k, _ := Extract(b, 2, e.al) // timestamp column as key
	parts, err := Partition(k, []uint64{10, 20}, e.al)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	if parts[0].Len() != 2 || parts[1].Len() != 1 || parts[2].Len() != 1 {
		t.Fatalf("sizes = %d %d %d", parts[0].Len(), parts[1].Len(), parts[2].Len())
	}
	// ts 5 and 8 in part 0.
	if !reflect.DeepEqual(parts[0].Keys(), []uint64{5, 8}) {
		t.Fatalf("part0 = %v", parts[0].Keys())
	}
	// RC: producer + k + 3 partitions referencing (empty parts don't link).
	if b.RC() != 5 {
		t.Errorf("rc = %d, want 5", b.RC())
	}
	k.Destroy()
	for _, p := range parts {
		p.Destroy()
	}
	if b.RC() != 1 {
		t.Errorf("rc after destroy = %d", b.RC())
	}
}

func TestPartitionAllocFailureCleansUp(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 8 << 10 // two 4 KiB classes only
	pool := mempool.New(cfg, 0)
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 5}, [3]uint64{2, 20, 15})
	k, err := Extract(b, 2, FixedAllocator{Pool: pool, T: memsim.HBM})
	if err != nil {
		t.Fatal(err)
	}
	rcBefore := b.RC()
	// 3 partitions need 3 allocations; only 1 class remains.
	_, err = Partition(k, []uint64{10, 20}, FixedAllocator{Pool: pool, T: memsim.HBM})
	if err == nil {
		t.Fatal("expected allocation failure")
	}
	if b.RC() != rcBefore {
		t.Errorf("partial partition leaked references: rc = %d, want %d", b.RC(), rcBefore)
	}
}

// reduceRun is the keyed reduction of one whole sorted run: the
// merge-reduce of a single run over its one range.
func reduceRun(k *KPA, valCol int, factory AggFactory, emit func(key, result uint64)) error {
	return MergeReduceRange([]*KPA{k}, []int{0}, []int{k.Len()}, valCol, factory, emit)
}

// TestReduceByKey reduces one sorted run by key, through its pointers
// and again once its values are resident.
func TestReduceByKey(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t,
		[3]uint64{1, 10, 1}, [3]uint64{2, 20, 2}, [3]uint64{1, 30, 3}, [3]uint64{2, 5, 4})
	k, _ := Extract(b, 0, e.al)
	SortRadix(k, 1, nil)
	// A value column the pointers cannot reach fails.
	if err := reduceRun(k, 9, func() Agg { return &sumAgg{} }, func(uint64, uint64) {}); err == nil {
		t.Fatal("bad column must fail")
	}
	for _, mode := range []string{"pointer", "value-resident"} {
		if mode == "value-resident" {
			var err error
			if k, err = ValueTwin(k, 1, e.al); err != nil {
				t.Fatal(err)
			}
		}
		got := map[uint64]uint64{}
		if err := reduceRun(k, 1, func() Agg { return &sumAgg{} }, func(key, res uint64) { got[key] = res }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[1] != 40 || got[2] != 25 {
			t.Fatalf("%s run: sums = %v", mode, got)
		}
	}
	// Unsorted fails.
	k2, _ := Extract(b, 0, e.al)
	if err := reduceRun(k2, 1, func() Agg { return &sumAgg{} }, nil); err == nil {
		t.Fatal("unsorted reduce must fail")
	}
}

type sumAgg struct{ s uint64 }

func (a *sumAgg) Add(v uint64)   { a.s += v }
func (a *sumAgg) Result() uint64 { return a.s }

func TestReduceAll(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 1}, [3]uint64{2, 20, 2})
	k, _ := Extract(b, 0, e.al)
	agg := &sumAgg{}
	if err := ReduceAll(k, 1, agg); err != nil {
		t.Fatal(err)
	}
	if agg.Result() != 30 {
		t.Fatalf("sum = %d", agg.Result())
	}
	if err := ReduceAll(k, 9, &sumAgg{}); err == nil {
		t.Fatal("bad column must fail")
	}
}

func TestDerefDanglingPanics(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 1})
	k, _ := Extract(b, 0, e.al)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Deref(PackPtr(9999, 0))
}

func TestTable2PrimitiveAccessPatterns(t *testing.T) {
	// Asserts the demand helpers attached to primitives match Table 2's
	// Sequential/Random column.
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{1, 10, 1}, [3]uint64{2, 20, 2})
	k, _ := Extract(b, 0, e.al)
	hasRandom := func(d memsim.Demand) bool {
		for _, p := range d.Phases {
			if p.Bytes > 0 && p.Pattern == memsim.Random {
				return true
			}
		}
		return false
	}
	seq := map[string]memsim.Demand{
		"Extract":   ExtractDemand(b, memsim.HBM),
		"Sort":      memsim.SortDemand(k.Tier(), k.Len()),
		"Merge":     MergeDemand(k, k),
		"Join":      memsim.JoinDemand(k.Tier(), 2*k.Len(), 2, 24),
		"Partition": PartitionDemandN(k.Tier(), k.Len()),
	}
	for name, d := range seq {
		if hasRandom(d) {
			t.Errorf("%s must be sequential (Table 2)", name)
		}
	}
	rnd := map[string]memsim.Demand{
		"Materialize": MaterializeDemand(k, 24),
		"KeySwap":     KeySwapDemand(k),
		"ReduceKeyed": memsim.ReduceKeyedDemand(k.Tier(), k.Len()),
	}
	for name, d := range rnd {
		if !hasRandom(d) {
			t.Errorf("%s must include random access (Table 2)", name)
		}
	}
}

// Property: Extract -> Sort -> Materialize yields exactly the input rows
// reordered by key.
func TestPropExtractSortMaterialize(t *testing.T) {
	f := func(raw [][3]uint64) bool {
		if len(raw) == 0 {
			return true
		}
		e := newEnv()
		rows := make([][3]uint64, len(raw))
		copy(rows, raw)
		b := e.bundleOf(nil, rows...)
		k, err := Extract(b, 0, e.al)
		if err != nil {
			return false
		}
		SortRadix(k, 1, nil)
		out, err := Materialize(k, e.newBuilder)
		if err != nil {
			return false
		}
		if out.Rows() != len(rows) {
			return false
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
		for i := range rows {
			if out.At(i, 0) != rows[i][0] {
				return false
			}
		}
		// Multiset of (value, ts) per key preserved.
		wantVals := map[uint64]int{}
		gotVals := map[uint64]int{}
		for _, r := range raw {
			wantVals[r[1]]++
		}
		for i := 0; i < out.Rows(); i++ {
			gotVals[out.At(i, 1)]++
		}
		return reflect.DeepEqual(wantVals, gotVals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of merges, every source bundle's RC
// equals 1 (producer) + number of live KPAs referencing it; destroying
// all KPAs returns RC to 1.
func TestPropMergeRefcountInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := newEnv()
		var bundles []*bundle.Bundle
		var live []*KPA
		for i := 0; i < 4; i++ {
			rows := make([][3]uint64, r.Intn(5)+1)
			for j := range rows {
				rows[j] = [3]uint64{r.Uint64() % 10, r.Uint64() % 100, uint64(j)}
			}
			b := e.bundleOf(nil, rows...)
			bundles = append(bundles, b)
			k, err := Extract(b, 0, e.al)
			if err != nil {
				t.Fatal(err)
			}
			SortRadix(k, 1, nil)
			live = append(live, k)
		}
		for len(live) > 1 {
			m, err := MergeK(live[:2], e.al)
			if err != nil {
				t.Fatal(err)
			}
			live[0].Destroy()
			live[1].Destroy()
			live = append(live[2:], m)
		}
		// Exactly one KPA referencing all bundles.
		for _, b := range bundles {
			if b.RC() != 2 {
				t.Fatalf("trial %d: rc = %d, want 2", trial, b.RC())
			}
		}
		live[0].Destroy()
		for _, b := range bundles {
			if b.RC() != 1 {
				t.Fatalf("trial %d: rc after destroy = %d, want 1", trial, b.RC())
			}
		}
	}
}

// Property: Partition conserves pairs and keeps every pair in range.
func TestPropPartitionConserves(t *testing.T) {
	f := func(tss []uint16, b1, b2 uint16) bool {
		if len(tss) == 0 {
			return true
		}
		e := newEnv()
		rows := make([][3]uint64, len(tss))
		for i, ts := range tss {
			rows[i] = [3]uint64{uint64(i), 0, uint64(ts)}
		}
		b := e.bundleOf(nil, rows...)
		k, err := Extract(b, 2, e.al)
		if err != nil {
			return false
		}
		lo, hi := uint64(b1), uint64(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == hi {
			hi++
		}
		parts, err := Partition(k, []uint64{lo, hi}, e.al)
		if err != nil {
			return false
		}
		total := 0
		for i, p := range parts {
			total += p.Len()
			for _, key := range p.Keys() {
				if i == 0 && key >= lo {
					return false
				}
				if i == 1 && (key < lo || key >= hi) {
					return false
				}
				if i == 2 && key < hi {
					return false
				}
			}
		}
		return total == len(tss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
