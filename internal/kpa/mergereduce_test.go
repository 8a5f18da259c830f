package kpa

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/memsim"
)

// orderAgg is an order-sensitive aggregator (a rolling polynomial hash
// of the value sequence): any difference in the order values reach the
// aggregator changes the result, so equivalence checks with it pin the
// fused path's visit order bit-for-bit against the pairwise tree.
type orderAgg struct{ h uint64 }

func (a *orderAgg) Add(v uint64)   { a.h = a.h*1099511628211 + v }
func (a *orderAgg) Result() uint64 { return a.h }
func newOrderAgg() Agg             { return &orderAgg{h: 14695981039346656037} }

// newSumAgg reuses kpa_test.go's sumAgg.
func newSumAgg() Agg { return &sumAgg{} }

type kv struct{ key, val uint64 }

// buildRuns creates nRuns sorted KPAs over fresh bundles with skewed
// duplicate-heavy keys (zipf-ish low domain plus a sprinkle of unique
// high keys). Each run draws from its own bundle, like first-level runs
// in the native runtime.
func buildRuns(t testing.TB, reg *bundle.Registry, al Allocator, r *rand.Rand, nRuns, maxLen int) []*KPA {
	t.Helper()
	runs := make([]*KPA, nRuns)
	for j := range runs {
		n := 1 + r.Intn(maxLen)
		bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, n, memsim.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var key uint64
			if r.Intn(8) == 0 {
				key = r.Uint64() // occasional unique key
			} else {
				key = r.Uint64() % 37 // heavy duplication
			}
			if err := bd.Append(key, r.Uint64()%1000, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		b := bd.Seal()
		k, err := Extract(b, 0, al)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
		SortRadix(k, 1, nil)
		runs[j] = k
	}
	return runs
}

// pairwiseTreeReduce is the old close path: levelwise pairwise merges
// (odd run passing through at the end of each level, exactly as the
// runtime's merge tree paired them) materializing a KPA per merge, then
// one separate keyed-reduction sweep over the survivor.
func pairwiseTreeReduce(t testing.TB, runs []*KPA, al Allocator, valCol int, factory AggFactory) []kv {
	t.Helper()
	cur := append([]*KPA(nil), runs...)
	var intermediates []*KPA
	for len(cur) > 1 {
		next := make([]*KPA, 0, (len(cur)+1)/2)
		for i := 0; i+1 < len(cur); i += 2 {
			m, err := MergeK(cur[i:i+2], al)
			if err != nil {
				t.Fatal(err)
			}
			intermediates = append(intermediates, m)
			next = append(next, m)
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	var out []kv
	if len(cur) == 1 {
		if err := reduceRun(cur[0], valCol, factory, func(k, v uint64) {
			out = append(out, kv{k, v})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range intermediates {
		m.Destroy()
	}
	return out
}

// fusedReduce closes the runs with the fused path: key-aligned cuts,
// then one MergeReduceRange per partition — run concurrently here so
// the race detector exercises the shared read-only runs — concatenated
// in partition order.
func fusedReduce(t testing.TB, runs []*KPA, p, valCol int, factory AggFactory) []kv {
	t.Helper()
	cuts, err := MergeCuts(runs, p)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]kv, len(cuts)-1)
	var wg sync.WaitGroup
	for i := 0; i+1 < len(cuts); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := MergeReduceRange(runs, cuts[i], cuts[i+1], valCol, factory, func(k, v uint64) {
				parts[i] = append(parts[i], kv{k, v})
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	var out []kv
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// TestMergeReduceEquivalence pins the fused range-partitioned
// merge-reduce bit-for-bit against the pairwise tree + separate reduce
// across run counts (including 1, 2 and just past the fan-in cap),
// partition counts and an order-sensitive aggregator.
func TestMergeReduceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	al := NoopAllocator{T: memsim.HBM}
	for _, nRuns := range []int{1, 2, 3, 8, 16, 33} {
		reg := bundle.NewRegistry()
		runs := buildRuns(t, reg, al, r, nRuns, 4000)
		for _, factory := range []AggFactory{newSumAgg, newOrderAgg} {
			want := pairwiseTreeReduce(t, runs, al, 1, factory)
			for _, p := range []int{1, 3, 8} {
				got := fusedReduce(t, runs, p, 1, factory)
				if len(got) != len(want) {
					t.Fatalf("runs=%d p=%d: %d results, want %d", nRuns, p, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("runs=%d p=%d: result %d = %+v, pairwise tree has %+v",
							nRuns, p, i, got[i], want[i])
					}
				}
			}
		}
		for _, k := range runs {
			k.Destroy()
		}
	}
}

// TestMergeKEquivalence checks the fan-in-capping materializer produces
// the identical KPA the pairwise tree would: the runs concatenated in run
// order and sorted stably by key.
func TestMergeKEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	al := NoopAllocator{T: memsim.DRAM}
	for _, nRuns := range []int{2, 5, 32} {
		reg := bundle.NewRegistry()
		runs := buildRuns(t, reg, al, r, nRuns, 1000)
		segs := make([][]algo.Pair, len(runs))
		for j, k := range runs {
			segs[j] = k.Pairs()
		}
		want := slices.Concat(segs...)
		slices.SortStableFunc(want, func(a, b algo.Pair) int { return cmp.Compare(a.Key, b.Key) })
		merged, err := MergeK(runs, al)
		if err != nil {
			t.Fatal(err)
		}
		if !merged.Sorted() || merged.Len() != len(want) {
			t.Fatalf("runs=%d: merged len=%d sorted=%v, want len=%d sorted",
				nRuns, merged.Len(), merged.Sorted(), len(want))
		}
		for i, p := range merged.Pairs() {
			if p != want[i] {
				t.Fatalf("runs=%d: pair %d = %+v, want %+v", nRuns, i, p, want[i])
			}
		}
		if merged.NumSources() == 0 {
			t.Fatal("merged KPA lost its bundle links")
		}
		merged.Destroy()
		for _, k := range runs {
			k.Destroy()
		}
	}
}

// TestValueBornRunsMatchPointerRuns builds every run twice from the same
// bundle, the way the simulator does (Extract: pairs point at rows) and
// the way the native runtime does (FromValues: the value staged beside
// the key in row order, then the same stable radix sort), and pins the
// second to the first: every kernel the runtime runs over its runs —
// the fused merge-reduce at several partition counts, with an
// order-sensitive aggregator; the verbatim k-way merge; the seal into a
// partial run — yields what the pointer runs yield, pair for pair, while
// linking no bundle at any stage.
func TestValueBornRunsMatchPointerRuns(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	al := NoopAllocator{T: memsim.HBM}
	for _, nRuns := range []int{3, 33} {
		reg := bundle.NewRegistry()
		pointer, born := make([]*KPA, nRuns), make([]*KPA, nRuns)
		for j := range pointer {
			n := 1 + r.Intn(2000)
			bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, n, memsim.DRAM)
			if err != nil {
				t.Fatal(err)
			}
			staged := make([]algo.Pair, n)
			for i := range staged {
				key := r.Uint64() % 37
				if r.Intn(8) == 0 {
					key = r.Uint64()
				}
				staged[i] = algo.Pair{Key: key, Ptr: r.Uint64() % 1000}
				if err := bd.Append(key, staged[i].Ptr, uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			b := bd.Seal()
			if pointer[j], err = Extract(b, 0, al); err != nil {
				t.Fatal(err)
			}
			b.Release()
			if born[j], err = FromValues(staged, 0, al); err != nil {
				t.Fatal(err)
			}
			SortRadix(pointer[j], 1, nil)
			SortRadix(born[j], 1, nil)
			if !born[j].ValuesResident() || born[j].NumSources() != 0 || born[j].Partial() {
				t.Fatalf("value-born run is not a plain value-resident run: %v", born[j])
			}
		}

		for _, factory := range []AggFactory{newSumAgg, newOrderAgg} {
			for _, p := range []int{1, 3, 8} {
				want, got := fusedReduce(t, pointer, p, 1, factory), fusedReduce(t, born, p, 1, factory)
				if !slices.Equal(got, want) {
					t.Fatalf("runs=%d p=%d: merge-reduce over value-born runs differs from pointer runs", nRuns, p)
				}
			}
		}

		wantK, err := MergeK(pointer, al)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := MergeK(born, al)
		if err != nil {
			t.Fatal(err)
		}
		if !gotK.ValuesResident() || gotK.NumSources() != 0 || gotK.Len() != wantK.Len() {
			t.Fatalf("runs=%d: merged value-born runs: %v, want %d value-resident pairs", nRuns, gotK, wantK.Len())
		}
		for i, p := range wantK.Pairs() {
			if g := gotK.Pairs()[i]; g.Key != p.Key || g.Ptr != wantK.valueOf(p, 1) {
				t.Fatalf("runs=%d: merged pair %d = %+v, pointer merge has key %d value %d", nRuns, i, g, p.Key, wantK.valueOf(p, 1))
			}
		}

		wantP, err := MergeReducePartial(pointer, 1, newWordSum, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := MergeReducePartial(born, 1, newWordSum, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotP.Pairs(), wantP.Pairs()) {
			t.Fatalf("runs=%d: partial sealed from value-born runs differs from pointer runs", nRuns)
		}
		for _, k := range slices.Concat(pointer, born, []*KPA{wantK, gotK, wantP, gotP}) {
			k.Destroy()
		}
		if live := reg.Live(); live != 0 {
			t.Fatalf("runs=%d: %d bundles still live", nRuns, live)
		}
	}
}

// TestRowBound pins how a close sizes its row slab: a range of 1 024
// keys is bounded by its key span however many pairs it holds, a range
// of hashed keys by its pairs (today's sizing), keys just below
// MaxUint64 do not wrap the span, and at every partition count the bound
// holds the rows the range's merge-reduce emits.
func TestRowBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	al := NoopAllocator{T: memsim.DRAM}
	for _, c := range []struct {
		name  string
		key   func() uint64
		bound func(pairs int) int
	}{
		{"1Ki-keys", func() uint64 { return r.Uint64() % 1024 }, func(int) int { return 1024 }},
		{"1Ki-keys-below-max", func() uint64 { return ^uint64(0) - r.Uint64()%1024 }, func(int) int { return 1024 }},
		{"hashed-keys", func() uint64 { return r.Uint64() }, func(pairs int) int { return pairs }},
	} {
		runs := make([]*KPA, 7)
		lo, hi := make([]int, len(runs)), make([]int, len(runs))
		pairs := 0
		for j := range runs {
			staged := make([]algo.Pair, 4096)
			for i := range staged {
				staged[i] = algo.Pair{Key: c.key(), Ptr: 1}
			}
			var err error
			if runs[j], err = FromValues(staged, 0, al); err != nil {
				t.Fatal(err)
			}
			SortRadix(runs[j], 1, nil)
			hi[j] = runs[j].Len()
			pairs += hi[j]
		}
		if got, want := RowBound(runs, lo, hi), c.bound(pairs); got != want {
			t.Fatalf("%s: RowBound of %d pairs is %d rows, want %d", c.name, pairs, got, want)
		}
		for _, p := range []int{1, 2, 5} {
			cuts, err := MergeCuts(runs, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(cuts); i++ {
				out := make([]Row, RowBound(runs, cuts[i], cuts[i+1]))
				if _, err := MergeReduceRows(runs, cuts[i], cuts[i+1], 1, newWordSum, out); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, k := range runs {
			k.Destroy()
		}
	}
}

// wordSum is a sum with its word operation, so it can seal partial
// runs.
type wordSum struct{ sumAgg }

func (*wordSum) WordOp() WordOp { return WordAdd }
func newWordSum() Agg           { return &wordSum{} }

// TestMergeReduceValidation covers the error paths: unsorted input,
// mismatched cut vectors, out-of-range value column.
func TestMergeReduceValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	al := NoopAllocator{T: memsim.DRAM}
	reg := bundle.NewRegistry()
	runs := buildRuns(t, reg, al, r, 2, 100)
	cuts, err := MergeCuts(runs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeReduceRange(runs, cuts[0], cuts[0][:1], 1, newSumAgg, func(uint64, uint64) {}); err == nil {
		t.Fatal("short cut vector must fail")
	}
	if err := MergeReduceRange(runs, cuts[0], cuts[len(cuts)-1], 99, newSumAgg, func(uint64, uint64) {}); err == nil {
		t.Fatal("out-of-range value column must fail")
	}
	if _, err := MergeK(nil, al); err == nil {
		t.Fatal("zero-run merge must fail")
	}
	runs[0].sorted = false
	if _, err := MergeCuts(runs, 2); err == nil {
		t.Fatal("unsorted run must fail")
	}
	runs[0].sorted = true
	for _, k := range runs {
		k.Destroy()
	}
}

// BenchmarkMergeReduce closes a window of 16 sorted runs x 64k pairs
// both ways: the fused range-partitioned merge-reduce (one streaming
// pass, zero intermediate KPAs) against the pairwise merge tree + a
// separate reduce sweep (log2(16) = 4 materializing levels). Both run
// single-threaded so the metric isolates the kernel, not scheduling.
func BenchmarkMergeReduce(b *testing.B) {
	const (
		nRuns  = 16
		runLen = 64 << 10
	)
	r := rand.New(rand.NewSource(7))
	al := NoopAllocator{T: memsim.HBM}
	reg := bundle.NewRegistry()
	runs := make([]*KPA, nRuns)
	for j := range runs {
		bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, runLen, memsim.DRAM)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < runLen; i++ {
			if err := bd.Append(r.Uint64()%(1<<14), r.Uint64()%1000, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		bb := bd.Seal()
		k, err := Extract(bb, 0, al)
		if err != nil {
			b.Fatal(err)
		}
		bb.Release()
		SortRadix(k, 1, nil)
		runs[j] = k
	}
	total := float64(nRuns * runLen)
	sink := uint64(0)

	b.Run("fused", func(b *testing.B) {
		cuts, err := MergeCuts(runs, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := MergeReduceRange(runs, cuts[0], cuts[1], 1, newSumAgg, func(k, v uint64) {
				sink += k ^ v
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := pairwiseTreeReduce(b, runs, al, 1, newSumAgg)
			sink += uint64(len(out))
		}
		b.ReportMetric(total*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
	})
	_ = sink
	for _, k := range runs {
		k.Destroy()
	}
}
