package kpa_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
)

// foldAgg is neither a WordFolder nor a Resetter.
type foldAgg struct{ h uint64 }

func (a *foldAgg) Add(v uint64)   { a.h = a.h*31 + v }
func (a *foldAgg) Result() uint64 { return a.h }

// TestMergeReducePartialRuns pins the partial-run contract end to end in
// the kernel: a merge over pointer runs, value-resident runs and a
// partial run sealed from a third group — and over a partial sealed
// again together with a raw run — must equal the plain per-key fold of
// every record, for both word folders. Count is the one that fails if a
// partial is ever counted as one record.
func TestMergeReducePartialRuns(t *testing.T) {
	reg := bundle.NewRegistry()
	al := kpa.NoopAllocator{T: memsim.DRAM}
	rng := rand.New(rand.NewSource(11))
	aggs := map[string]kpa.AggFactory{"sum": ops.Sum(), "count": ops.Count()}

	// Nine single-bundle sorted runs; the oracle folds their records
	// key by key with one fresh aggregator each, no merge involved.
	type kv struct{ key, val uint64 }
	var recs []kv
	runs := make([]*kpa.KPA, 9)
	for j := range runs {
		n := 50 + rng.Intn(200)
		bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, n, memsim.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			key := rng.Uint64() % 37
			if rng.Intn(8) == 0 {
				key = rng.Uint64()
			}
			val := rng.Uint64() % 1000
			recs = append(recs, kv{key, val})
			if err := bd.Append(key, val, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		b := bd.Seal()
		k, err := kpa.Extract(b, 0, al)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
		kpa.SortRadix(k, 1, nil)
		runs[j] = k
	}
	want := make(map[string]map[uint64]uint64)
	for name, factory := range aggs {
		perKey := make(map[uint64]kpa.Agg)
		for _, r := range recs {
			if perKey[r.key] == nil {
				perKey[r.key] = factory()
			}
			perKey[r.key].Add(r.val)
		}
		want[name] = make(map[uint64]uint64, len(perKey))
		for k, a := range perKey {
			want[name][k] = a.Result()
		}
	}

	pointer, value, sealed := runs[:3], runs[3:6], runs[6:]
	for j, r := range value {
		v, err := kpa.ValueTwin(r, 1, al)
		if err != nil {
			t.Fatal(err)
		}
		value[j] = v
	}
	reduce := func(name string, mixed []*kpa.KPA) {
		t.Helper()
		cuts, err := kpa.MergeCuts(mixed, 3)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]uint64)
		for i := 0; i+1 < len(cuts); i++ {
			if err := kpa.MergeReduceRange(mixed, cuts[i], cuts[i+1], 1, aggs[name], func(k, v uint64) {
				if _, dup := got[k]; dup {
					t.Fatalf("%s: key %d emitted twice", name, k)
				}
				got[k] = v
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want[name]) {
			t.Fatalf("%s: %d keys, oracle has %d", name, len(got), len(want[name]))
		}
		for k, v := range want[name] {
			if got[k] != v {
				t.Fatalf("%s key %d: %d, oracle %d", name, k, got[k], v)
			}
		}
	}
	for name, factory := range aggs {
		partial, err := kpa.MergeReducePartial(sealed, 1, factory, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Partial() || !partial.ValuesResident() || !partial.Sorted() || partial.NumSources() != 0 {
			t.Fatalf("%s: sealed run is not a sorted value-resident partial: %v", name, partial)
		}
		for i, p := range partial.Pairs() {
			if i > 0 && p.Key <= partial.Pairs()[i-1].Key {
				t.Fatalf("%s: partial run repeats key %d", name, p.Key)
			}
		}
		mixed := append(append(append([]*kpa.KPA(nil), pointer...), value...), partial)
		reduce(name, mixed)

		// A partial sealed again beside a raw run is still a partial of
		// the union.
		resealed, err := kpa.MergeReducePartial([]*kpa.KPA{partial, pointer[0], value[0]}, 1, factory, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		reduce(name, []*kpa.KPA{pointer[1], pointer[2], value[1], value[2], resealed})

		// Nothing may copy a partial run verbatim.
		for _, in := range [][]*kpa.KPA{{partial, value[0]}, {partial, resealed}} {
			if _, err := kpa.MergeK(in, al); err == nil {
				t.Fatalf("%s: MergeK accepted a partial run", name)
			}
		}
		// An aggregator that is not a word fold must not be fed partials.
		fold := func() kpa.Agg { return &foldAgg{} }
		if err := kpa.MergeReduceRange([]*kpa.KPA{partial}, []int{0}, []int{partial.Len()}, 1, fold, func(uint64, uint64) {}); err == nil {
			t.Fatalf("%s: merge-reduce fed a partial run to a non-word-folding aggregator", name)
		}
		if _, err := kpa.MergeReducePartial(pointer, 1, fold, al, nil); err == nil {
			t.Fatalf("%s: sealed a partial run with a non-word-folding aggregator", name)
		}
		resealed.Destroy()
		partial.Destroy()
	}
	for _, r := range runs {
		r.Destroy()
	}
}

// TestPartialRunNeedsWordFold pins who reads a partial run: a word fold
// alone. Under Avg, which is not one, MergeReduceRows and Seal refuse a
// partial run, alone and beside a raw run; and Seal of Avg or Median
// over raw runs copies them verbatim — every pair, in merge order, and
// not partial — as MergeK does.
func TestPartialRunNeedsWordFold(t *testing.T) {
	al := kpa.NoopAllocator{T: memsim.DRAM}
	rng := rand.New(rand.NewSource(47))
	raw := func() *kpa.KPA {
		t.Helper()
		pairs := make([]algo.Pair, 500)
		for i := range pairs {
			pairs[i] = algo.Pair{Key: rng.Uint64() % 64, Ptr: rng.Uint64() % 1000}
		}
		k, err := kpa.FromValues(pairs, 0, al)
		if err != nil {
			t.Fatal(err)
		}
		kpa.SortRadix(k, 1, nil)
		return k
	}
	a, b := raw(), raw()
	defer a.Destroy()
	defer b.Destroy()
	partial, err := kpa.Seal([]*kpa.KPA{raw(), raw()}, 1, ops.Sum(), al, nil)
	if err != nil || !partial.Partial() {
		t.Fatalf("Seal of Sum: partial=%v err=%v", partial != nil && partial.Partial(), err)
	}
	defer partial.Destroy()
	for _, in := range [][]*kpa.KPA{{partial}, {a, partial}} {
		lo, hi := make([]int, len(in)), make([]int, len(in))
		for j, r := range in {
			hi[j] = r.Len()
		}
		out := make([]kpa.Row, kpa.RowBound(in, lo, hi))
		if _, err := kpa.MergeReduceRows(in, lo, hi, 1, ops.Avg(), out); err == nil {
			t.Fatalf("MergeReduceRows of Avg read a partial run among %d runs", len(in))
		}
		if _, err := kpa.Seal(in, 1, ops.Avg(), al, nil); err == nil {
			t.Fatalf("Seal of Avg took a partial run among %d runs", len(in))
		}
	}
	want, err := kpa.MergeK([]*kpa.KPA{a, b}, al)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Destroy()
	for name, factory := range map[string]kpa.AggFactory{"avg": ops.Avg(), "median": ops.Median()} {
		got, err := kpa.Seal([]*kpa.KPA{a, b}, 1, factory, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Partial() || !got.Sorted() || !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("Seal of %s: %v, want MergeK's verbatim copy %v", name, got, want)
		}
		got.Destroy()
	}
}

// TestMergeReduceReusesResetter checks the per-key aggregator is reused
// when it can be reset — same results as one fresh aggregator per key,
// without the heap object per distinct key.
func TestMergeReduceReusesResetter(t *testing.T) {
	reg := bundle.NewRegistry()
	al := kpa.NoopAllocator{T: memsim.DRAM}
	const keys = 2000
	bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, 3*keys, memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*keys; i++ {
		if err := bd.Append(uint64(i%keys), uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := bd.Seal()
	run, err := kpa.Extract(b, 0, al)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	kpa.SortRadix(run, 1, nil)
	defer run.Destroy()
	runs, lo, hi := []*kpa.KPA{run}, []int{0}, []int{run.Len()}

	made := 0
	avg := func() kpa.Agg { made++; return ops.Avg()() }
	if err := kpa.MergeReduceRange(runs, lo, hi, 1, avg, func(k, v uint64) {
		// Key k holds values k, k+keys, k+2*keys.
		if v != k+keys {
			t.Fatalf("avg key %d: %d, want %d", k, v, k+keys)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if made != 1 {
		t.Fatalf("avg: %d aggregators built for one merge task, want 1", made)
	}
	made = 0
	if err := kpa.MergeReduceRange(runs, lo, hi, 1, func() kpa.Agg { made++; return &foldAgg{} }, func(uint64, uint64) {}); err != nil {
		t.Fatal(err)
	}
	if made != keys {
		t.Fatalf("%d aggregators built for %d keys without Reset", made, keys)
	}
}

// TestFoldColumnsMatchesSeal pins the formation fold's contract: for
// sum and count, the run FoldColumns makes of a bundle's
// columns is the partial run Seal makes of the sorted run SortColumns
// forms from the same columns — pair for pair, sorted, value-resident,
// partial, and allocated at one pair per distinct key — on 1 024 keys at
// offset 0 and ending at MaxUint64, and on a bundle of one key, over the
// range the keys' scan finds and over one a slot wider at either end
// where there is room; over a range one slot short at either end it
// reports the miss and allocates nothing. A range the table rule
// refuses is a bug.
func TestFoldColumnsMatchesSeal(t *testing.T) {
	al := &countingAllocator{NoopAllocator: kpa.NoopAllocator{T: memsim.DRAM}}
	rng := rand.New(rand.NewSource(13))
	aggs := []struct {
		name string
		new  kpa.AggFactory
	}{{"sum", ops.Sum()}, {"count", ops.Count()}}
	for _, c := range []struct {
		lo       uint64
		span     uint64
		n        int
		distinct int
	}{{0, 1024, 4096, 1024}, {^uint64(0) - 1023, 1024, 10_000, 1024}, {77, 1, 300, 1}} {
		keys, vals := make([]uint64, c.n), make([]uint64, c.n)
		for i := range keys {
			keys[i], vals[i] = c.lo+uint64(i)%c.span, rng.Uint64()>>rng.Intn(64)
		}
		scan := algo.ScanKeys(keys)
		span, _ := scan.Dense()
		type keyRange struct {
			lo   uint64
			span int
		}
		fits := []keyRange{{scan.Lo, span}}
		if scan.Lo > 0 {
			fits = append(fits, keyRange{scan.Lo - 1, span + 1})
		}
		if scan.Hi < ^uint64(0) {
			fits = append(fits, keyRange{scan.Lo, span + 1})
		}
		var misses []keyRange
		if span > 0 {
			misses = []keyRange{{scan.Lo + 1, span - 1}, {scan.Lo, span - 1}}
		}
		for _, a := range aggs {
			sorted, _, err := kpa.NewValues(c.n, 0, al)
			if err != nil {
				t.Fatal(err)
			}
			kpa.SortColumns(sorted, keys, vals, scan, nil)
			want, err := kpa.Seal([]*kpa.KPA{sorted}, 1, a.new, al, nil)
			if err != nil {
				t.Fatal(err)
			}
			op := a.new().(kpa.WordFolder).WordOp()
			for _, r := range fits {
				got, ok, err := kpa.FoldColumns(keys, vals, r.lo, r.span, 0, op, al)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || !got.Sorted() || !got.ValuesResident() || !got.Partial() || got.Len() != c.distinct || !slices.Equal(got.Pairs(), want.Pairs()) {
					t.Fatalf("%s over %d keys from %d, range [%d,+%d]: ok %v, folded %v, sealed %v", a.name, c.span, c.lo, r.lo, r.span, ok, got, want)
				}
				got.Destroy()
			}
			for _, r := range misses {
				allocs := al.n
				if got, ok, err := kpa.FoldColumns(keys, vals, r.lo, r.span, 0, op, al); ok || got != nil || err != nil || al.n != allocs {
					t.Fatalf("%s over %d keys from %d, range [%d,+%d]: ok %v, run %v, err %v, %d allocations; want a miss and none",
						a.name, c.span, c.lo, r.lo, r.span, ok, got, err, al.n-allocs)
				}
			}
			for _, k := range []*kpa.KPA{sorted, want} {
				k.Destroy()
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FoldColumns over a range spanning the row count must panic")
		}
	}()
	keys := []uint64{0, 2}
	kpa.FoldColumns(keys, keys, 0, 2, 0, kpa.WordAdd, al)
}

// countingAllocator counts the runs it allocates.
type countingAllocator struct {
	kpa.NoopAllocator
	n int
}

func (c *countingAllocator) AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error) {
	c.n++
	return c.NoopAllocator.AllocKPA(nBytes)
}

// perPair hides a word folder's word operation: what it builds is a
// plain Agg and a Resetter, so a merge takes the per-pair path, reusing
// one instance as it did before word folds. It reads no partial run.
func perPair(factory kpa.AggFactory) kpa.AggFactory {
	return func() kpa.Agg {
		agg := factory()
		var reset resetFunc
		switch a := agg.(type) {
		case *ops.SumAgg:
			reset = func() { *a = ops.SumAgg{} }
		case *ops.CountAgg:
			reset = func() { *a = ops.CountAgg{} }
		default:
			panic(fmt.Sprintf("perPair: no reset for %T", a))
		}
		return struct {
			kpa.Agg
			resetFunc
		}{agg, reset}
	}
}

// resetFunc is a kpa.Resetter that calls itself.
type resetFunc func()

func (r resetFunc) Reset() { r() }

// TestMergeFoldMatchesVisit holds the word fold of Sum and Count to the
// per-pair path it replaces, on both entry points a window uses — the
// close (MergeReduceRange at several partition counts, and
// MergeReduceRows into a row slab of RowBound rows) and the seal
// (MergeReducePartial) — over random mixes of raw value runs, pointer
// runs, partial runs and empty runs, at 1, 2, 3 and 33 runs. The
// per-pair path reads no partial run, so it merges the raw runs each
// partial was sealed from in the partial's place, and a seal must write
// the rows that close writes. Two key shapes: keys of MaxUint64 and
// hashed keys among a few dozen (regrouped), and 1 024 keys (the table,
// wherever a merge has more pairs than its span); then the runtime's
// shapes: 1 024 keys, and inproc_wide's hashed keys, whose 32-run seal
// regroups (the verbatim MergeK too), and so does its 7-run close — each
// shape also with pointer runs beside the value runs, so the word fold
// meets a pointer run on the table and the regroup; last, the case a
// count could get wrong by itself: raw and partial runs in one close (a
// raw pair adds 1, a partial its value).
func TestMergeFoldMatchesVisit(t *testing.T) {
	al := kpa.NoopAllocator{T: memsim.DRAM}
	rng := rand.New(rand.NewSource(23))
	run := func(pairs ...algo.Pair) *kpa.KPA {
		t.Helper()
		k, err := kpa.FromValues(pairs, 0, al)
		if err != nil {
			t.Fatal(err)
		}
		kpa.SortRadix(k, 1, nil)
		return k
	}
	mixedKey := func() uint64 {
		switch rng.Intn(10) {
		case 0:
			return ^uint64(0)
		case 1:
			return rng.Uint64()
		}
		return rng.Uint64() % 50
	}
	narrowKey := func() uint64 { return rng.Uint64() % 1024 }
	key := mixedKey
	randomPairs := func(n int) []algo.Pair {
		pairs := make([]algo.Pair, n)
		for i := range pairs {
			val := rng.Uint64() >> rng.Intn(64)
			if rng.Intn(5) == 0 {
				val = 0
			}
			pairs[i] = algo.Pair{Key: key(), Ptr: val}
		}
		return pairs
	}
	randomRun := func(n int) *kpa.KPA { return run(randomPairs(n)...) }
	// pointerRun is the simulator's kind of run: random pairs stored as
	// records of a bundle, (key, value, row), and extracted on the key —
	// value column 1 is what its pointers lead to.
	reg := bundle.NewRegistry()
	pointerRun := func(n int) *kpa.KPA {
		t.Helper()
		bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, n, memsim.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range randomPairs(n) {
			if err := bd.Append(p.Key, p.Ptr, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		b := bd.Seal()
		k, err := kpa.Extract(b, 0, al)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
		kpa.SortRadix(k, 1, nil)
		return k
	}
	seal := func(factory kpa.AggFactory, runs ...*kpa.KPA) *kpa.KPA {
		t.Helper()
		p, err := kpa.MergeReducePartial(runs, 1, factory, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// window is a window's runs two ways: folded, where the word fold
	// reads them, and raw, where the per-pair path does — each partial
	// run of folded replaced by the raw runs it was sealed from.
	type window struct{ folded, raw []*kpa.KPA }
	add := func(w *window, r *kpa.KPA) {
		w.folded, w.raw = append(w.folded, r), append(w.raw, r)
	}
	addPartial := func(w *window, factory kpa.AggFactory, from ...*kpa.KPA) {
		w.folded, w.raw = append(w.folded, seal(factory, from...)), append(w.raw, from...)
	}
	destroy := func(w window) {
		for _, r := range w.raw {
			r.Destroy()
		}
		for _, r := range w.folded {
			if r.Partial() {
				r.Destroy()
			}
		}
	}
	// closeRows returns the window's rows through MergeReduceRange over p
	// partitions, checking MergeReduceRows writes the same rows.
	closeRows := func(runs []*kpa.KPA, factory kpa.AggFactory, p int) []kpa.Row {
		t.Helper()
		cuts, err := kpa.MergeCuts(runs, p)
		if err != nil {
			t.Fatal(err)
		}
		var rows, into []kpa.Row
		for i := 0; i+1 < len(cuts); i++ {
			if err := kpa.MergeReduceRange(runs, cuts[i], cuts[i+1], 1, factory, func(k, v uint64) {
				rows = append(rows, kpa.Row{Key: k, Val: v})
			}); err != nil {
				t.Fatal(err)
			}
			width := 0
			for j := range runs {
				width += cuts[i+1][j] - cuts[i][j]
			}
			if bound := kpa.RowBound(runs, cuts[i], cuts[i+1]); bound > width {
				t.Fatalf("RowBound is %d rows for %d pairs", bound, width)
			}
			out := make([]kpa.Row, kpa.RowBound(runs, cuts[i], cuts[i+1]))
			n, err := kpa.MergeReduceRows(runs, cuts[i], cuts[i+1], 1, factory, out)
			if err != nil {
				t.Fatal(err)
			}
			into = append(into, out[:n]...)
		}
		if !slices.Equal(into, rows) {
			t.Fatalf("MergeReduceRows wrote %d rows unlike MergeReduceRange's %d", len(into), len(rows))
		}
		return rows
	}
	// checkClose holds the window's word-folded close to the per-pair
	// close of its raw runs, at each partition count, and returns the
	// rows.
	checkClose := func(name string, w window, factory kpa.AggFactory, parts ...int) []kpa.Row {
		t.Helper()
		var want []kpa.Row
		for _, p := range parts {
			got := closeRows(w.folded, factory, p)
			if want = closeRows(w.raw, perPair(factory), p); !slices.Equal(got, want) {
				t.Fatalf("%s p=%d: the word fold closes to %d rows unlike the per-pair path's %d", name, p, len(got), len(want))
			}
		}
		return want
	}
	// checkSeal holds the window's word-folded seal to the rows of the
	// per-pair close of its raw runs.
	checkSeal := func(name string, w window, factory kpa.AggFactory) int {
		t.Helper()
		got := seal(factory, w.folded...)
		defer got.Destroy()
		want := closeRows(w.raw, perPair(factory), 1)
		if !got.Partial() || got.Len() != len(want) {
			t.Fatalf("%s: the word fold seals %d pairs, the per-pair path closes to %d rows", name, got.Len(), len(want))
		}
		for i, p := range got.Pairs() {
			if (kpa.Row{Key: p.Key, Val: p.Ptr}) != want[i] {
				t.Fatalf("%s: sealed pair %d is %+v, the per-pair path's row %+v", name, i, p, want[i])
			}
		}
		return got.Len()
	}

	aggs := []struct {
		name    string
		factory kpa.AggFactory
	}{{"sum", ops.Sum()}, {"count", ops.Count()}}
	for _, a := range aggs {
		if _, ok := a.factory().(kpa.WordFolder); !ok {
			t.Fatalf("%s is not a WordFolder", a.name)
		}
		for _, nRuns := range []int{1, 2, 3, 33} {
			for trial := 0; trial < 6; trial++ {
				if key = mixedKey; trial%2 == 1 {
					key = narrowKey
				}
				var w window
				for j := 0; j < nRuns; j++ {
					kind := rng.Intn(4)
					if j == 0 && trial < 2 {
						kind = 3 // a pointer run on the regroup, then the table
					}
					switch kind {
					case 0:
						add(&w, run())
					case 1:
						add(&w, randomRun(1+rng.Intn(400)))
					case 2:
						addPartial(&w, a.factory, randomRun(1+rng.Intn(300)), pointerRun(1+rng.Intn(300)))
					default:
						add(&w, pointerRun(1+rng.Intn(400)))
					}
				}
				name := fmt.Sprintf("%s runs=%d trial=%d", a.name, nRuns, trial)
				checkClose(name, w, a.factory, 1, 3)
				checkSeal(name, w, a.factory)
				destroy(w)
			}
		}
	}

	// The runtime's 1 024-key shapes, which take the table: a seal of 32
	// raw runs of 4 096 pairs, and a close over 7 partial runs beside 22
	// raw ones, where count adds 1 per raw pair and a partial's value in
	// one merge; a quarter of the raw runs are pointer runs.
	key = narrowKey
	for _, a := range aggs {
		var w window
		for j := range 32 {
			if j%4 == 0 {
				add(&w, pointerRun(4096))
			} else {
				add(&w, randomRun(4096))
			}
		}
		if n := checkSeal(a.name+" seal/32x4096/1Ki-keys", w, a.factory); n != 1024 {
			t.Fatalf("%s seal/32x4096/1Ki-keys: sealed %d pairs, want 1024", a.name, n)
		}
		destroy(w)
		w = window{}
		for range 7 {
			addPartial(&w, a.factory, randomRun(4096), randomRun(4096))
		}
		for range 16 {
			add(&w, randomRun(4096))
		}
		for range 6 {
			add(&w, pointerRun(4096))
		}
		if rows := checkClose(a.name+" close/7+22/1Ki-keys", w, a.factory, 1, 3); len(rows) != 1024 {
			t.Fatalf("%s close/7+22/1Ki-keys: %d rows, want 1024", a.name, len(rows))
		}
		destroy(w)
	}

	// inproc_wide's shapes, over hashed keys: a seal of 32 raw runs of
	// 10 000 pairs, which regroups — and whose verbatim copy (MergeK)
	// regroups too —, and a close over 7 runs, 3 partial and 4 raw (2 of
	// them pointer runs), in two partitions, which regroups as well.
	key = func() uint64 { return rng.Uint64() }
	var wide window
	for range 32 {
		add(&wide, randomRun(10_000))
	}
	merged, err := kpa.MergeK(wide.raw, al)
	if err != nil {
		t.Fatal(err)
	}
	var all []algo.Pair
	for _, r := range wide.raw {
		all = append(all, r.Pairs()...)
	}
	slices.SortStableFunc(all, func(x, y algo.Pair) int { return cmp.Compare(x.Key, y.Key) })
	if !slices.Equal(merged.Pairs(), all) {
		t.Fatal("MergeK of 32x10000 hashed keys differs from the runs sorted stably in run order")
	}
	merged.Destroy()
	for _, a := range aggs {
		checkSeal(a.name+" seal/32x10000/hashed-keys", wide, a.factory)
		var w window
		for range 3 {
			addPartial(&w, a.factory, randomRun(10_000), randomRun(10_000))
		}
		for range 2 {
			add(&w, randomRun(10_000))
			add(&w, pointerRun(10_000))
		}
		checkClose(a.name+" close/3+4/hashed-keys", w, a.factory, 2)
		destroy(w)
	}
	destroy(wide)

	// Key 5: three raw pairs beside a partial count of four.
	kv := func(k, v uint64) algo.Pair { return algo.Pair{Key: k, Ptr: v} }
	var w window
	add(&w, run(kv(9, 0), kv(5, 1), kv(5, 2), kv(5, 3)))
	addPartial(&w, ops.Count(), run(kv(5, 4), kv(5, 5), kv(5, 6), kv(5, 7)))
	add(&w, run(kv(9, 8), kv(9, 2)))
	if got, want := checkClose("count", w, ops.Count(), 1), []kpa.Row{{Key: 5, Val: 7}, {Key: 9, Val: 3}}; !slices.Equal(got, want) {
		t.Fatalf("count: closed to %v, want %v", got, want)
	}
	destroy(w)
}

// BenchmarkSealVsCompact prices the two ways a window with more sorted
// runs than one seal takes can reach its result, on the run shapes of
// four benchmark workloads, single-threaded, in ns per pair of the
// window: "compact-at-close" merges the runs verbatim in batches of 32
// (MergeK, again while more than 32 are left) and then merge-reduces the
// compacted runs — every pair copied once and dereferenced after that;
// "seal-while-filling" reduces every full group of 32 to a partial run
// (MergeReducePartial, groups of 32 partials likewise) and merge-reduces
// the partials with the runs left over — every pair read once. Few keys
// per window make the partials vanish (net_narrow, net_row); with about
// as many keys as pairs (inproc_wide) a partial is nearly as long as its
// group and only the copy is saved. Both of those run over pointer runs,
// as the simulator builds them; "seal-while-filling-value-born" is the
// second way over the native runtime's runs (FromValues: the value where
// the pointer was), which is what the runtime's seals and closes cost —
// the same merges without the gather through 32 bundles' pointers.
func BenchmarkSealVsCompact(b *testing.B) {
	const fanIn = 32
	shapes := []struct {
		name         string
		runs, runLen int
		keys         uint64
		hashed       bool
	}{
		{"net_narrow/246x4096/1Ki-keys", 246, 4096, 1 << 10, false},
		{"net_row/1954x512/1Ki-keys", 1954, 512, 1 << 10, false},
		{"inproc_wide/100x10000/1Mi-hashed-keys", 100, 10_000, 1 << 20, true},
		{"inproc_spill/50x10000/1Ki-keys", 50, 10_000, 1 << 10, false},
	}
	al := kpa.NoopAllocator{T: memsim.HBM}
	finish := func(b *testing.B, runs []*kpa.KPA) uint64 {
		cuts, err := kpa.MergeCuts(runs, 1)
		if err != nil {
			b.Fatal(err)
		}
		var sink uint64
		if err := kpa.MergeReduceRange(runs, cuts[0], cuts[1], 1, ops.Sum(), func(k, v uint64) { sink += k ^ v }); err != nil {
			b.Fatal(err)
		}
		return sink
	}
	// compactAtClose is the close of a window whose runs were left as they
	// were filed: verbatim k-way merges in batches until one merge-reduce
	// takes what is left (a lone trailing run passes through).
	compactAtClose := func(b *testing.B, runs []*kpa.KPA) uint64 {
		var made []*kpa.KPA
		for len(runs) > fanIn {
			var next []*kpa.KPA
			for lo := 0; lo < len(runs); lo += fanIn {
				batch := runs[lo:min(lo+fanIn, len(runs))]
				if len(batch) == 1 {
					next = append(next, batch[0])
					continue
				}
				out, err := kpa.MergeK(batch, al)
				if err != nil {
					b.Fatal(err)
				}
				made, next = append(made, out), append(next, out)
			}
			runs = next
		}
		sink := finish(b, runs)
		for _, k := range made {
			k.Destroy()
		}
		return sink
	}
	// sealWhileFilling is the same window with every full group sealed as
	// it filled, level by level; close takes what no group took.
	sealWhileFilling := func(b *testing.B, runs []*kpa.KPA) uint64 {
		var made, rest []*kpa.KPA
		for level := runs; len(level) > 0; {
			var up []*kpa.KPA
			for ; len(level) >= fanIn; level = level[fanIn:] {
				out, err := kpa.MergeReducePartial(level[:fanIn], 1, ops.Sum(), al, nil)
				if err != nil {
					b.Fatal(err)
				}
				made, up = append(made, out), append(up, out)
			}
			rest = append(rest, level...)
			level = up
		}
		sink := finish(b, rest)
		for _, k := range made {
			k.Destroy()
		}
		return sink
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(3))
		reg := bundle.NewRegistry()
		runs, born := make([]*kpa.KPA, sh.runs), make([]*kpa.KPA, sh.runs)
		staged := make([]algo.Pair, sh.runLen)
		for j := range runs {
			bd, err := reg.NewBuilder(bundle.Schema{NumCols: 3, TsCol: 2}, sh.runLen, memsim.DRAM)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < sh.runLen; i++ {
				key := rng.Uint64() % sh.keys
				if sh.hashed {
					key *= 0x9E3779B97F4A7C15
				}
				staged[i] = algo.Pair{Key: key, Ptr: rng.Uint64() % 1000}
				if err := bd.Append(key, staged[i].Ptr, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			bb := bd.Seal()
			k, err := kpa.Extract(bb, 0, al)
			if err != nil {
				b.Fatal(err)
			}
			bb.Release()
			kpa.SortRadix(k, 1, nil)
			runs[j] = k
			if born[j], err = kpa.FromValues(staged, 0, al); err != nil {
				b.Fatal(err)
			}
			kpa.SortRadix(born[j], 1, nil)
		}
		pairs := float64(sh.runs * sh.runLen)
		// Every way sums the same records, so every way must agree.
		want := compactAtClose(b, runs)
		for _, way := range []struct {
			name        string
			closeWindow func(*testing.B, []*kpa.KPA) uint64
			runs        []*kpa.KPA
		}{
			{"compact-at-close", compactAtClose, runs},
			{"seal-while-filling", sealWhileFilling, runs},
			{"seal-while-filling-value-born", sealWhileFilling, born},
		} {
			b.Run(sh.name+"/"+way.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if got := way.closeWindow(b, way.runs); got != want {
						b.Fatalf("window digest %#x, compact-at-close has %#x", got, want)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
			})
		}
		for _, k := range slices.Concat(runs, born) {
			k.Destroy()
		}
	}
}

// BenchmarkMergeFold prices one merge-reduce of value-born runs with
// Sum both ways, single-threaded, in ns per pair: "word" is the word
// fold, "per-pair" the path every aggregator took before (perPair: one
// reused aggregator, Add through an interface per pair, through the
// regroup's visitor). The shapes are the runtime's: a seal of 32
// runs of 4 096 pairs over 1 024 keys (net_narrow, inproc_spill) or of
// 10 000 hashed keys (inproc_wide), staged through recycled scratch
// (MergeReducePartial), and a close of 7 runs of 140 000 pairs into a
// row slab (MergeReduceRows), over hashed keys or 1 024. The per-pair
// path seals nothing — a partial run is a word fold's — so on the seal
// shapes it merge-reduces the same runs into a row slab. Over 1 024 keys
// the word fold takes the table; the hashed seal regroups, and so do
// its "copy" leg, the verbatim seal (MergeK) of the same runs, and the
// hashed close.
func BenchmarkMergeFold(b *testing.B) {
	var staged []algo.Pair
	scratch := &algo.Scratch{
		Get: func(n int) []algo.Pair {
			if cap(staged) < n {
				staged = make([]algo.Pair, n)
			}
			return staged[:n]
		},
		Put: func([]algo.Pair) {},
	}
	al := kpa.NoopAllocator{T: memsim.HBM}
	for _, sh := range []struct {
		name         string
		seal         bool
		runs, runLen int
		keys         uint64
	}{
		{"seal/32x4096/1Ki-keys", true, 32, 4096, 1 << 10},
		{"seal/32x10000/hashed-keys", true, 32, 10_000, 0},
		{"close/7x140000/hashed-keys", false, 7, 140_000, 0},
		{"close/7x140000/1Ki-keys", false, 7, 140_000, 1 << 10},
	} {
		rng := rand.New(rand.NewSource(5))
		runs := make([]*kpa.KPA, sh.runs)
		staged := make([]algo.Pair, sh.runLen)
		for j := range runs {
			for i := range staged {
				key := rng.Uint64()
				if sh.keys > 0 {
					key %= sh.keys
				}
				staged[i] = algo.Pair{Key: key, Ptr: rng.Uint64() % 1000}
			}
			var err error
			if runs[j], err = kpa.FromValues(staged, 0, al); err != nil {
				b.Fatal(err)
			}
			kpa.SortRadix(runs[j], 1, nil)
		}
		lo, hi := make([]int, len(runs)), make([]int, len(runs))
		for j, r := range runs {
			hi[j] = r.Len()
		}
		rows := make([]kpa.Row, sh.runs*sh.runLen)
		pairs := float64(len(rows))
		ways := []struct {
			name    string
			factory kpa.AggFactory
		}{{"word", ops.Sum()}, {"per-pair", perPair(ops.Sum())}}
		if sh.name == "seal/32x10000/hashed-keys" {
			ways = append(ways, ways[0])
			ways[2].name = "copy"
		}
		for _, way := range ways {
			b.Run(sh.name+"/"+way.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if way.name == "copy" {
						out, err := kpa.MergeK(runs, al)
						if err != nil {
							b.Fatal(err)
						}
						out.Destroy()
					} else if sh.seal && way.name == "word" {
						out, err := kpa.MergeReducePartial(runs, 1, way.factory, al, scratch)
						if err != nil {
							b.Fatal(err)
						}
						out.Destroy()
					} else if _, err := kpa.MergeReduceRows(runs, lo, hi, 1, way.factory, rows); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/pairs, "ns/pair")
			})
		}
		for _, k := range runs {
			k.Destroy()
		}
	}
}
