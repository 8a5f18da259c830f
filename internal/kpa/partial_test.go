package kpa_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/ops"
)

// foldAgg is neither a Combiner nor a Resetter.
type foldAgg struct{ h uint64 }

func (a *foldAgg) Add(v uint64)   { a.h = a.h*31 + v }
func (a *foldAgg) Result() uint64 { return a.h }

// TestMergeReducePartialRuns pins the Combiner contract end to end in
// the kernel: a merge over pointer runs, value-resident runs and a
// partial run sealed from a third group — and over a partial sealed
// again together with a raw run — must equal the plain per-key fold of
// every record, for all four combining aggregators. Count is the one
// that fails if a partial is ever Added instead of Combined.
func TestMergeReducePartialRuns(t *testing.T) {
	reg := bundle.NewRegistry()
	al := kpa.NoopAllocator{T: memsim.DRAM}
	rng := rand.New(rand.NewSource(11))
	aggs := map[string]kpa.AggFactory{"sum": ops.Sum(), "count": ops.Count(), "min": ops.Min(), "max": ops.Max()}

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
	for _, r := range value {
		if err := r.MaterializeValues(1); err != nil {
			t.Fatal(err)
		}
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

		// Nothing may copy a partial and a raw run into one run verbatim.
		if _, err := kpa.MergeK([]*kpa.KPA{partial, value[0]}, al); err == nil {
			t.Fatalf("%s: MergeK accepted a partial/raw mix", name)
		}
		both, err := kpa.MergeK([]*kpa.KPA{partial, resealed}, al)
		if err != nil || !both.Partial() {
			t.Fatalf("%s: MergeK of two partial runs: partial=%v err=%v", name, both != nil && both.Partial(), err)
		}
		// An aggregator that cannot combine must not be fed partials.
		fold := func() kpa.Agg { return &foldAgg{} }
		if err := kpa.MergeReduceRange([]*kpa.KPA{partial}, []int{0}, []int{partial.Len()}, 1, fold, func(uint64, uint64) {}); err == nil {
			t.Fatalf("%s: merge-reduce fed a partial run to a non-Combiner", name)
		}
		if _, err := kpa.MergeReducePartial(pointer, 1, fold, al, nil); err == nil {
			t.Fatalf("%s: sealed a partial run with a non-Combiner", name)
		}
		both.Destroy()
		resealed.Destroy()
		partial.Destroy()
	}
	for _, r := range runs {
		r.Destroy()
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

	for name, factory := range map[string]kpa.AggFactory{"avg": ops.Avg(), "min": ops.Min()} {
		made := 0
		counting := func() kpa.Agg { made++; return factory() }
		if err := kpa.MergeReduceRange(runs, lo, hi, 1, counting, func(k, v uint64) {
			// Key k holds values k, k+keys, k+2*keys.
			want := k
			if name == "avg" {
				want = k + keys
			}
			if v != want {
				t.Fatalf("%s key %d: %d, want %d", name, k, v, want)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if made != 1 {
			t.Fatalf("%s: %d aggregators built for one merge task, want 1", name, made)
		}
	}
	made := 0
	if err := kpa.MergeReduceRange(runs, lo, hi, 1, func() kpa.Agg { made++; return &foldAgg{} }, func(uint64, uint64) {}); err != nil {
		t.Fatal(err)
	}
	if made != keys {
		t.Fatalf("%d aggregators built for %d keys without Reset", made, keys)
	}
}

// perPair hides a combining aggregator's word operation: what it builds
// is a Combiner and a Resetter and nothing else, so a merge takes the
// per-pair path, reusing one instance as it did before word folds.
func perPair(factory kpa.AggFactory) kpa.AggFactory {
	return func() kpa.Agg {
		a := factory()
		return struct {
			kpa.Combiner
			kpa.Resetter
		}{a.(kpa.Combiner), a.(kpa.Resetter)}
	}
}

// TestMergeFoldMatchesVisit holds the word fold of Sum, Count, Min and
// Max to the per-pair path it replaces, on both entry points a window
// uses — the close (MergeReduceRange at several partition counts, and
// MergeReduceRows into a row slab of RowBound rows) and the seal
// (MergeReducePartial) — over random mixes of raw value runs, partial
// runs and empty runs, at 1, 2, 3 and 33 runs, on two key shapes: keys
// of MaxUint64 and hashed keys among a few dozen (the loser tree), and
// 1 024 keys (the table, wherever a merge has more pairs than its span);
// on the runtime's shapes: 1 024 keys, and inproc_wide's hashed keys,
// whose 32-run seal regroups (the verbatim MergeK too), and so does its
// 7-run close; then the two cases a word fold could get wrong
// by itself: a count over raw and partial runs in one close (a raw pair
// adds 1, a partial its value), and a minimum whose first value is 0.
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
	randomRun := func(n int) *kpa.KPA {
		pairs := make([]algo.Pair, n)
		for i := range pairs {
			val := rng.Uint64() >> rng.Intn(64)
			if rng.Intn(5) == 0 {
				val = 0
			}
			pairs[i] = algo.Pair{Key: key(), Ptr: val}
		}
		return run(pairs...)
	}
	seal := func(factory kpa.AggFactory, runs ...*kpa.KPA) *kpa.KPA {
		t.Helper()
		p, err := kpa.MergeReducePartial(runs, 1, factory, al, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// partialOf seals runs through the per-pair path and drops them.
	partialOf := func(factory kpa.AggFactory, runs ...*kpa.KPA) *kpa.KPA {
		t.Helper()
		p := seal(perPair(factory), runs...)
		for _, r := range runs {
			r.Destroy()
		}
		return p
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

	aggs := []struct {
		name    string
		factory kpa.AggFactory
	}{{"sum", ops.Sum()}, {"count", ops.Count()}, {"min", ops.Min()}, {"max", ops.Max()}}
	for _, a := range aggs {
		if _, ok := a.factory().(kpa.WordFolder); !ok {
			t.Fatalf("%s is not a WordFolder", a.name)
		}
		visit := perPair(a.factory)
		for _, nRuns := range []int{1, 2, 3, 33} {
			for trial := 0; trial < 6; trial++ {
				if key = mixedKey; trial%2 == 1 {
					key = narrowKey
				}
				runs := make([]*kpa.KPA, nRuns)
				for j := range runs {
					switch rng.Intn(3) {
					case 0:
						runs[j] = run()
					case 1:
						runs[j] = randomRun(1 + rng.Intn(400))
					default:
						runs[j] = partialOf(a.factory, randomRun(1+rng.Intn(300)), randomRun(1+rng.Intn(300)))
					}
				}
				for _, p := range []int{1, 3} {
					if got, want := closeRows(runs, a.factory, p), closeRows(runs, visit, p); !slices.Equal(got, want) {
						t.Fatalf("%s runs=%d trial=%d p=%d: the word fold closes to %d rows unlike the per-pair path's %d", a.name, nRuns, trial, p, len(got), len(want))
					}
				}
				got, want := seal(a.factory, runs...), seal(visit, runs...)
				if !slices.Equal(got.Pairs(), want.Pairs()) || !got.Partial() {
					t.Fatalf("%s runs=%d trial=%d: the word fold seals %d pairs unlike the per-pair path's %d", a.name, nRuns, trial, got.Len(), want.Len())
				}
				for _, r := range append(runs, got, want) {
					r.Destroy()
				}
			}
		}
	}

	// The runtime's 1 024-key shapes, which take the table: a seal of 32
	// raw runs of 4 096 pairs, and a close over 7 partial runs beside 22
	// raw ones, where count adds 1 per raw pair and a partial's value in
	// one merge.
	key = narrowKey
	for _, a := range aggs {
		visit := perPair(a.factory)
		runs := make([]*kpa.KPA, 32)
		for j := range runs {
			runs[j] = randomRun(4096)
		}
		got, want := seal(a.factory, runs...), seal(visit, runs...)
		if !slices.Equal(got.Pairs(), want.Pairs()) || got.Len() != 1024 {
			t.Fatalf("%s seal/32x4096/1Ki-keys: the word fold seals %d pairs unlike the per-pair path's %d", a.name, got.Len(), want.Len())
		}
		for _, r := range append(runs, got, want) {
			r.Destroy()
		}
		runs = runs[:0]
		for range 7 {
			runs = append(runs, partialOf(a.factory, randomRun(4096), randomRun(4096)))
		}
		for range 22 {
			runs = append(runs, randomRun(4096))
		}
		for _, p := range []int{1, 3} {
			if got, want := closeRows(runs, a.factory, p), closeRows(runs, visit, p); !slices.Equal(got, want) || len(got) != 1024 {
				t.Fatalf("%s close/7+22/1Ki-keys p=%d: the word fold closes to %d rows unlike the per-pair path's %d", a.name, p, len(got), len(want))
			}
		}
		for _, r := range runs {
			r.Destroy()
		}
	}

	// inproc_wide's shapes, over hashed keys: a seal of 32 raw runs of
	// 10 000 pairs, which regroups — and whose verbatim copy (MergeK)
	// regroups too —, and a close over 7 runs, 3 partial and 4 raw, in two
	// partitions, which regroups as well.
	key = func() uint64 { return rng.Uint64() }
	wide := make([]*kpa.KPA, 32)
	for j := range wide {
		wide[j] = randomRun(10_000)
	}
	merged, err := kpa.MergeK(wide, al)
	if err != nil {
		t.Fatal(err)
	}
	var all []algo.Pair
	for _, r := range wide {
		all = append(all, r.Pairs()...)
	}
	slices.SortStableFunc(all, func(x, y algo.Pair) int { return cmp.Compare(x.Key, y.Key) })
	if !slices.Equal(merged.Pairs(), all) {
		t.Fatal("MergeK of 32x10000 hashed keys differs from the runs sorted stably in run order")
	}
	merged.Destroy()
	for _, a := range aggs {
		visit := perPair(a.factory)
		got, want := seal(a.factory, wide...), seal(visit, wide...)
		if !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("%s seal/32x10000/hashed-keys: the word fold seals %d pairs unlike the per-pair path's %d", a.name, got.Len(), want.Len())
		}
		got.Destroy()
		want.Destroy()
		var runs []*kpa.KPA
		for range 3 {
			runs = append(runs, partialOf(a.factory, randomRun(10_000), randomRun(10_000)))
		}
		for range 4 {
			runs = append(runs, randomRun(10_000))
		}
		if got, want := closeRows(runs, a.factory, 2), closeRows(runs, visit, 2); !slices.Equal(got, want) {
			t.Fatalf("%s close/3+4/hashed-keys: the word fold closes to %d rows unlike the per-pair path's %d", a.name, len(got), len(want))
		}
		for _, r := range runs {
			r.Destroy()
		}
	}
	for _, r := range wide {
		r.Destroy()
	}

	// Key 5: three raw pairs beside a partial of four; key 9: 0 first.
	kv := func(k, v uint64) algo.Pair { return algo.Pair{Key: k, Ptr: v} }
	for _, c := range []struct {
		name    string
		factory kpa.AggFactory
		want    []kpa.Row
	}{
		{"count", ops.Count(), []kpa.Row{{Key: 5, Val: 7}, {Key: 9, Val: 3}}},
		{"min", ops.Min(), []kpa.Row{{Key: 5, Val: 1}, {Key: 9, Val: 0}}},
	} {
		partial := partialOf(c.factory, run(kv(5, 4), kv(5, 5), kv(5, 6), kv(5, 7)))
		runs := []*kpa.KPA{run(kv(9, 0), kv(5, 1), kv(5, 2), kv(5, 3)), partial, run(kv(9, 8), kv(9, 2))}
		for _, factory := range []kpa.AggFactory{c.factory, perPair(c.factory)} {
			if got := closeRows(runs, factory, 1); !slices.Equal(got, c.want) {
				t.Fatalf("%s: closed to %v, want %v", c.name, got, c.want)
			}
		}
		for _, r := range runs {
			r.Destroy()
		}
	}
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
	// were filed: verbatim k-way merges in batches until one loser tree
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
// reused aggregator, Add or Combine through interfaces per pair, through
// the loser tree's visitor). The shapes are the runtime's: a seal of 32
// runs of 4 096 pairs over 1 024 keys (net_narrow, inproc_spill) or of
// 10 000 hashed keys (inproc_wide), staged through recycled scratch
// (MergeReducePartial), and a close of 7 runs of 140 000 pairs into a
// row slab (MergeReduceRows), over hashed keys or 1 024. Over 1 024 keys
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
					} else if sh.seal {
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
