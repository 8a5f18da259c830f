package algo

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomRuns builds n sorted runs of random lengths with keys drawn
// from a domain small enough to force heavy duplication.
func randomRuns(r *rand.Rand, n, maxLen int, keyDomain uint64) [][]Pair {
	runs := make([][]Pair, n)
	ptr := uint64(0)
	for j := range runs {
		run := make([]Pair, r.Intn(maxLen+1))
		for i := range run {
			run[i] = Pair{Key: r.Uint64() % keyDomain, Ptr: ptr}
			ptr++
		}
		RadixSortPairs(run, nil)
		runs[j] = run
	}
	return runs
}

// wideMerge is about the pairs the tests' regrouped merges hold: well
// past regroupMinPairs, and enough that heavy-bucket's heavy digit
// outweighs regroupLeafCap.
const wideMerge = 4 * regroupLeafCap

// wideKeys are the key shapes a regrouped merge must order exactly, each
// a generator of the i-th of a run's n keys: spread ones; ones under a
// shared prefix, which regroup level after level; all equal, which never
// split; MaxUint64 and its neighbour beside hashed keys; and heavy-bucket,
// where four tenths of the keys fall under one top digit — heavier than
// regroupLeafCap in a merge of wideMerge pairs — and inside it a cluster
// eight keys wide and a single key each fill a counting-pass segment far
// longer than insertionMax, with duplicates across runs for the tie
// order.
var wideKeys = []keyShape{
	{"hashed", func(r *rand.Rand, _, _ int) uint64 { return r.Uint64() }},
	{"keys-1Mi", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(1 << 20)) }},
	keyShapes[slices.IndexFunc(keyShapes, func(s keyShape) bool { return s.name == "clustered-prefix" })],
	keyShapes[slices.IndexFunc(keyShapes, func(s keyShape) bool { return s.name == "layered-prefix" })],
	keyShapes[slices.IndexFunc(keyShapes, func(s keyShape) bool { return s.name == "all-equal" })],
	{"max-uint64", func(r *rand.Rand, _, _ int) uint64 {
		if r.Intn(3) == 0 {
			return ^uint64(0) - uint64(r.Intn(2))
		}
		return r.Uint64()
	}},
	{"heavy-bucket", func(r *rand.Rand, _, _ int) uint64 {
		switch r.Intn(10) {
		case 0, 1:
			return 5<<60 | uint64(r.Intn(1<<20))
		case 2:
			return 5<<60 | 0x4_0000 + uint64(r.Intn(8))
		case 3:
			return 5<<60 | 0x8_0000
		}
		return r.Uint64()
	}},
}

// wideRuns builds k sorted runs of up to 2n pairs (every seventh one
// empty) whose keys key draws; each Ptr names its run and its index, so
// a pair out of its run's order, or a tie out of run order, shows up.
func wideRuns(r *rand.Rand, k, n int, key func(*rand.Rand, int, int) uint64) [][]Pair {
	runs := make([][]Pair, k)
	for j := range runs {
		if j%7 == 3 {
			continue
		}
		run := make([]Pair, r.Intn(2*n+1))
		for i := range run {
			run[i] = Pair{Key: key(r, i, len(run)), Ptr: uint64(j)<<32 | uint64(i)}
		}
		RadixSortPairs(run, nil)
		runs[j] = run
	}
	return runs
}

// mergeRef is the order a k-way merge of sorted runs must produce: the
// runs concatenated in run order and sorted stably by key, so that equal
// keys come by run index, then in run order — the order the levelwise
// pairwise merge tree materialized, by definition.
func mergeRef(runs [][]Pair) []Pair {
	want := slices.Concat(runs...)
	slices.SortStableFunc(want, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	return want
}

// visitAll returns the merge's visitor sequence: every pair and the run
// it was visited under.
func visitAll(runs [][]Pair) (got []Pair, gotRun []int) {
	MultiMergeFold(runs, Fold{Visit: func(run int, p Pair) {
		got = append(got, p)
		gotRun = append(gotRun, run)
	}}, nil)
	return got, gotRun
}

// copyAll returns what the merge's verbatim copy writes.
func copyAll(t *testing.T, runs [][]Pair) []Pair {
	t.Helper()
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	out := make([]Pair, total)
	if n := MultiMergeFold(runs, Fold{Op: FoldCopy}, out); n != total {
		t.Fatalf("copy wrote %d of %d pairs", n, total)
	}
	return out
}

// TestMultiMergeFoldOrder checks the visitor sequence is the full
// sorted multiset of the inputs, with ties ordered by run index, and
// that the verbatim copy writes the same sequence — for wide merges, the
// regrouped copy, on every wideKeys shape.
func TestMultiMergeFoldOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	check := func(name string, runs [][]Pair) {
		t.Helper()
		total := 0
		for _, run := range runs {
			total += len(run)
		}
		got, gotRun := visitAll(runs)
		if cp := copyAll(t, runs); !slices.Equal(cp, got) {
			t.Fatalf("%s: the copy differs from the visitor sequence", name)
		}
		if len(got) != total {
			t.Fatalf("%s: visited %d pairs, want %d", name, len(got), total)
		}
		if !PairsSorted(got) {
			t.Fatalf("%s: visit order not sorted by key", name)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key == got[i-1].Key && gotRun[i] < gotRun[i-1] {
				t.Fatalf("%s: tie at key %d visited run %d after run %d",
					name, got[i].Key, gotRun[i-1], gotRun[i])
			}
		}
		// The multiset must match: every input pair appears exactly once
		// (pointers are unique across the runs by construction).
		seen := make(map[uint64]bool, total)
		for _, p := range got {
			if seen[p.Ptr] {
				t.Fatalf("%s: pair %d visited twice", name, p.Ptr)
			}
			seen[p.Ptr] = true
		}
	}
	for _, k := range []int{0, 1, 2, 3, 5, 16, 33} {
		check(fmt.Sprintf("k=%d", k), randomRuns(r, k, 2000, 64))
	}
	for _, sh := range wideKeys {
		for _, k := range []int{regroupRuns + 2, 33} {
			check(fmt.Sprintf("%s k=%d", sh.name, k), wideRuns(r, k, wideMerge/k, sh.key))
		}
	}
}

// TestMultiMergeFoldMatchesPairwise pins the visitor sequence and the
// verbatim copy bit-for-bit against the order the levelwise pairwise
// merge tree materialized (mergeRef): on small merges, and on wide ones
// of every wideKeys shape, one run short of regrouping and past it.
func TestMultiMergeFoldMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(name string, runs [][]Pair) {
		t.Helper()
		want := mergeRef(runs)
		got, _ := visitAll(runs)
		if cp := copyAll(t, runs); !slices.Equal(cp, want) {
			t.Fatalf("%s: the copy differs from the pairwise merge", name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d = %+v, pairwise merge has %+v", name, i, got[i], want[i])
			}
		}
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		check(fmt.Sprintf("k=%d", k), randomRuns(r, k, 500, 16))
	}
	for _, sh := range wideKeys {
		for _, k := range []int{regroupRuns - 1, regroupRuns + 2, 40} {
			check(fmt.Sprintf("%s k=%d", sh.name, k), wideRuns(r, k, wideMerge/k, sh.key))
		}
	}
}

// TestMultiMergeFoldLoserTree aims at what the key-carrying tree could
// get wrong, against the pairwise reference with the run of every pair
// checked: an exhausted leaf is encoded as the key MaxUint64, so live
// pairs that hold that very key must still all come out, in run order;
// runs that are empty from the start or run dry long before the others
// leave their leaf exhausted for most of the merge; a tiny key domain
// makes nearly every comparison a tie; and the fan-ins straddle the
// powers of two, where the tree pads with absent leaves. Fan-ins of 31
// and up hold more than regroupMinPairs, at the longer length always, so
// their copy regroups the same runs.
func TestMultiMergeFoldLoserTree(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(29))
	for _, maxLen := range []int{400, 1500} {
		for _, k := range []int{3, 5, 31, 32, 33, 100} {
			for _, domain := range []uint64{1, 2, 7, 1 << 40} {
				name := fmt.Sprintf("maxLen=%d k=%d domain=%d", maxLen, k, domain)
				runs := make([][]Pair, k)
				for j := range runs {
					n := r.Intn(maxLen)
					switch {
					case j%7 == 3:
						n = 0 // empty from the start
					case j%5 == 1:
						n = 1 + r.Intn(3) // exhausted early
					}
					run := make([]Pair, n)
					for i := range run {
						key := r.Uint64() % domain
						if r.Intn(6) == 0 {
							key = maxKey - uint64(r.Intn(2))
						}
						// Ptr names the run, so a pair visited under the wrong
						// run index shows up.
						run[i] = Pair{Key: key, Ptr: uint64(j)<<32 | uint64(i)}
					}
					RadixSortPairs(run, nil)
					runs[j] = run
				}
				want := mergeRef(runs)
				got, gotRun := visitAll(runs)
				for i, p := range got {
					if uint64(gotRun[i]) != p.Ptr>>32 {
						t.Fatalf("%s: pair of run %d visited as run %d", name, p.Ptr>>32, gotRun[i])
					}
				}
				if cp := copyAll(t, runs); !slices.Equal(cp, want) {
					t.Fatalf("%s: the copy differs from the pairwise merge", name)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: visited %d pairs, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: pair %d = %+v, pairwise merge has %+v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
	// Every live pair holds the sentinel key.
	runs := [][]Pair{keyedPairs(maxKey, maxKey), nil, keyedPairs(maxKey), keyedPairs(maxKey, maxKey, maxKey), nil}
	if _, order := visitAll(runs); !slices.Equal(order, []int{0, 0, 2, 3, 3, 3}) {
		t.Fatalf("all-MaxUint64 runs visited in run order %v, want [0 0 2 3 3 3]", order)
	}
}

// checkWordFolds holds each word fold of runs — alone, and with the runs
// units marks adding 1 per pair — to the visitor sequence folded by hand:
// one pair per distinct key, in key order, its value the key's values
// combined by the operation. It checks MultiMergeFold, the loser tree
// alone and, when denseRange admits the runs, the table alone, each into
// an out of exactly one pair per distinct key, and regrouping alone into
// an out of one slot per pair; it returns whether the table was admitted.
func checkWordFolds(t *testing.T, name string, runs [][]Pair, units []bool) (dense bool) {
	t.Helper()
	ops := []struct {
		op   FoldOp
		fold func(acc, v uint64) uint64
	}{
		{FoldAdd, func(acc, v uint64) uint64 { return acc + v }},
		{FoldMin, func(acc, v uint64) uint64 { return min(acc, v) }},
		{FoldMax, func(acc, v uint64) uint64 { return max(acc, v) }},
	}
	seq, from := visitAll(runs)
	for _, o := range ops {
		for _, u := range [][]bool{nil, units} {
			var want []Pair
			for i, p := range seq {
				v := p.Ptr
				if u != nil && u[from[i]] {
					v = 1
				}
				if n := len(want); n > 0 && want[n-1].Key == p.Key {
					want[n-1].Ptr = o.fold(want[n-1].Ptr, v)
				} else {
					want = append(want, Pair{Key: p.Key, Ptr: v})
				}
			}
			f := Fold{Op: o.op, Units: u}
			ways := map[string]func(out []Pair) int{
				"MultiMergeFold": func(out []Pair) int { return MultiMergeFold(runs, f, out) },
				"tree": func(out []Pair) int {
					live, total := liveRuns(runs, u)
					return foldTree(live, total, f, out)
				},
				"regroup": func(out []Pair) int {
					live, total := liveRuns(runs, u)
					return foldRegroup(live, total, o.op, out)
				},
			}
			live, total := liveRuns(runs, u)
			lo, span, ok := denseRange(live, total)
			if dense = ok; ok {
				ways["table"] = func(out []Pair) int { return foldTable(live, o.op, lo, span, out) }
			}
			for way, fold := range ways {
				out := make([]Pair, len(want))
				if way == "regroup" {
					out = make([]Pair, total)
				}
				if n := fold(out); !slices.Equal(out[:n], want) {
					t.Fatalf("%s op=%d units=%v: the %s fold writes %d pairs unlike the %d of the visitor sequence folded by hand",
						name, o.op, u != nil, way, n, len(want))
				}
			}
		}
	}
	return dense
}

// TestMultiMergeFoldWords holds each word fold, on the loser tree, on
// the table and by regrouping, to the visitor sequence folded by hand
// (checkWordFolds), across fan-ins that straddle the tree's shapes (one
// live run, two, powers of two), empty runs, keys of MaxUint64, values of
// 0 first in a key, and sums that wrap; then on runs of narrow keys, at
// offset 0 and just below MaxUint64 (where lo + span must not wrap), with
// values of MaxUint64 that a minimum keeps; and at the edges of the
// table's rule — a span of one less than the pairs and of the pairs, of
// denseSpan − 1 and of denseSpan — where the path taken is pinned too;
// last, wide merges of every wideKeys shape, where the regroup way writes
// a Units run's values as 1 as it copies them.
func TestMultiMergeFoldWords(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(31))
	// build makes k runs of up to maxLen pairs (every fourth one empty)
	// whose keys key draws, and a random Units mix over them.
	build := func(k, maxLen int, key func() uint64) ([][]Pair, []bool) {
		runs := make([][]Pair, k)
		units := make([]bool, k)
		for j := range runs {
			n := r.Intn(maxLen + 1)
			if j%4 == 2 {
				n = 0
			}
			run := make([]Pair, n)
			for i := range run {
				val := r.Uint64() >> uint(r.Intn(64))
				switch r.Intn(6) {
				case 0:
					val = 0
				case 1:
					val = maxKey
				}
				run[i] = Pair{Key: key(), Ptr: val}
			}
			RadixSortPairs(run, nil)
			runs[j] = run
			units[j] = r.Intn(2) == 0
		}
		return runs, units
	}
	for _, k := range []int{1, 2, 3, 4, 33} {
		for _, domain := range []uint64{1, 16, 1 << 40} {
			runs, units := build(k, 300, func() uint64 {
				if r.Intn(8) == 0 {
					return maxKey
				}
				return r.Uint64() % domain
			})
			checkWordFolds(t, fmt.Sprintf("k=%d domain=%d", k, domain), runs, units)
		}
	}
	for _, k := range []int{1, 4, 32} {
		for _, base := range []uint64{0, maxKey - 1023} {
			runs, units := build(k, 4096, func() uint64 { return base + r.Uint64()%1024 })
			name := fmt.Sprintf("k=%d keys=[%d,+1024)", k, base)
			if dense := checkWordFolds(t, name, runs, units); !dense && k > 1 {
				t.Fatalf("%s: a 1 024-key span over %d runs took the tree", name, k)
			}
		}
	}

	// edge builds runs of exactly pairs pairs whose keys span exactly
	// span, from lo: the first and last pairs hold the ends, the rest fall
	// between, spread round-robin over three runs and an empty one.
	edge := func(lo uint64, span, pairs int) ([][]Pair, []bool) {
		runs := make([][]Pair, 4)
		for i := 0; i < pairs; i++ {
			key := lo + uint64(r.Intn(span+1))
			switch i {
			case 0:
				key = lo
			case pairs - 1:
				key = lo + uint64(span)
			}
			j := i % 3
			runs[j] = append(runs[j], Pair{Key: key, Ptr: r.Uint64() >> uint(r.Intn(64))})
		}
		for _, run := range runs {
			RadixSortPairs(run, nil)
		}
		return runs, []bool{true, false, true, false}
	}
	for _, c := range []struct {
		span, pairs int
		dense       bool
	}{
		{99, 100, true},
		{100, 100, false},
		{denseSpan - 1, denseSpan + 50, true},
		{denseSpan, denseSpan + 50, false},
	} {
		for _, lo := range []uint64{0, maxKey - uint64(c.span)} {
			name := fmt.Sprintf("span=%d pairs=%d lo=%d", c.span, c.pairs, lo)
			runs, units := edge(lo, c.span, c.pairs)
			if dense := checkWordFolds(t, name, runs, units); dense != c.dense {
				t.Fatalf("%s: the table was admitted %v, want %v", name, dense, c.dense)
			}
		}
	}

	// Wide merges of every wideKeys shape, past regroupMinPairs, each with
	// a Units mix.
	for _, sh := range wideKeys {
		i := 0
		runs, units := build(33, wideMerge/16, func() uint64 { i++; return sh.key(r, i, 1000) })
		checkWordFolds(t, "wide "+sh.name, runs, units)
	}
}

// foldSortedBranchy is foldSorted's reference: the fold with a branch
// on every key change, as the leaf folded before it went branch-free.
func foldSortedBranchy(pairs []Pair, op FoldOp) int {
	if op == FoldCopy || len(pairs) == 0 {
		return len(pairs)
	}
	n, cur := 0, pairs[0]
	for _, p := range pairs[1:] {
		switch {
		case p.Key != cur.Key:
			pairs[n] = cur
			n++
			cur = p
		case op == FoldAdd:
			cur.Ptr += p.Ptr
		case op == FoldMin:
			cur.Ptr = min(cur.Ptr, p.Ptr)
		default:
			cur.Ptr = max(cur.Ptr, p.Ptr)
		}
	}
	pairs[n] = cur
	return n + 1
}

// TestFoldSorted holds the leaf's branch-free fold to foldSortedBranchy
// for every op, on sorted runs of random repeats, all keys equal, all
// keys distinct, keys at both ends of the range, and values near
// MaxUint64 that make a sum wrap; lengths 0–3 and longer ones.
func TestFoldSorted(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	shapes := []struct {
		name string
		key  func(i int) uint64
	}{
		{"random-repeats", func(int) uint64 { return mix(uint64(r.Intn(64))) }},
		{"all-equal", func(int) uint64 { return 7 }},
		{"all-distinct", func(i int) uint64 { return uint64(i) }},
		{"ends", func(int) uint64 { return -uint64(r.Intn(2)) }},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 3, 100, 5000} {
			run := make([]Pair, n)
			for i := range run {
				val := r.Uint64()
				switch r.Intn(4) {
				case 0:
					val = 0
				case 1:
					val = ^uint64(0) - uint64(r.Intn(3)) // sums wrap
				}
				run[i] = Pair{Key: sh.key(i), Ptr: val}
			}
			RadixSortPairs(run, nil)
			for _, op := range []FoldOp{FoldCopy, FoldAdd, FoldMin, FoldMax} {
				got, want := slices.Clone(run), slices.Clone(run)
				m, wm := foldSorted(got, op), foldSortedBranchy(want, op)
				if m != wm || !slices.Equal(got[:m], want[:wm]) {
					t.Fatalf("%s/%d op %d: %d pairs %v, want %d pairs %v", sh.name, n, op, m, got[:min(m, 8)], wm, want[:min(wm, 8)])
				}
			}
		}
	}
}

// BenchmarkFoldSorted prices the leaf's fold, branch-free against
// foldSortedBranchy, in ns per pair (a copy of the leaf included), on
// 512 sorted leaves of 2 048 hashed keys taken in turn, so no branch
// history carries over: keys of 2 150 ids, which repeat about one pair
// in three as a close of inproc_wide's keys does, and keys that never
// repeat, where the branch always predicts.
func BenchmarkFoldSorted(b *testing.B) {
	const leaf, leaves = 2048, 512
	for _, keys := range []struct {
		name string
		ids  int
	}{{"repeats", 2150}, {"distinct", 1 << 40}} {
		r := rand.New(rand.NewSource(3))
		all := make([]Pair, leaf*leaves)
		for i := range all {
			all[i] = Pair{Key: mix(uint64(r.Intn(keys.ids))), Ptr: r.Uint64() % 1000}
		}
		for l := 0; l < leaves; l++ {
			RadixSortPairs(all[l*leaf:(l+1)*leaf], nil)
		}
		buf := make([]Pair, leaf)
		for _, way := range []struct {
			name string
			fold func([]Pair, FoldOp) int
		}{{"branchy", foldSortedBranchy}, {"branch-free", foldSorted}} {
			b.Run(keys.name+"/sum/"+way.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := i % leaves
					copy(buf, all[l*leaf:(l+1)*leaf])
					way.fold(buf, FoldAdd)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/leaf, "ns/pair")
			})
		}
	}
}

// TestMultiMergeFoldRegroupRule pins the path MultiMergeFold takes at
// each seam of the regroup rule — regroupRuns − 1 live runs and
// regroupRuns (an empty run is not live), regroupMinPairs − 1 pairs and
// regroupMinPairs, an out of one slot per pair and one short — and holds
// the copy and the word folds to their references on both sides. The
// runs share a key, so a word fold's rows fit the short out, which the
// tree must take.
func TestMultiMergeFoldRegroupRule(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	// runsOf spreads pairs hashed keys round-robin over k runs, the last
	// of them empty, the first two sharing a key.
	runsOf := func(k, pairs int) [][]Pair {
		runs := make([][]Pair, k)
		for i := range pairs {
			runs[i%(k-1)] = append(runs[i%(k-1)], Pair{Key: r.Uint64(), Ptr: uint64(i)})
		}
		runs[1][0].Key = runs[0][0].Key
		for _, run := range runs {
			RadixSortPairs(run, nil)
		}
		return runs
	}
	units := make([]bool, regroupRuns+1)
	for j := range units {
		units[j] = j%3 == 0
	}
	for _, c := range []struct {
		name            string
		k, pairs, short int
		regroups        bool
	}{
		{"live-runs=regroupRuns-1", regroupRuns, regroupMinPairs, 0, false},
		{"live-runs=regroupRuns", regroupRuns + 1, regroupMinPairs, 0, true},
		{"pairs=regroupMinPairs-1", regroupRuns + 1, regroupMinPairs - 1, 0, false},
		{"out=pairs-1", regroupRuns + 1, regroupMinPairs, 1, false},
	} {
		runs := runsOf(c.k, c.pairs)
		live, total := liveRuns(runs, nil)
		out := make([]Pair, total-c.short)
		if got := regroups(live, total, out); got != c.regroups {
			t.Fatalf("%s: %d live runs, %d pairs, out of %d: regroups %v, want %v", c.name, len(live), total, len(out), got, c.regroups)
		}
		if c.short == 0 {
			if n := MultiMergeFold(runs, Fold{Op: FoldCopy}, out); !slices.Equal(out[:n], mergeRef(runs)) {
				t.Fatalf("%s: the copy differs from the pairwise merge", c.name)
			}
		}
		want := make([]Pair, total-c.short)
		wn := foldTree(live, total, Fold{Op: FoldAdd}, want)
		if n := MultiMergeFold(runs, Fold{Op: FoldAdd}, out); !slices.Equal(out[:n], want[:wn]) {
			t.Fatalf("%s: the sum writes %d pairs unlike the tree's %d", c.name, n, wn)
		}
		checkWordFolds(t, c.name, runs, units[:c.k])
	}
}

// fuzzRuns lays out one FuzzMultiMergeFold input as sorted runs and
// their Units marks. fanIn picks the run count (1 to 40) and tile how
// many times data is laid down (1 to 100), so a merge reaches
// regroupMinPairs. Each three bytes of data are a pair (of the first
// 100): the run it joins, its key's offset and its value's top byte;
// copy c of data moves each pair c runs on and adds c<<8 to its offset.
// place puts the offset above base: shifted left by place (0 to 56), or,
// above that, multiplied into a hashed key. Each Ptr's low bits number
// its pair, so a pair out of order shows up.
func fuzzRuns(data []byte, base uint64, place, fanIn, tile uint8) ([][]Pair, []bool) {
	// A hundred pairs a copy keep the minimizing of a new input short: it
	// runs the target about once per byte of data.
	data = data[:min(len(data), 3*100)]
	k, copies := 1+int(fanIn)%40, 1+int(tile)%100
	runs := make([][]Pair, k)
	units := make([]bool, k)
	for j := range units {
		units[j] = j%3 != 1
	}
	n := uint64(0)
	for c := range copies {
		for d := data; len(d) >= 3; d = d[3:] {
			off := uint64(d[1]) | uint64(c)<<8
			key := base + off<<(place%57)
			if place%64 > 56 {
				key = base + off*0x9E3779B97F4A7C15
			}
			j := (int(d[0]) + c) % k
			runs[j] = append(runs[j], Pair{Key: key, Ptr: uint64(d[2])<<56 | n})
			n++
		}
	}
	for _, run := range runs {
		RadixSortPairs(run, nil)
	}
	return runs, units
}

// mergeFoldSeed is one input of FuzzMultiMergeFold's seed corpus and the
// way MultiMergeFold's sum takes through it: "table", "regroup" or
// "tree".
type mergeFoldSeed struct {
	data               []byte
	base               uint64
	place, fanIn, tile uint8
	way                string
}

// mergeFoldSeeds is FuzzMultiMergeFold's seed corpus. It reaches every
// way at least twice: narrow key spans folded through the table, at 0 and
// ending on MaxUint64 (where lo + span must not wrap); spans wider than
// the pairs, wrapping past MaxUint64 and in the top byte, through the
// tree; fan-ins of 3 to 40 past regroupMinPairs, on shifted and hashed
// keys, regrouped; and two runs of as many pairs, which keep the tree.
func mergeFoldSeeds() []mergeFoldSeed {
	const maxKey = ^uint64(0)
	narrow := make([]byte, 3*100)
	rand.New(rand.NewSource(1)).Read(narrow)
	// dense is narrow with every offset masked to 6 bits, the first 63:
	// laid down once, its 100 pairs span 64 keys.
	dense := slices.Clone(narrow)
	for i := 1; i < len(dense); i += 3 {
		dense[i] &= 63
	}
	dense[1] = 63
	return []mergeFoldSeed{
		{dense, 0, 0, 7, 0, "table"},
		{dense, maxKey - 63, 0, 7, 0, "table"},
		{narrow, 0, 0, 8, 5, "tree"},
		{narrow, maxKey - 255, 0, 8, 5, "tree"},
		{narrow, 1 << 40, 56, 8, 5, "tree"},
		{[]byte{0, 0, 7, 1, 0, 9, 1, 255, 0}, 0, 0, 8, 0, "tree"},
		{narrow, 0, 20, 33, 99, "regroup"},
		{narrow, 0, 60, 39, 90, "regroup"},
		{narrow, maxKey - 1<<22, 8, 16, 85, "regroup"},
		{narrow, 0, 60, 2, 45, "regroup"},
		{narrow, 0, 60, 1, 45, "tree"},
	}
}

// TestMultiMergeFoldFuzzSeeds pins the way each of FuzzMultiMergeFold's
// seeds takes, so the seed corpus that plain go test replays keeps
// reaching the table, the regroup and the tree.
func TestMultiMergeFoldFuzzSeeds(t *testing.T) {
	for i, s := range mergeFoldSeeds() {
		live, total := liveRuns(fuzzRuns(s.data, s.base, s.place, s.fanIn, s.tile))
		way := "tree"
		if _, _, ok := denseRange(live, total); ok {
			way = "table"
		} else if regroups(live, total, make([]Pair, total)) {
			way = "regroup"
		}
		if way != s.way {
			t.Fatalf("seed %d: %d live runs, %d pairs: the sum takes the %s, want the %s", i, len(live), total, way, s.way)
		}
	}
}

// FuzzMultiMergeFold merges arbitrary runs (fuzzRuns) every way: the
// copy — MultiMergeFold's and the regroup's alone — is held to mergeRef
// exactly, ties and all; then checkWordFolds holds every word fold to the
// visitor sequence folded by hand.
func FuzzMultiMergeFold(f *testing.F) {
	for _, s := range mergeFoldSeeds() {
		f.Add(s.data, s.base, s.place, s.fanIn, s.tile)
	}
	f.Fuzz(func(t *testing.T, data []byte, base uint64, place, fanIn, tile uint8) {
		runs, units := fuzzRuns(data, base, place, fanIn, tile)
		want := mergeRef(runs)
		if got := copyAll(t, runs); !slices.Equal(got, want) {
			t.Fatalf("%d runs, %d pairs: the copy differs from the pairwise merge", len(runs), len(want))
		}
		live, total := liveRuns(runs, units)
		out := make([]Pair, total)
		if m := foldRegroup(live, total, FoldCopy, out); !slices.Equal(out[:m], want) {
			t.Fatalf("%d runs, %d pairs: the regrouped copy differs from the pairwise merge", len(runs), total)
		}
		checkWordFolds(t, "fuzz", runs, units)
	})
}

// TestMultiWayCuts checks cut vectors are monotone, key-aligned and
// roughly balanced across run counts and key skews.
func TestMultiWayCuts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, 16, 33} {
		for _, domain := range []uint64{2, 64, 1 << 40} {
			runs := randomRuns(r, k, 3000, domain)
			total := 0
			for _, run := range runs {
				total += len(run)
			}
			const p = 7
			cuts := MultiWayCuts(runs, p)
			if len(cuts) < 2 {
				t.Fatalf("k=%d: %d cut vectors, want >= 2", k, len(cuts))
			}
			if len(cuts) > p+1 {
				t.Fatalf("k=%d: %d cut vectors for %d partitions", k, len(cuts), p)
			}
			first, last := cuts[0], cuts[len(cuts)-1]
			for j, run := range runs {
				if first[j] != 0 || last[j] != len(run) {
					t.Fatalf("k=%d run %d: boundary cursors [%d,%d], want [0,%d]",
						k, j, first[j], last[j], len(run))
				}
			}
			covered := 0
			for i := 0; i+1 < len(cuts); i++ {
				lo, hi := cuts[i], cuts[i+1]
				width := 0
				for j := range runs {
					if hi[j] < lo[j] {
						t.Fatalf("k=%d: cut %d run %d not monotone (%d > %d)", k, i, j, lo[j], hi[j])
					}
					width += hi[j] - lo[j]
				}
				if width == 0 && total > 0 {
					t.Fatalf("k=%d: empty partition %d survived dedup", k, i)
				}
				covered += width
				// Key alignment: the largest key of this partition must be
				// strictly below the smallest key of the next.
				if i+2 < len(cuts) {
					var maxHere uint64
					var minNext = ^uint64(0)
					for j, run := range runs {
						if hi[j] > lo[j] && run[hi[j]-1].Key > maxHere {
							maxHere = run[hi[j]-1].Key
						}
						if hi[j] < cuts[i+2][j] && run[hi[j]].Key < minNext {
							minNext = run[hi[j]].Key
						}
					}
					if maxHere >= minNext {
						t.Fatalf("k=%d domain=%d: key %d spans partition boundary %d", k, domain, maxHere, i)
					}
				}
			}
			if covered != total {
				t.Fatalf("k=%d: partitions cover %d pairs, want %d", k, covered, total)
			}
			// Balance: with a wide key domain no partition should exceed
			// ~2x the ideal share.
			if domain > uint64(4*total) && total > 1000 {
				ideal := total / p
				for i := 0; i+1 < len(cuts); i++ {
					width := 0
					for j := range runs {
						width += cuts[i+1][j] - cuts[i][j]
					}
					if width > 2*ideal+1 {
						t.Fatalf("k=%d: partition %d holds %d of %d pairs (ideal %d)",
							k, i, width, total, ideal)
					}
				}
			}
		}
	}
}

// TestMultiWayCutsDegenerate covers empty inputs and single-key skew.
func TestMultiWayCutsDegenerate(t *testing.T) {
	cuts := MultiWayCuts(nil, 4)
	if len(cuts) != 2 {
		t.Fatalf("no runs: %d cut vectors, want 2", len(cuts))
	}
	// All pairs share one key: alignment forces a single partition.
	run := make([]Pair, 100)
	for i := range run {
		run[i] = Pair{Key: 7, Ptr: uint64(i)}
	}
	cuts = MultiWayCuts([][]Pair{run}, 8)
	if len(cuts) != 2 {
		t.Fatalf("single-key input split into %d partitions, want 1", len(cuts)-1)
	}
}

// BenchmarkMergeShapes is the sweep that fixes regroupRuns and
// regroupMinPairs: a sum and a verbatim copy of sorted runs, through the
// loser tree and by regrouping, in ns per pair, across 2–64 runs of
// 250–10 000 pairs (500 to 640 000 in all), over hashed keys,
// clustered-prefix keys (all but a tenth share their top 16 bits, so one
// bucket is heavy and regroups again), keys below 2^20 (too wide for
// the table) and hashed-1Mi, the benchmark's inproc_wide keys — 64-bit
// hashes of 2^20 ids, so a merge of many runs repeats keys and a sum
// folds them, where plain hashed keys never repeat. MultiMergeFold
// regroups where the regroup leg wins, and the constants put the tree
// everywhere else.
func BenchmarkMergeShapes(b *testing.B) {
	shapes := []struct {
		name string
		key  func(r *rand.Rand, i, n int) uint64
	}{
		{"hashed", func(r *rand.Rand, _, _ int) uint64 { return r.Uint64() }},
		{"clustered-prefix", keyShapes[slices.IndexFunc(keyShapes, func(s keyShape) bool { return s.name == "clustered-prefix" })].key},
		{"1Mi", func(r *rand.Rand, _, _ int) uint64 { return uint64(r.Intn(1 << 20)) }},
		{"hashed-1Mi", func(r *rand.Rand, _, _ int) uint64 { return mix(uint64(r.Intn(1 << 20))) }},
	}
	for _, k := range []int{2, 3, 4, 7, 8, 16, 32, 64} {
		for _, runLen := range []int{250, 1000, 4096, 10_000} {
			for _, sh := range shapes {
				rng := rand.New(rand.NewSource(int64(k*runLen + 1)))
				runs := make([][]Pair, k)
				for j := range runs {
					runs[j] = make([]Pair, runLen)
					for i := range runs[j] {
						runs[j][i] = Pair{Key: sh.key(rng, i, runLen), Ptr: rng.Uint64() % 1000}
					}
					RadixSortPairs(runs[j], nil)
				}
				out := make([]Pair, k*runLen)
				for _, op := range []struct {
					name string
					op   FoldOp
				}{{"sum", FoldAdd}, {"copy", FoldCopy}} {
					for _, way := range []struct {
						name string
						fold func(live []cursor, total int) int
					}{
						{"tree", func(live []cursor, total int) int { return foldTree(live, total, Fold{Op: op.op}, out) }},
						{"regroup", func(live []cursor, total int) int { return foldRegroup(live, total, op.op, out) }},
					} {
						b.Run(fmt.Sprintf("runs-%d/len-%d/%s/%s/%s", k, runLen, sh.name, op.name, way.name), func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								// The tree advances its cursors, so each fold starts from fresh ones.
								way.fold(liveRuns(runs, nil))
							}
							b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/pair")
						})
					}
				}
			}
		}
	}
}

// BenchmarkFoldSpan is the sweep that fixes denseSpan: a sum over 32
// sorted runs of uniform keys, folded through the loser tree and through
// a table of span slots, in ns per pair, across key spans 2^8–2^16 and
// pair counts 4 096–320 000 (the table also at spans above the pair
// count, where MultiMergeFold never takes it). denseSpan must lie where
// the table wins at every pair count above the span.
func BenchmarkFoldSpan(b *testing.B) {
	const k = 32
	acc, seen := make([]uint64, 1<<16), make([]uint64, 1<<16/64)
	for lg := 8; lg <= 16; lg += 2 {
		span := 1 << lg
		for _, total := range []int{4096, 32_768, 320_000} {
			rng := rand.New(rand.NewSource(int64(lg*total + 1)))
			runs := make([][]Pair, k)
			for j := range runs {
				runs[j] = make([]Pair, total/k)
				for i := range runs[j] {
					runs[j][i] = Pair{Key: uint64(rng.Intn(span)), Ptr: rng.Uint64() % 1000}
				}
				RadixSortPairs(runs[j], nil)
			}
			live, n := liveRuns(runs, nil)
			lo, hi := ^uint64(0), uint64(0)
			for _, c := range live {
				lo, hi = min(lo, c.pairs[0].Key), max(hi, c.pairs[len(c.pairs)-1].Key)
			}
			out := make([]Pair, n)
			// The tree advances its cursors, so each fold starts from fresh ones.
			for _, way := range []struct {
				name string
				fold func() int
			}{
				{"tree", func() int {
					live, n := liveRuns(runs, nil)
					return foldTree(live, n, Fold{Op: FoldAdd}, out)
				}},
				{"table", func() int {
					live, _ := liveRuns(runs, nil)
					return foldSlots(acc[:hi-lo+1], seen[:(hi-lo)/64+1], live, FoldAdd, lo, out)
				}},
			} {
				b.Run(fmt.Sprintf("span-2^%d/pairs-%d/%s", lg, total, way.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						way.fold()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
				})
			}
		}
	}
}
