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
		RadixSortPairs(run, 1, nil)
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
// that the verbatim copy writes the same sequence.
func TestMultiMergeFoldOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 2, 3, 5, 16, 33} {
		runs := randomRuns(r, k, 2000, 64)
		total := 0
		for _, run := range runs {
			total += len(run)
		}
		got, gotRun := visitAll(runs)
		if cp := copyAll(t, runs); !slices.Equal(cp, got) {
			t.Fatalf("k=%d: the copy differs from the visitor sequence", k)
		}
		if len(got) != total {
			t.Fatalf("k=%d: visited %d pairs, want %d", k, len(got), total)
		}
		if !PairsSorted(got) {
			t.Fatalf("k=%d: visit order not sorted by key", k)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Key == got[i-1].Key && gotRun[i] < gotRun[i-1] {
				t.Fatalf("k=%d: tie at key %d visited run %d after run %d",
					k, got[i].Key, gotRun[i-1], gotRun[i])
			}
		}
		// The multiset must match: every input pair appears exactly once
		// (pointers are unique across the runs by construction).
		seen := make(map[uint64]bool, total)
		for _, p := range got {
			if seen[p.Ptr] {
				t.Fatalf("k=%d: pair %d visited twice", k, p.Ptr)
			}
			seen[p.Ptr] = true
		}
	}
}

// TestMultiMergeFoldMatchesPairwise pins the visitor sequence and the
// verbatim copy bit-for-bit against the order the levelwise pairwise
// merge tree materialized (mergeRef).
func TestMultiMergeFoldMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 4, 8, 16} {
		runs := randomRuns(r, k, 500, 16)
		want := mergeRef(runs)
		got, _ := visitAll(runs)
		if cp := copyAll(t, runs); !slices.Equal(cp, want) {
			t.Fatalf("k=%d: the copy differs from the pairwise merge", k)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d pairs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: pair %d = %+v, pairwise merge has %+v", k, i, got[i], want[i])
			}
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
// powers of two, where the tree pads with absent leaves.
func TestMultiMergeFoldLoserTree(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(29))
	for _, k := range []int{3, 5, 31, 32, 33, 100} {
		for _, domain := range []uint64{1, 2, 7, 1 << 40} {
			runs := make([][]Pair, k)
			for j := range runs {
				n := r.Intn(400)
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
				RadixSortPairs(run, 1, nil)
				runs[j] = run
			}
			want := mergeRef(runs)
			got, gotRun := visitAll(runs)
			for i, p := range got {
				if uint64(gotRun[i]) != p.Ptr>>32 {
					t.Fatalf("k=%d domain=%d: pair of run %d visited as run %d", k, domain, p.Ptr>>32, gotRun[i])
				}
			}
			if cp := copyAll(t, runs); !slices.Equal(cp, want) {
				t.Fatalf("k=%d domain=%d: the copy differs from the pairwise merge", k, domain)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d domain=%d: visited %d pairs, want %d", k, domain, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d domain=%d: pair %d = %+v, pairwise merge has %+v", k, domain, i, got[i], want[i])
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
// an out of exactly one pair per distinct key, and returns whether the
// table was admitted.
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
			}
			live, total := liveRuns(runs, u)
			lo, span, ok := denseRange(live, total)
			if dense = ok; ok {
				ways["table"] = func(out []Pair) int { return foldTable(live, o.op, lo, span, out) }
			}
			for way, fold := range ways {
				out := make([]Pair, len(want))
				if n := fold(out); !slices.Equal(out[:n], want) {
					t.Fatalf("%s op=%d units=%v: the %s fold writes %d pairs unlike the %d of the visitor sequence folded by hand",
						name, o.op, u != nil, way, n, len(want))
				}
			}
		}
	}
	return dense
}

// TestMultiMergeFoldWords holds each word fold, on the loser tree and on
// the table, to the visitor sequence folded by hand (checkWordFolds),
// across fan-ins that straddle the tree's shapes (one live run, two,
// powers of two), empty runs, keys of MaxUint64, values of 0 first in a
// key, and sums that wrap; then on runs of narrow keys, at offset 0 and
// just below MaxUint64 (where lo + span must not wrap), with values of
// MaxUint64 that a minimum keeps; and at the edges of the table's rule —
// a span of one less than the pairs and of the pairs, of denseSpan − 1
// and of denseSpan — where the path taken is pinned too.
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
			RadixSortPairs(run, 1, nil)
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
			RadixSortPairs(run, 1, nil)
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
}

// FuzzMultiMergeFold folds arbitrary runs both ways. Each three bytes of
// data are a pair: the run it joins (of up to eight), its key's offset
// from base (shifted into the top byte when wide), and its value; the
// runs are sorted, then checkWordFolds holds the table and the tree to
// the visitor sequence folded by hand. The seeds cover narrow spans at 0
// and just below MaxUint64, and wide ones.
func FuzzMultiMergeFold(f *testing.F) {
	narrow := make([]byte, 3*600)
	rand.New(rand.NewSource(1)).Read(narrow)
	f.Add(narrow, uint64(0), false)
	f.Add(narrow, ^uint64(0)-255, false)
	f.Add(narrow, uint64(1)<<40, true)
	f.Add([]byte{0, 0, 7, 1, 0, 9, 1, 255, 0}, uint64(0), false)
	f.Fuzz(func(t *testing.T, data []byte, base uint64, wide bool) {
		runs := make([][]Pair, 8)
		for ; len(data) >= 3; data = data[3:] {
			off := uint64(data[1])
			if wide {
				off <<= 56
			}
			val := uint64(data[2]) * 0x0101010101010101
			runs[data[0]%8] = append(runs[data[0]%8], Pair{Key: base + off, Ptr: val})
		}
		for _, run := range runs {
			RadixSortPairs(run, 1, nil)
		}
		checkWordFolds(t, "fuzz", runs, []bool{true, false, false, true, true, false, true, false})
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
				RadixSortPairs(runs[j], 1, nil)
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
