package algo

import (
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
		SortPairs(run)
		runs[j] = run
	}
	return runs
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
// verbatim copy bit-for-bit against the levelwise pairwise merge
// (MultiMerge), the order the old merge tree materialized.
func TestMultiMergeFoldMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 4, 8, 16} {
		runs := randomRuns(r, k, 500, 16)
		want := MultiMerge(runs)
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
				SortPairs(run)
				runs[j] = run
			}
			want := MultiMerge(runs)
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

// TestMultiMergeFoldWords holds each word fold to the visitor sequence
// folded by hand: one pair per distinct key, in key order, its value
// the key's values combined by the operation — with the runs Units
// marks adding 1 per pair — across fan-ins that straddle the tree's
// shapes (one live run, two, powers of two), empty runs, keys of
// MaxUint64, values of 0 first in a key, and sums that wrap.
func TestMultiMergeFoldWords(t *testing.T) {
	const maxKey = ^uint64(0)
	r := rand.New(rand.NewSource(31))
	ops := []struct {
		op   FoldOp
		fold func(acc, v uint64) uint64
	}{
		{FoldAdd, func(acc, v uint64) uint64 { return acc + v }},
		{FoldMin, func(acc, v uint64) uint64 { return min(acc, v) }},
		{FoldMax, func(acc, v uint64) uint64 { return max(acc, v) }},
	}
	for _, k := range []int{1, 2, 3, 4, 33} {
		for _, domain := range []uint64{1, 16, 1 << 40} {
			runs := make([][]Pair, k)
			units := make([]bool, k)
			for j := range runs {
				n := r.Intn(300)
				if j%4 == 2 {
					n = 0
				}
				run := make([]Pair, n)
				for i := range run {
					key := r.Uint64() % domain
					if r.Intn(8) == 0 {
						key = maxKey
					}
					val := r.Uint64() >> uint(r.Intn(64))
					if r.Intn(4) == 0 {
						val = 0
					}
					run[i] = Pair{Key: key, Ptr: val}
				}
				SortPairs(run)
				runs[j] = run
				units[j] = r.Intn(2) == 0
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
					out := make([]Pair, len(seq))
					n := MultiMergeFold(runs, Fold{Op: o.op, Units: u}, out)
					if !slices.Equal(out[:n], want) {
						t.Fatalf("k=%d domain=%d op=%d units=%v: fold differs from the visitor sequence folded by hand", k, domain, o.op, u != nil)
					}
				}
			}
		}
	}
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
