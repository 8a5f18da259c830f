package algo

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMultiMerge measures the k-way merge used when a window
// closes. Run with -benchmem: the ping-pong scheme costs a constant
// three allocations (two pair buffers + the bounds slice) regardless of
// run count, where the old per-pairwise-merge allocation scheme cost
// k-1 slices totalling ~log2(k) copies of the data.
func BenchmarkMultiMerge(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("runs-%d", k), func(b *testing.B) {
			const runLen = 1 << 14
			rng := rand.New(rand.NewSource(3))
			runs := make([][]Pair, k)
			for i := range runs {
				r := make([]Pair, runLen)
				for j := range r {
					r[j] = Pair{Key: rng.Uint64(), Ptr: uint64(j)}
				}
				SortPairs(r)
				runs[i] = r
			}
			b.SetBytes(int64(k*runLen) * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := MultiMerge(runs)
				if len(out) != k*runLen {
					b.Fatal("bad merge length")
				}
			}
		})
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
				SortPairs(runs[j])
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
