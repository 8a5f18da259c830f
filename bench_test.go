// Benchmarks regenerating each figure of the paper's evaluation at a
// reduced scale (run `go test -bench=Fig -benchtime=1x`; use
// cmd/sbx-bench for paper-scale tables), plus real wall-clock
// benchmarks of the grouping kernels the engine is built on.
package streambox_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"streambox/internal/algo"
	"streambox/internal/experiments"
	"streambox/internal/parsefmt"
)

// benchScale keeps the figure benchmarks to seconds of wall time.
func benchScale() experiments.Scale {
	return experiments.Scale{
		WindowRecords: 500_000,
		BundleRecords: 50_000,
		Specimen:      500,
		Duration:      0.25,
		SearchIters:   2,
	}
}

var benchCores = []int{2, 64}

// BenchmarkFig2GroupBy regenerates Figure 2: GroupBy sort vs hash on
// HBM vs DRAM. Reports HBM-sort throughput at 64 cores.
func BenchmarkFig2GroupBy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2(experiments.Fig2Config{Pairs: 20_000_000, Cores: benchCores})
		for _, r := range rows {
			if r.Config == "HBM Sort" && r.Cores == 64 {
				b.ReportMetric(r.MPairsSec, "Mpairs/s")
				b.ReportMetric(r.GBSec, "GB/s")
			}
		}
	}
}

// BenchmarkFig7YSB regenerates Figure 7: YSB on StreamBox-HBM vs the
// Flink baseline. Reports the RDMA throughput at 64 cores.
func BenchmarkFig7YSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(benchScale(), benchCores)
		for _, r := range rows {
			if r.System == "StreamBox-HBM KNL RDMA" && r.Cores == 64 {
				b.ReportMetric(r.MRecSec, "Mrec/s")
			}
		}
	}
}

// BenchmarkFig8Pipelines regenerates Figure 8: the nine benchmark
// pipelines at 64 cores. Reports the median throughput.
func BenchmarkFig8Pipelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(benchScale(), []int{64})
		var tputs []float64
		for _, r := range rows {
			tputs = append(tputs, r.MRecSec)
		}
		if len(tputs) > 0 {
			b.ReportMetric(tputs[len(tputs)/2], "median-Mrec/s")
		}
	}
}

// BenchmarkFig9Ablation regenerates Figure 9: placement/KPA ablations
// on TopK Per Key. Reports the NoKPA slowdown factor.
func BenchmarkFig9Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(benchScale(), []int{64})
		_, _, noKPA := experiments.Fig9Ratios(rows)
		b.ReportMetric(noKPA, "noKPA-factor")
	}
}

// BenchmarkFig10Balance regenerates Figure 10: the demand-balance knob
// under rising ingestion and delayed watermarks.
func BenchmarkFig10Balance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.Fig10a(benchScale(), []float64{20, 60})
		experiments.Fig10b(benchScale(), []int{100, 300})
		if len(a) == 2 {
			b.ReportMetric(a[1].KLow, "k_low@60M")
		}
	}
}

// BenchmarkFig11Parsing regenerates Figure 11: ingestion parsing
// throughput per format.
func BenchmarkFig11Parsing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig11(0)
		for _, r := range rows {
			if r.Machine == "KNL" && r.Format == "JSON" {
				b.ReportMetric(r.MRecSec, "json-Mrec/s")
			}
		}
	}
}

// BenchmarkFigMerge regenerates the window-close microbenchmark on the
// simulated KNL. Reports the fused-over-pairwise speedup at 64 cores
// on HBM.
func BenchmarkFigMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.FigMerge(experiments.FigMergeConfig{
			Pairs: 8_000_000, Runs: 16, Cores: benchCores,
		})
		var fused, pairwise float64
		for _, r := range rows {
			if r.Cores == 64 && r.Config == "HBM Fused" {
				fused = r.MPairsSec
			}
			if r.Cores == 64 && r.Config == "HBM Pairwise" {
				pairwise = r.MPairsSec
			}
		}
		b.ReportMetric(fused, "Mpairs/s")
		if pairwise > 0 {
			b.ReportMetric(fused/pairwise, "speedup")
		}
	}
}

// --- Real kernel benchmarks (wall clock, not simulated). -------------------

func benchPairs(n int) []algo.Pair {
	r := rand.New(rand.NewSource(7))
	out := make([]algo.Pair, n)
	for i := range out {
		out[i] = algo.Pair{Key: r.Uint64(), Ptr: uint64(i)}
	}
	return out
}

// BenchmarkKPAWidth is the ablation for the "one resident column"
// design choice (paper §4.1): grouping 16-byte key/pointer pairs versus
// moving full-width records. Both legs sort by key with the same library
// sort, so they differ in width alone.
func BenchmarkKPAWidth(b *testing.B) {
	b.Run("pairs-16B", func(b *testing.B) {
		src := benchPairs(1 << 19)
		buf := make([]algo.Pair, len(src))
		b.SetBytes(int64(len(src)) * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			slices.SortFunc(buf, func(x, y algo.Pair) int { return cmp.Compare(x.Key, y.Key) })
		}
	})
	b.Run("records-56B", func(b *testing.B) {
		r := rand.New(rand.NewSource(7))
		src := make([]wideRec, 1<<19)
		for i := range src {
			src[i] = wideRec{key: r.Uint64()}
		}
		buf := make([]wideRec, len(src))
		b.SetBytes(int64(len(src)) * 56)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			slices.SortFunc(buf, func(x, y wideRec) int { return cmp.Compare(x.key, y.key) })
		}
	})
}

type wideRec struct {
	key  uint64
	cols [6]uint64
}

// BenchmarkParseFormats measures the real decode kernels of Fig 11.
func BenchmarkParseFormats(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	recs := make([]parsefmt.Record, 5000)
	for i := range recs {
		recs[i] = parsefmt.Record{
			AdID: r.Uint64() % 1000, EventType: r.Uint64() % 3,
			UserID: r.Uint64() % 100000, IP: r.Uint64(), EventTime: r.Uint64() % 1e6,
		}
	}
	for _, f := range []parsefmt.Format{parsefmt.JSON, parsefmt.PB, parsefmt.Text} {
		data := parsefmt.Encode(f, recs)
		b.Run(f.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := parsefmt.Decode(f, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
