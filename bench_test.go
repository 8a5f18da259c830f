// Benchmarks regenerating each figure of the paper's evaluation at a
// reduced scale (run `go test -bench=Fig -benchtime=1x`; use
// cmd/sbx-bench for paper-scale tables), plus real wall-clock
// benchmarks of the grouping kernels the engine is built on.
package streambox_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	streambox "streambox"
	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/experiments"
	"streambox/internal/ingress"
	"streambox/internal/ops"
	"streambox/internal/parsefmt"
	"streambox/internal/runtime"
	"streambox/internal/wm"
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

// BenchmarkNativeBackend measures the native multicore backend end to
// end on the quickstart workload (KV → Window → SumPerKey): ingest,
// KPA extraction, parallel sort, merge tree and windowed reduction on
// real goroutines. The Mrec/s metric is real wall-clock throughput.
func BenchmarkNativeBackend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
		p.Source(streambox.KV(streambox.KVConfig{Keys: 1 << 10, Seed: 1}),
			streambox.DefaultSource(20e6)).
			Window(2).
			SumPerKey(0, 1).
			Sink("out")
		rep, err := streambox.Run(p, streambox.RunConfig{
			Backend:  streambox.Native,
			Duration: 0.1, // 2M records
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Throughput/1e6, "Mrec/s")
	}
}

// BenchmarkNativePipeline runs the native backend end to end and
// reports the allocator-focused metrics alongside throughput: heap
// allocations per ingested record and accumulated GC pause time. These
// are the figures the mempool slab recycler drives down; run with
// GOGC=off (see ci.yml) to isolate allocator wins from collector
// scheduling. One iteration ingests 2M records.
func BenchmarkNativePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
		p.Source(streambox.KV(streambox.KVConfig{Keys: 1 << 10, Seed: 1}),
			streambox.DefaultSource(20e6)).
			Window(2).
			SumPerKey(0, 1).
			Sink("out")
		rep, err := streambox.Run(p, streambox.RunConfig{
			Backend:  streambox.Native,
			Duration: 0.1, // 2M records
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Throughput/1e6, "Mrec/s")
		b.ReportMetric(rep.AllocsPerRecord, "allocs/rec")
		b.ReportMetric(float64(rep.GCPauseNs)/1e6, "GCpause-ms")
	}
}

// BenchmarkWindowClose runs the native pipeline on fixed windows of 1 Mi
// records over 1 024 keys, with bundles sized for two run counts per
// window. runs=16: every window closes over 16 sorted runs through the
// fused range-partitioned merge-reduce; B/rec is where a materializing
// close would show (one KPA copy per merge level). runs=246: the shape a
// network window has (one run per 4 096-record frame) — every 32 runs
// seal into a per-key partial run while the window fills, so close
// merges 7 partials and the 22 runs left over, and close-pairs/rec reads
// about 1 where compacting 246 runs at close read 2. The kernel
// comparisons live in internal/kpa: BenchmarkMergeReduce (fused vs
// tree) and BenchmarkSealVsCompact.
func BenchmarkWindowClose(b *testing.B) {
	const windowRecords = 1 << 20
	for _, runs := range []int{16, 246} {
		b.Run(fmt.Sprintf("runs=%d", runs), func(b *testing.B) {
			bundleRecords := (windowRecords + runs - 1) / runs
			for i := 0; i < b.N; i++ {
				plan := runtime.Plan{
					Gen: ingress.NewKV(ingress.KVConfig{Keys: 1 << 10, Seed: 1}),
					Source: engine.SourceConfig{
						Name: "close", Rate: 2 * windowRecords, BundleRecords: bundleRecords,
						WindowRecords: windowRecords, WatermarkEvery: runs,
					},
					Win:          wm.Fixed(1_000_000),
					TotalRecords: 2 * windowRecords,
					TsCol:        2, KeyCol: 0, ValCol: 1,
					NewAgg: ops.Sum(), Label: "close",
				}
				rep, err := runtime.Run(plan, runtime.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Throughput/1e6, "Mrec/s")
				b.ReportMetric(rep.AllocBytesPerRecord, "B/rec")
				b.ReportMetric(float64(rep.ClosePairs)/float64(rep.IngestedRecords), "close-pairs/rec")
				b.ReportMetric(float64(rep.CloseP99Nanos)/1e6, "close-p99-ms")
			}
		})
	}
}

// hashedKV is a uniform KV stream over 2^20 keys spread across all 64
// bits (an odd multiplier is a bijection), so run formation pays every
// radix pass and a pane holds about as many distinct keys as records.
type hashedKV struct{ rng *rand.Rand }

func (hashedKV) Schema() bundle.Schema {
	return bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}}
}

func (g hashedKV) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	span := tsHi - tsLo
	for i := 0; i < n; i++ {
		key := g.rng.Uint64() % (1 << 20) * 0x9E3779B97F4A7C15
		bd.Append(key, g.rng.Uint64()%(1<<20), tsLo+wm.Time(i)*span/wm.Time(n))
	}
}

// BenchmarkSlidingPipeline runs the native backend end to end on a
// sliding-window workload at overlap Size/Slide = 8: each record is
// extracted and sorted once into a pane, and each pane is sealed once
// into per-key partials that its 8 covering windows merge. Two rows:
// 1 024 keys, where partials are ~1 % of the pairs and close all but
// disappears, and 2^20 hashed keys, where a partial run is about as
// long as the raw runs it replaces and sealing still trades 8
// dereferencing passes (and 8 fan-in compactions) for one plus 8
// sequential ones. extract-Mpairs/s is logical (record, window)
// assignments per second of extraction+run-formation worker time;
// state-B/rec is peak live window-state bytes per record of one
// window; close-pairs/rec is pairs streamed through close's merges per
// record — ~1 with sealing, ~16 if every window merged raw runs.
func BenchmarkSlidingPipeline(b *testing.B) {
	const (
		records       = 2e6
		windowRecords = 1_000_000
	)
	rows := []struct {
		name string
		gen  func() engine.Generator
	}{
		{"keys=1024", func() engine.Generator { return ingress.NewKV(ingress.KVConfig{Keys: 1 << 10, Seed: 1}) }},
		{"keys=1Mi-hashed", func() engine.Generator { return hashedKV{rand.New(rand.NewSource(1))} }},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := runtime.Plan{
					Gen: row.gen(),
					Source: engine.SourceConfig{
						Name: "sliding", Rate: records, BundleRecords: 10_000,
						WindowRecords: windowRecords, WatermarkEvery: 25,
					},
					Win:          wm.Sliding(1_000_000, 125_000), // overlap 8
					TotalRecords: int64(records),
					TsCol:        2, KeyCol: 0, ValCol: 1,
					NewAgg: ops.Sum(), Label: "sliding",
				}
				rep, err := runtime.Run(plan, runtime.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.Throughput/1e6, "Mrec/s")
				if rep.ExtractNanos > 0 {
					b.ReportMetric(float64(rep.ExtractedPairs)/float64(rep.ExtractNanos)*1e3, "extract-Mpairs/s")
				}
				b.ReportMetric(float64(rep.PeakWindowStateTotalBytes)/windowRecords, "state-B/rec")
				b.ReportMetric(float64(rep.ClosePairs)/float64(rep.IngestedRecords), "close-pairs/rec")
			}
		})
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

// BenchmarkSortPairs measures the single-threaded merge-sort kernel.
func BenchmarkSortPairs(b *testing.B) {
	src := benchPairs(1 << 20)
	buf := make([]algo.Pair, len(src))
	b.SetBytes(int64(len(src)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		algo.SortPairs(buf)
	}
}

// BenchmarkParallelSortPairs measures the parallel merge-sort kernel
// (the paper's chunk-sort + pairwise-merge structure, real goroutines).
func BenchmarkParallelSortPairs(b *testing.B) {
	src := benchPairs(1 << 22)
	buf := make([]algo.Pair, len(src))
	b.SetBytes(int64(len(src)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		algo.ParallelSortPairs(buf, 8)
	}
}

// BenchmarkMergePairs measures the two-way merge kernel.
func BenchmarkMergePairs(b *testing.B) {
	a := benchPairs(1 << 19)
	c := benchPairs(1 << 19)
	algo.SortPairs(a)
	algo.SortPairs(c)
	b.SetBytes(int64(len(a)+len(c)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.MergePairs(a, c)
	}
}

// BenchmarkHashGroup measures the open-addressing hash-grouping
// baseline kernel.
func BenchmarkHashGroup(b *testing.B) {
	pairs := benchPairs(1 << 20)
	for i := range pairs {
		pairs[i].Key %= 1 << 14
	}
	b.SetBytes(int64(len(pairs)) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.HashGroup(pairs)
	}
}

// BenchmarkKPAWidth is the ablation for the "one resident column"
// design choice (paper §4.1): grouping 16-byte key/pointer pairs versus
// moving full-width records, measured on the real sort kernel.
func BenchmarkKPAWidth(b *testing.B) {
	b.Run("pairs-16B", func(b *testing.B) {
		src := benchPairs(1 << 19)
		buf := make([]algo.Pair, len(src))
		b.SetBytes(int64(len(src)) * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			algo.SortPairs(buf)
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
			sort.Slice(buf, func(x, y int) bool { return buf[x].key < buf[y].key })
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
