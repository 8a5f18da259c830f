// Command sbx-bench regenerates the paper's evaluation figures on the
// simulated hardware and prints one table per figure. (The native
// backend's wall-clock numbers come from benchmark/run.sh.)
package main

import (
	"flag"
	"fmt"
	"os"

	"streambox/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "figure to run: fig2|fig7|fig8|fig9|fig10|fig11|figmerge|figpanes|all")
	quick := flag.Bool("quick", false, "use the fast smoke-test scale")
	flag.Parse()

	sc := experiments.PaperScale()
	cores := experiments.PaperCores
	if *quick {
		sc = experiments.QuickScale()
		cores = []int{2, 16, 64}
	}
	out := os.Stdout
	run := func(name string, fn func()) {
		if *exp == "all" || *exp == name {
			fn()
		}
	}
	var ysbKNL float64
	run("fig2", func() {
		cfg := experiments.DefaultFig2()
		if *quick {
			cfg.Pairs = 10_000_000
			cfg.Cores = cores
		}
		experiments.RenderFig2(out, experiments.Fig2(cfg))
	})
	run("fig7", func() {
		rows := experiments.Fig7(sc, cores)
		experiments.RenderFig7(out, rows)
		fmt.Fprintf(out, "per-core StreamBox-HBM/Flink (KNL 10GbE): %.1fx\n",
			experiments.Fig7PerCoreRatio(rows))
		for _, r := range rows {
			if r.System == "StreamBox-HBM KNL RDMA" && r.MRecSec > ysbKNL {
				ysbKNL = r.MRecSec
			}
		}
	})
	run("fig8", func() { experiments.RenderFig8(out, experiments.Fig8(sc, cores)) })
	run("fig9", func() {
		rows := experiments.Fig9(sc, cores)
		experiments.RenderFig9(out, rows)
		d, c, k := experiments.Fig9Ratios(rows)
		fmt.Fprintf(out, "DRAM-only loss: %.0f%%  caching loss: %.0f%%  NoKPA factor: %.1fx\n",
			d*100, c*100, k)
	})
	run("fig10", func() {
		a := experiments.Fig10a(sc, nil)
		experiments.RenderFig10(out, "Figure 10a: increasing ingestion rate", "Mrec/s", a)
		b := experiments.Fig10b(sc, nil)
		experiments.RenderFig10(out, "Figure 10b: delaying watermark arrival", "bundles between WMs", b)
	})
	run("fig11", func() { experiments.RenderFig11(out, experiments.Fig11(ysbKNL)) })
	run("figmerge", func() {
		cfg := experiments.DefaultFigMerge()
		if *quick {
			cfg.Pairs = 8_000_000
			cfg.Cores = cores
		}
		experiments.RenderFigMerge(out, experiments.FigMerge(cfg))
	})
	run("figpanes", func() {
		cfg := experiments.DefaultFigPanes()
		if *quick {
			cfg.Records = 8_000_000
		}
		experiments.RenderFigPanes(out, experiments.FigPanes(cfg))
	})
}
