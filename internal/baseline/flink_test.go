package baseline

import (
	"testing"

	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

func src(name string) engine.SourceConfig {
	return engine.SourceConfig{
		Name:           name,
		Rate:           2e6,
		BundleRecords:  1000,
		WindowRecords:  4000,
		WatermarkEvery: 4,
	}
}

func TestFlinkYSBBaselineProducesCounts(t *testing.T) {
	gen := ingress.NewYSB(ingress.YSBConfig{Ads: 100, Campaigns: 10, Seed: 1})
	cfg := FlinkConfig(memsim.KNLConfig(), wm.Fixed(1_000_000))
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := ops.NewCapture()
	op := NewHashWindowCount(ingress.YSBEventType, ingress.YSBAdID, ingress.YSBEventTime,
		ingress.YSBEventView, gen.CampaignTable())
	nodes := e.Chain(op, sink)
	e.AddSource(gen, src("ysb"), nodes[0], 0)
	stats, err := e.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed == 0 || len(sink.Rows) == 0 {
		t.Fatal("flink baseline produced nothing")
	}
	for _, r := range sink.Rows {
		if r.Key >= 10 {
			t.Fatalf("campaign %d out of range", r.Key)
		}
		if r.Val == 0 {
			t.Fatal("zero count emitted")
		}
	}
}

func TestBaselineConfigs(t *testing.T) {
	m := memsim.KNLConfig()
	w := wm.Fixed(1000)
	if c := FlinkConfig(m, w); c.UseKPA || c.Placement != engine.PlacementCache {
		t.Error("flink config wrong")
	}
	if c := DRAMOnlyConfig(m, w); !c.UseKPA || c.Placement != engine.PlacementDRAM {
		t.Error("dram-only config wrong")
	}
	if c := CachingConfig(m, w); !c.UseKPA || c.Placement != engine.PlacementCache {
		t.Error("caching config wrong")
	}
	if c := CachingNoKPAConfig(m, w); c.UseKPA || c.Placement != engine.PlacementCache {
		t.Error("caching-nokpa config wrong")
	}
}

func TestFlinkSlowerPerCoreThanStreamBox(t *testing.T) {
	// Qualitative §7.1 check at small scale: with identical offered
	// load and cores, the Flink baseline burns far more virtual time
	// per record. Compare busy time per ingested record.
	run := func(flink bool) float64 {
		gen := ingress.NewYSB(ingress.YSBConfig{Ads: 100, Campaigns: 10, Seed: 1})
		var cfg engine.Config
		if flink {
			cfg = FlinkConfig(memsim.KNLConfig(), wm.Fixed(1_000_000))
		} else {
			cfg = engine.Config{Machine: memsim.KNLConfig(), Win: wm.Fixed(1_000_000), UseKPA: true}
		}
		e, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := ops.NewCapture()
		if flink {
			op := NewHashWindowCount(ingress.YSBEventType, ingress.YSBAdID, ingress.YSBEventTime,
				ingress.YSBEventView, gen.CampaignTable())
			nodes := e.Chain(op, sink)
			e.AddSource(gen, src("ysb"), nodes[0], 0)
		} else {
			filter := &ops.FilterOp{Label: "views", Col: ingress.YSBEventType,
				Keep: func(v uint64) bool { return v == ingress.YSBEventView }}
			extJoin := &ops.ExternalJoinOp{Label: "campaign", KeyCol: ingress.YSBAdID, Table: gen.CampaignTable()}
			window := &ops.WindowOp{TsCol: ingress.YSBEventTime}
			count := ops.NewKeyedAgg("campaigns", ingress.YSBAdID, ingress.YSBAdID, ops.Count())
			nodes := e.Chain(filter, extJoin, window, count, sink)
			e.AddSource(gen, src("ysb"), nodes[0], 0)
		}
		stats, err := e.Run(0.02)
		if err != nil {
			t.Fatal(err)
		}
		if stats.IngestedRecords == 0 {
			t.Fatal("nothing ingested")
		}
		return e.Sim.Stats().CoreBusyTime / float64(stats.IngestedRecords)
	}
	sbx := run(false)
	flink := run(true)
	if flink <= sbx*2 {
		t.Fatalf("flink busy/record (%g) must far exceed streambox (%g)", flink, sbx)
	}
}
