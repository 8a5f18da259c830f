package engine

import (
	"testing"

	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// slowOp keeps at least one task in flight almost continuously,
// regression-testing the epoch-based watermark barriers (a naive
// "wait for idle" design starves watermarks under continuous load).
type slowOp struct{}

func (s *slowOp) Name() string { return "slow" }
func (s *slowOp) InPorts() int { return 1 }
func (s *slowOp) OnInput(ctx *Ctx, port int, in Input) {
	// Each bundle costs ~2x its inter-arrival gap, so with multiple
	// cores the node always has work in flight.
	d := memsim.Demand{}.CPU(int64(in.Rows()) * 2600)
	ctx.Spawn("slow", in.MaxTs(), d, func() []Emission {
		return []Emission{{Port: 0, In: in}}
	})
}
func (s *slowOp) OnWatermark(*Ctx, int, wm.Time) {}

func TestWatermarksTraverseContinuousLoad(t *testing.T) {
	e, _ := New(defaultConfig())
	sink := NewEgressSink("out")
	nodes := e.Chain(&slowOp{}, sink)
	e.AddSource(newTestGen(), defaultSource(), nodes[0], 0)
	stats, err := e.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed < 5 {
		t.Fatalf("only %d windows closed under continuous load (watermark starvation)", stats.WindowsClosed)
	}
	for _, d := range stats.Delays {
		if d < 0 {
			t.Fatal("negative delay")
		}
	}
}

func TestSpecimenScalingConsistency(t *testing.T) {
	// A run at weight W must report ~W times the ingested records and
	// proportionally scaled demands, with identical pipeline results
	// per real record.
	run := func(weight int64) (Stats, *Engine) {
		cfg := defaultConfig()
		cfg.RecordWeight = weight
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewEgressSink("out")
		nodes := e.Chain(&passthroughOp{name: "p"}, sink)
		src := defaultSource()
		e.AddSource(newTestGen(), src, nodes[0], 0)
		stats, err := e.Run(0.05)
		if err != nil {
			t.Fatal(err)
		}
		return stats, e
	}
	s1, e1 := run(1)
	s10, e10 := run(10)
	// Offered virtual rate is identical; weight shrinks real records.
	ratio := float64(s10.IngestedRecords) / float64(s1.IngestedRecords)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("virtual ingest should match across weights: %d vs %d", s10.IngestedRecords, s1.IngestedRecords)
	}
	// Memory traffic in virtual bytes should also be comparable.
	b1 := e1.Sim.Stats().BytesByTier[memsim.DRAM]
	b10 := e10.Sim.Stats().BytesByTier[memsim.DRAM]
	if b1 == 0 || b10 == 0 {
		t.Fatal("no traffic recorded")
	}
	br := float64(b10) / float64(b1)
	if br < 0.7 || br > 1.3 {
		t.Fatalf("virtual traffic should match across weights: %d vs %d", b10, b1)
	}
}

func TestBackpressurePausesSource(t *testing.T) {
	// Tiny HBM and DRAM force exhaustion; the engine must pause
	// ingestion rather than fail, and resume when pressure clears.
	cfg := defaultConfig()
	cfg.Machine.Tiers[memsim.HBM].Capacity = 1 << 20
	cfg.Machine.Tiers[memsim.DRAM].Capacity = 8 << 20
	cfg.ReservedHBM = 1 << 18
	e, _ := New(cfg)
	sink := NewEgressSink("out")
	nodes := e.Chain(&passthroughOp{name: "p"}, sink)
	src := defaultSource()
	src.Rate = 5e6
	e.AddSource(newTestGen(), src, nodes[0], 0)
	stats, err := e.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// The run must survive and make progress despite tiny memory.
	if stats.IngestedRecords == 0 {
		t.Fatal("no progress under memory pressure")
	}
}

func TestSourceStopAndRateChange(t *testing.T) {
	e, _ := New(defaultConfig())
	sink := NewEgressSink("out")
	nodes := e.Chain(&passthroughOp{name: "p"}, sink)
	drv, err := e.AddSource(newTestGen(), defaultSource(), nodes[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Sim.After(0.01, func(now float64) { drv.cfg.Rate = 2e6 })
	e.Sim.After(0.02, func(now float64) { drv.stopped = true })
	stats, err := e.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestedRecords == 0 {
		t.Fatal("source emitted nothing")
	}
	// Stopped at 20 ms: roughly 1e6*0.01 + 2e6*0.01 = 30k records.
	if stats.IngestedRecords > 60_000 {
		t.Fatalf("source did not stop: %d records", stats.IngestedRecords)
	}
}

func TestEgressSinkDedupesWatermarks(t *testing.T) {
	e, _ := New(defaultConfig())
	sink := NewEgressSink("out")
	n := e.AddOperator(sink)
	ctx := n.ctx
	e.wmEmitTime[100] = 0
	sink.OnWatermark(ctx, 0, 100)
	sink.OnWatermark(ctx, 0, 100) // repeat must not double-count
	sink.OnWatermark(ctx, 0, 50)  // regression must be ignored
	if got := len(e.stats.Delays); got != 1 {
		t.Fatalf("delays recorded = %d, want 1", got)
	}
}

func TestUrgentPoolServesUrgentUnderPressure(t *testing.T) {
	cfg := defaultConfig()
	cfg.Machine.Tiers[memsim.HBM].Capacity = 1 << 20
	cfg.ReservedHBM = 512 << 10
	e, _ := New(cfg)
	// Fill the general HBM region.
	if _, err := e.Pool.Alloc(memsim.HBM, 512<<10); err != nil {
		t.Fatal(err)
	}
	tier, al := e.planPlacement(Urgent)
	if tier != memsim.HBM {
		t.Fatal("urgent must plan HBM")
	}
	gotTier, a, err := al.AllocKPA(4 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if gotTier != memsim.HBM {
		t.Fatalf("urgent allocation landed on %v", gotTier)
	}
	a.Free()
}

func TestPlanPlacementModes(t *testing.T) {
	mk := func(p Placement) *Engine {
		cfg := defaultConfig()
		cfg.Placement = p
		e, _ := New(cfg)
		return e
	}
	if tier, _ := mk(PlacementDRAM).planPlacement(Urgent); tier != memsim.DRAM {
		t.Error("DRAM mode must plan DRAM even for urgent")
	}
	if tier, _ := mk(PlacementCache).planPlacement(Low); tier != memsim.HBM {
		t.Error("cache mode must plan nominal HBM")
	}
	e := mk(PlacementManaged)
	e.knob.KLow, e.knob.KHigh = 0, 0
	if tier, _ := e.planPlacement(Low); tier != memsim.DRAM {
		t.Error("zero knob must plan DRAM for Low")
	}
	if tier, _ := e.planPlacement(Urgent); tier != memsim.HBM {
		t.Error("urgent must plan HBM")
	}
}
