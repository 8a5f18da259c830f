package engine

import (
	"math"
	"testing"

	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// testGen emits 3-column records (key, value, ts) with sequential keys.
type testGen struct {
	schema bundle.Schema
	next   uint64
}

func newTestGen() *testGen {
	return &testGen{schema: bundle.Schema{NumCols: 3, TsCol: 2}}
}

func (g *testGen) Schema() bundle.Schema { return g.schema }

func (g *testGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	span := tsHi - tsLo
	for i := 0; i < n; i++ {
		ts := tsLo + wm.Time(i)*span/wm.Time(n)
		bd.Append(g.next%64, g.next%100, ts)
		g.next++
	}
}

// passthroughOp forwards inputs through a task with a small demand.
type passthroughOp struct{ name string }

func (p *passthroughOp) Name() string { return p.name }
func (p *passthroughOp) InPorts() int { return 1 }
func (p *passthroughOp) OnInput(ctx *Ctx, port int, in Input) {
	d := memsim.Demand{}.CPU(int64(in.Rows()))
	ctx.Spawn(p.name, in.MaxTs(), d, func() []Emission {
		return []Emission{{Port: 0, In: in}}
	})
}
func (p *passthroughOp) OnWatermark(*Ctx, int, wm.Time) {}

func defaultConfig() Config {
	return Config{
		Machine: memsim.KNLConfig(),
		Win:     wm.Fixed(1_000_000), // 1e6 event-time units per window
		UseKPA:  true,
	}
}

func defaultSource() SourceConfig {
	return SourceConfig{
		Name:           "test",
		Rate:           1e6,
		BundleRecords:  1000,
		WindowRecords:  10_000, // 10 bundles per window
		WatermarkEvery: 10,
	}
}

func TestEngineEndToEnd(t *testing.T) {
	e, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sink := NewEgressSink("out")
	nodes := e.Chain(&passthroughOp{name: "pass"}, sink)
	if _, err := e.AddSource(newTestGen(), defaultSource(), nodes[0], 0); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(0.1) // 100 ms virtual: 100k records offered
	if err != nil {
		t.Fatal(err)
	}
	if stats.IngestedRecords == 0 {
		t.Fatal("nothing ingested")
	}
	if sink.Records == 0 {
		t.Fatal("nothing reached the sink")
	}
	if sink.Records > stats.IngestedRecords {
		t.Fatalf("sink %d > ingested %d", sink.Records, stats.IngestedRecords)
	}
	// ~100 ms at 1M rec/s = ~100k records ingested (modulo task timing).
	if stats.IngestedRecords < 50_000 {
		t.Fatalf("ingested only %d records", stats.IngestedRecords)
	}
	if len(stats.Delays) == 0 {
		t.Fatal("no output delays recorded (watermarks did not traverse)")
	}
	for _, d := range stats.Delays {
		if d < 0 {
			t.Fatalf("negative delay %g", d)
		}
	}
}

func TestEngineWatermarkOrdering(t *testing.T) {
	// The sink's watermark must never overtake the data: every record
	// delivered after watermark W must have ts >= ... — here we check
	// monotonicity and that delays are recorded once per watermark.
	e, _ := New(defaultConfig())
	sink := NewEgressSink("out")
	nodes := e.Chain(&passthroughOp{name: "p1"}, &passthroughOp{name: "p2"}, sink)
	e.AddSource(newTestGen(), defaultSource(), nodes[0], 0)
	stats, err := e.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed != len(stats.Delays) {
		t.Fatalf("windows %d != delays %d", stats.WindowsClosed, len(stats.Delays))
	}
}

func TestEngineInvalidConfigs(t *testing.T) {
	if _, err := New(Config{Machine: memsim.KNLConfig()}); err == nil {
		t.Fatal("missing windowing must fail")
	}
	bad := defaultConfig()
	bad.Machine.Cores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid machine must fail")
	}
	e, _ := New(defaultConfig())
	n := e.AddOperator(&passthroughOp{name: "p"})
	if _, err := e.AddSource(newTestGen(), SourceConfig{}, n, 0); err == nil {
		t.Fatal("invalid source config must fail")
	}
}

func TestEngineConnectBadPort(t *testing.T) {
	e, _ := New(defaultConfig())
	a := e.AddOperator(&passthroughOp{name: "a"})
	b := e.AddOperator(&passthroughOp{name: "b"})
	e.Connect(a, 0, b, 5) // passthrough has 1 input port
	if len(e.stats.Errors) == 0 {
		t.Fatal("bad port must record an error")
	}
}

func TestTagFor(t *testing.T) {
	w := wm.Fixed(100)
	target := wm.Time(500)
	cases := []struct {
		ts   wm.Time
		want Tag
	}{
		{450, Urgent}, // window [400,500): closed at target
		{550, Urgent}, // window [500,600): the very next to close
		{650, High},   // one window out
		{750, High},   // two windows out
		{850, Low},
		{10_000, Low},
	}
	for _, c := range cases {
		if got := tagFor(w, target, c.ts); got != c.want {
			t.Errorf("tagFor(ts=%d) = %v, want %v", c.ts, got, c.want)
		}
	}
	if tagFor(wm.Windowing{}, 0, 0) != Low {
		t.Error("invalid windowing must default to Low")
	}
}

func TestTagString(t *testing.T) {
	if Urgent.String() != "Urgent" || High.String() != "High" || Low.String() != "Low" {
		t.Error("tag names wrong")
	}
	if Urgent.Priority() <= High.Priority() || High.Priority() <= Low.Priority() {
		t.Error("priorities must order Urgent > High > Low")
	}
}

func TestKnobDecreasesUnderHBMPressure(t *testing.T) {
	k := NewKnob(1)
	if k.KLow != 1 || k.KHigh != 1 {
		t.Fatal("initial knob must be {1,1}")
	}
	// HBM capacity pressed, DRAM bandwidth fine: k_low falls first.
	for i := 0; i < 10; i++ {
		k.Update(0.95, 0.2, true)
	}
	if math.Abs(k.KLow-0.5) > 1e-9 {
		t.Fatalf("k_low = %g, want 0.5 after 10 steps", k.KLow)
	}
	if k.KHigh != 1 {
		t.Fatal("k_high must not move while k_low > 0")
	}
	for i := 0; i < 25; i++ {
		k.Update(0.95, 0.2, true)
	}
	if k.KLow != 0 {
		t.Fatalf("k_low = %g, want 0", k.KLow)
	}
	if k.KHigh >= 1 {
		t.Fatal("k_high must fall once k_low exhausted (with delay headroom)")
	}
}

func TestKnobRespectsDelayHeadroom(t *testing.T) {
	k := NewKnob(1)
	for i := 0; i < 30; i++ {
		k.Update(0.95, 0.2, false) // no headroom
	}
	if k.KLow != 0 {
		t.Fatalf("k_low = %g", k.KLow)
	}
	if k.KHigh != 1 {
		t.Fatal("k_high must hold without delay headroom")
	}
}

func TestKnobRecoversWhenDRAMPressed(t *testing.T) {
	k := NewKnob(1)
	for i := 0; i < 40; i++ {
		k.Update(0.95, 0.2, true)
	}
	lowBefore := k.KLow
	highBefore := k.KHigh
	// Now DRAM bandwidth is the bottleneck and HBM has room.
	for i := 0; i < 40; i++ {
		k.Update(0.3, 0.9, true)
	}
	if k.KHigh <= highBefore && k.KLow <= lowBefore {
		t.Fatal("knob must shift back toward HBM in zone 3")
	}
	if k.KHigh != 1 || k.KLow != 1 {
		t.Fatalf("knob must fully recover, got {%g,%g}", k.KLow, k.KHigh)
	}
}

func TestKnobBalancedZoneStable(t *testing.T) {
	k := NewKnob(1)
	k.KLow = 0.5
	for i := 0; i < 10; i++ {
		k.Update(0.7, 0.5, true) // diagonal zone: no change
	}
	if k.KLow != 0.5 {
		t.Fatalf("k_low moved in balanced zone: %g", k.KLow)
	}
}

func TestKnobWantHBMTags(t *testing.T) {
	k := NewKnob(7)
	// Urgent always wants HBM regardless of knob state.
	k.KLow, k.KHigh = 0, 0
	for i := 0; i < 10; i++ {
		if !k.WantHBM(Urgent) {
			t.Fatal("urgent must always want HBM")
		}
		if k.WantHBM(High) || k.WantHBM(Low) {
			t.Fatal("zero knob must never want HBM for High/Low")
		}
	}
	k.KLow, k.KHigh = 1, 1
	for i := 0; i < 10; i++ {
		if !k.WantHBM(High) || !k.WantHBM(Low) {
			t.Fatal("unit knob must always want HBM")
		}
	}
}

func TestPlacementAllocatorModes(t *testing.T) {
	mk := func(p Placement) *Engine {
		cfg := defaultConfig()
		cfg.Placement = p
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// DRAM-only.
	e := mk(PlacementDRAM)
	tier, a, err := (&placementAllocator{e: e, tag: Urgent}).AllocKPA(4096)
	if err != nil || tier != memsim.DRAM {
		t.Fatalf("DRAM mode: tier=%v err=%v", tier, err)
	}
	a.Free()
	// Cache mode reports HBM but charges DRAM.
	e = mk(PlacementCache)
	tier, a, err = (&placementAllocator{e: e, tag: Low}).AllocKPA(4096)
	if err != nil || tier != memsim.HBM {
		t.Fatalf("cache mode: tier=%v err=%v", tier, err)
	}
	if e.Pool.Used(memsim.DRAM) == 0 {
		t.Fatal("cache mode must charge DRAM capacity")
	}
	a.Free()
	// Managed: urgent uses HBM (reserved pool).
	e = mk(PlacementManaged)
	tier, a, err = (&placementAllocator{e: e, tag: Urgent}).AllocKPA(4096)
	if err != nil || tier != memsim.HBM {
		t.Fatalf("managed urgent: tier=%v err=%v", tier, err)
	}
	a.Free()
}

func TestPlacementSpillsWhenHBMFull(t *testing.T) {
	cfg := defaultConfig()
	cfg.Machine.Tiers[memsim.HBM].Capacity = 8 << 10
	cfg.ReservedHBM = 4 << 10
	e, _ := New(cfg)
	al := &placementAllocator{e: e, tag: High}
	// First alloc takes the general HBM region.
	tier, _, err := al.AllocKPA(4096)
	if err != nil || tier != memsim.HBM {
		t.Fatalf("first: tier=%v err=%v", tier, err)
	}
	// Second spills to DRAM (knob wants HBM but it is full).
	tier, _, err = al.AllocKPA(4096)
	if err != nil {
		t.Fatal(err)
	}
	if tier != memsim.DRAM {
		t.Fatalf("expected spill to DRAM, got %v", tier)
	}
}

func TestCacheModeDemandTransform(t *testing.T) {
	cfg := defaultConfig()
	cfg.Placement = PlacementCache
	e, _ := New(cfg)
	d := memsim.Demand{}.Seq(memsim.HBM, 1000).CPU(10).Rand(memsim.HBM, 100, 2)
	out := e.transformDemand(d)
	bytes := out.TotalBytes()
	// Each HBM phase splits into its hits from HBM, its misses from
	// DRAM and the misses' fill into HBM.
	seqMiss := 1000 - int64(1000*cacheHitFrac)
	randMiss := 100 - int64(100*cacheHitFrac)
	if want := seqMiss + randMiss; bytes[memsim.DRAM] != want {
		t.Errorf("DRAM bytes = %d, want %d", bytes[memsim.DRAM], want)
	}
	if bytes[memsim.HBM] != 1100 {
		t.Errorf("HBM bytes = %d, want 1100", bytes[memsim.HBM])
	}
	if out.TotalCPUOps() != 10 {
		t.Error("CPU phases must pass through")
	}
	// Managed mode is identity.
	e2, _ := New(defaultConfig())
	out2 := e2.transformDemand(d)
	if len(out2.Phases) != len(d.Phases) {
		t.Error("managed transform must be identity")
	}
}

func TestGroupDemandScaling(t *testing.T) {
	schema := bundle.Schema{NumCols: 7, TsCol: 0} // 56-byte records
	d := memsim.Demand{}.Seq(memsim.HBM, 1600).CPU(5)
	// KPA mode: unchanged.
	e, _ := New(defaultConfig())
	ctx := &Ctx{e: e}
	if got := ctx.GroupDemand(d, schema); got.TotalBytes()[memsim.HBM] != 1600 {
		t.Error("KPA mode must not scale")
	}
	// NoKPA: scaled by 56/16 = 3.5.
	cfg := defaultConfig()
	cfg.UseKPA = false
	e2, _ := New(cfg)
	ctx2 := &Ctx{e: e2}
	got := ctx2.GroupDemand(d, schema)
	if got.TotalBytes()[memsim.HBM] != 5600 {
		t.Errorf("NoKPA bytes = %d, want 5600", got.TotalBytes()[memsim.HBM])
	}
	if got.TotalCPUOps() != 5 {
		t.Error("CPU ops must not scale")
	}
}

func TestEngineMonitorSeries(t *testing.T) {
	cfg := defaultConfig()
	cfg.RecordSeries = true
	e, _ := New(cfg)
	sink := NewEgressSink("out")
	nodes := e.Chain(&passthroughOp{name: "p"}, sink)
	e.AddSource(newTestGen(), defaultSource(), nodes[0], 0)
	stats, err := e.Run(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Series) < 5 {
		t.Fatalf("series samples = %d, want >= 5 (10 ms cadence over 100 ms)", len(stats.Series))
	}
	for i := 1; i < len(stats.Series); i++ {
		if stats.Series[i].T <= stats.Series[i-1].T {
			t.Fatal("series must be time-ordered")
		}
	}
}

func TestEngineTaskPanicIsRecorded(t *testing.T) {
	e, _ := New(defaultConfig())
	n := e.AddOperator(&passthroughOp{name: "p"})
	e.spawn(n, "boom", Low, memsim.Demand{}, func() []Emission {
		panic("kaboom")
	}, nil)
	e.Sim.Run()
	if len(e.stats.Errors) == 0 {
		t.Fatal("panic must be recorded as an error")
	}
}

// kpaForwardOp extracts a KPA from each bundle and forwards it, testing
// allocator integration and Input.Release plumbing.
type kpaForwardOp struct{}

func (k *kpaForwardOp) Name() string { return "kpafwd" }
func (k *kpaForwardOp) InPorts() int { return 1 }
func (k *kpaForwardOp) OnInput(ctx *Ctx, port int, in Input) {
	b := in.B
	ts := in.MaxTs()
	ctx.Spawn("extract", ts, memsim.Demand{}.Seq(memsim.DRAM, b.Bytes()), func() []Emission {
		kp, err := kpa.Extract(b, 0, ctx.AllocTagged(ctx.Tag(ts)))
		if err != nil {
			ctx.Errorf("extract: %v", err)
			in.Release()
			return nil
		}
		in.Release() // KPA holds its own reference now
		return []Emission{{Port: 0, In: Input{K: kp}}}
	})
}
func (k *kpaForwardOp) OnWatermark(*Ctx, int, wm.Time) {}

func TestEngineKPAFlowAndReclaim(t *testing.T) {
	e, _ := New(defaultConfig())
	sink := NewEgressSink("out")
	nodes := e.Chain(&kpaForwardOp{}, sink)
	e.AddSource(newTestGen(), defaultSource(), nodes[0], 0)
	stats, err := e.Run(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Records == 0 {
		t.Fatal("no KPAs reached sink")
	}
	_ = stats
	// After the run, every delivered KPA was released by the sink, so
	// all bundles must be reclaimed and pool usage near zero.
	if live := e.Reg.Live(); live > 2 { // at most in-flight tail bundles
		t.Fatalf("%d bundles leaked", live)
	}
}
