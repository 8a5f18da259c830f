package memsim

import (
	"math"
	"testing"
	"testing/quick"
)

// Empty reports whether the demand has no phases.
func (d Demand) Empty() bool { return len(d.Phases) == 0 }

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestConfigValidate(t *testing.T) {
	if err := KNLConfig().Validate(); err != nil {
		t.Fatalf("KNL config invalid: %v", err)
	}
	if err := X56Config().Validate(); err != nil {
		t.Fatalf("X56 config invalid: %v", err)
	}
	bad := KNLConfig()
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero cores")
	}
	bad = KNLConfig()
	bad.Tiers[HBM].Bandwidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero bandwidth")
	}
	bad = KNLConfig()
	bad.Tiers[DRAM].LatencyNS = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative latency")
	}
	bad = KNLConfig()
	bad.CacheLine = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero cache line")
	}
}

func TestTable3Configs(t *testing.T) {
	knl := KNLConfig()
	if knl.Cores != 64 {
		t.Errorf("KNL cores = %d, want 64", knl.Cores)
	}
	if knl.Tier(HBM).Capacity != 16*gib {
		t.Errorf("KNL HBM capacity = %d, want 16 GiB", knl.Tier(HBM).Capacity)
	}
	if knl.Tier(DRAM).Capacity != 96*gib {
		t.Errorf("KNL DRAM capacity = %d, want 96 GiB", knl.Tier(DRAM).Capacity)
	}
	if knl.Tier(HBM).Bandwidth != 375e9 {
		t.Errorf("KNL HBM bandwidth = %g, want 375e9", knl.Tier(HBM).Bandwidth)
	}
	if knl.Tier(DRAM).Bandwidth != 80e9 {
		t.Errorf("KNL DRAM bandwidth = %g, want 80e9", knl.Tier(DRAM).Bandwidth)
	}
	if knl.Tier(HBM).LatencyNS <= knl.Tier(DRAM).LatencyNS {
		t.Error("paper: HBM latency must exceed DRAM latency on KNL")
	}
	if knl.RDMABW != 5e9 {
		t.Errorf("KNL RDMA bandwidth = %g, want 5e9 (40 Gb/s)", knl.RDMABW)
	}
	x := X56Config()
	if x.Cores != 56 {
		t.Errorf("X56 cores = %d, want 56", x.Cores)
	}
	if x.Tier(HBM).Capacity != 0 {
		t.Error("X56 must have no HBM")
	}
	if x.ClockHz != 2.0e9 {
		t.Errorf("X56 clock = %g, want 2 GHz", x.ClockHz)
	}
}

func TestTierString(t *testing.T) {
	if HBM.String() != "HBM" || DRAM.String() != "DRAM" {
		t.Error("tier names wrong")
	}
	if Tier(9).String() != "Tier(9)" {
		t.Error("unknown tier formatting wrong")
	}
	if Sequential.String() != "seq" || Random.String() != "rand" {
		t.Error("pattern names wrong")
	}
}

func TestPerCoreRandomBW(t *testing.T) {
	c := KNLConfig()
	// One cacheline per latency at MLP 1.
	want := 64.0 / (172e-9)
	if got := c.PerCoreRandomBW(HBM, 1); !almostEqual(got, want, 1e-9) {
		t.Errorf("PerCoreRandomBW(HBM,1) = %g, want %g", got, want)
	}
	if got := c.PerCoreRandomBW(HBM, 4); !almostEqual(got, 4*want, 1e-9) {
		t.Errorf("MLP must scale linearly")
	}
	if got := c.PerCoreRandomBW(HBM, 0); !almostEqual(got, want, 1e-9) {
		t.Errorf("MLP 0 must clamp to 1")
	}
	// DRAM has lower latency, so per-core random bandwidth is higher.
	if c.PerCoreRandomBW(DRAM, 1) <= c.PerCoreRandomBW(HBM, 1) {
		t.Error("DRAM random per-core bandwidth should exceed HBM's")
	}
}

func TestDemandBuilders(t *testing.T) {
	d := Demand{}.CPU(100).Seq(HBM, 1000).Rand(DRAM, 500, 4).Vec(10)
	if len(d.Phases) != 4 {
		t.Fatalf("phases = %d, want 4", len(d.Phases))
	}
	if d.TotalCPUOps() != 110 {
		t.Errorf("cpu ops = %d, want 110", d.TotalCPUOps())
	}
	b := d.TotalBytes()
	if b[HBM] != 1000 || b[DRAM] != 500 {
		t.Errorf("bytes = %v", b)
	}
	// Zero-size phases are dropped.
	d2 := Demand{}.CPU(0).Seq(HBM, 0).Rand(DRAM, 0, 1)
	if !d2.Empty() {
		t.Error("zero demand should be empty")
	}
	// MLP clamping.
	d3 := Demand{}.Rand(HBM, 10, 0)
	if d3.Phases[0].MLP != 1 {
		t.Error("MLP must clamp to >= 1")
	}
}

func TestMergeReduceDemand(t *testing.T) {
	n := 1 << 20
	d := MergeReduceDemand(HBM, n, 16)
	b := d.TotalBytes()
	// One streaming read of the pairs from the KPA tier, one 8-byte
	// value gather per pair from DRAM — and nothing else: the fused pass
	// writes no intermediate KPA.
	if b[HBM] != int64(n)*PairBytes {
		t.Errorf("HBM bytes = %d, want %d (one streaming read)", b[HBM], int64(n)*PairBytes)
	}
	if b[DRAM] != int64(n)*8 {
		t.Errorf("DRAM bytes = %d, want %d (value gather)", b[DRAM], int64(n)*8)
	}
	// The pairwise path for the same close: log2(16) = 4 merge levels
	// plus a separate reduce sweep. The fused demand must move several
	// times less memory.
	pair := int64(0)
	for i := 0; i < 4; i++ {
		pb := MergeDemand(HBM, n).TotalBytes()
		pair += pb[HBM] + pb[DRAM]
	}
	rb := ReduceKeyedDemand(HBM, n).TotalBytes()
	pair += rb[HBM] + rb[DRAM]
	fused := b[HBM] + b[DRAM]
	if pair < 4*fused {
		t.Errorf("pairwise traffic %d not >= 4x fused %d", pair, fused)
	}
	// Fan-in 1 needs no tree levels; deeper trees cost more compute.
	if MergeReduceDemand(HBM, n, 1).TotalCPUOps() >= MergeReduceDemand(HBM, n, 32).TotalCPUOps() {
		t.Error("loser-tree compute must grow with fan-in")
	}
	if !MergeReduceDemand(HBM, 0, 16).Empty() {
		t.Error("zero pairs must produce an empty demand")
	}
}

func TestPhaseString(t *testing.T) {
	p := Phase{CPUOps: 5}
	if p.String() != "cpu(5 ops)" {
		t.Errorf("got %q", p.String())
	}
	p = Phase{CPUOps: 5, Vector: true}
	if p.String() != "vec(5 ops)" {
		t.Errorf("got %q", p.String())
	}
	p = Phase{Bytes: 7, Tier: HBM, Pattern: Random, MLP: 2}
	if p.String() != "mem(7 B HBM rand mlp=2)" {
		t.Errorf("got %q", p.String())
	}
}

func TestWaterFillEvenSplit(t *testing.T) {
	rates := waterFill([]float64{100, 100, 100, 100}, 200)
	for _, r := range rates {
		if !almostEqual(r, 50, 1e-12) {
			t.Fatalf("rates = %v, want all 50", rates)
		}
	}
}

func TestWaterFillCapped(t *testing.T) {
	// One consumer capped at 10, others split the rest.
	rates := waterFill([]float64{10, 100, 100}, 110)
	if !almostEqual(rates[0], 10, 1e-12) {
		t.Fatalf("capped consumer got %v", rates[0])
	}
	if !almostEqual(rates[1], 50, 1e-12) || !almostEqual(rates[2], 50, 1e-12) {
		t.Fatalf("rates = %v", rates)
	}
}

func TestWaterFillUnderloaded(t *testing.T) {
	rates := waterFill([]float64{10, 20}, 1000)
	if !almostEqual(rates[0], 10, 1e-12) || !almostEqual(rates[1], 20, 1e-12) {
		t.Fatalf("rates = %v, want caps", rates)
	}
}

func TestWaterFillConserves(t *testing.T) {
	f := func(rawCaps []uint16, rawTotal uint32) bool {
		if len(rawCaps) == 0 {
			return true
		}
		caps := make([]float64, len(rawCaps))
		var capSum float64
		for i, c := range rawCaps {
			caps[i] = float64(c%1000) + 1
			capSum += caps[i]
		}
		total := float64(rawTotal%100000) + 1
		rates := waterFill(caps, total)
		var sum float64
		for i, r := range rates {
			if r < 0 || r > caps[i]+1e-9 {
				return false
			}
			sum += r
		}
		want := math.Min(total, capSum)
		return almostEqual(sum, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimSingleCPUTask(t *testing.T) {
	cfg := KNLConfig().WithCores(1)
	s := NewSim(cfg)
	ran := false
	var doneAt float64
	s.Submit(&Task{
		Name:   "t",
		Demand: Demand{}.CPU(1_300_000), // 1e-3 s at 1.3 GHz, IPC 1
		Body:   func() { ran = true },
		OnDone: func(now float64) { doneAt = now },
	})
	s.Run()
	if !ran {
		t.Fatal("body did not run")
	}
	if !almostEqual(doneAt, 1e-3, 1e-6) {
		t.Fatalf("doneAt = %g, want 1e-3", doneAt)
	}
	if s.Stats().TasksRun != 1 {
		t.Fatalf("tasks run = %d", s.Stats().TasksRun)
	}
}

func TestSimVectorFasterThanScalar(t *testing.T) {
	cfg := KNLConfig().WithCores(1)
	runOne := func(d Demand) float64 {
		s := NewSim(cfg)
		var doneAt float64
		s.Submit(&Task{Demand: d, OnDone: func(now float64) { doneAt = now }})
		s.Run()
		return doneAt
	}
	scalar := runOne(Demand{}.CPU(1e6))
	vec := runOne(Demand{}.Vec(1e6))
	if vec >= scalar {
		t.Fatalf("vector (%g) must beat scalar (%g)", vec, scalar)
	}
	if !almostEqual(scalar/vec, cfg.VectorIPC/cfg.IPC, 1e-6) {
		t.Fatalf("speedup = %g, want %g", scalar/vec, cfg.VectorIPC/cfg.IPC)
	}
}

func TestSimMemoryPhaseDuration(t *testing.T) {
	cfg := KNLConfig().WithCores(1)
	s := NewSim(cfg)
	var doneAt float64
	bytes := int64(6e9) // exactly 1 s at the 6 GB/s per-core cap
	s.Submit(&Task{
		Demand: Demand{}.Seq(HBM, bytes),
		OnDone: func(now float64) { doneAt = now },
	})
	s.Run()
	if !almostEqual(doneAt, 1.0, 1e-6) {
		t.Fatalf("doneAt = %g, want 1.0", doneAt)
	}
	if s.stats.BytesByTier[HBM] != bytes {
		t.Fatalf("bytes consumed = %d, want %d", s.stats.BytesByTier[HBM], bytes)
	}
	if s.stats.BytesByTier[DRAM] != 0 {
		t.Fatal("no DRAM traffic expected")
	}
}

func TestSimBandwidthContention(t *testing.T) {
	// 32 tasks streaming DRAM: per-core cap 6 GB/s x 32 = 192 GB/s
	// demand against an 80 GB/s pool, so each gets 2.5 GB/s.
	cfg := KNLConfig().WithCores(64)
	s := NewSim(cfg)
	var last float64
	for i := 0; i < 32; i++ {
		s.Submit(&Task{
			Demand: Demand{}.Seq(DRAM, 2_500_000_000),
			OnDone: func(now float64) { last = now },
		})
	}
	s.Run()
	if !almostEqual(last, 1.0, 1e-6) {
		t.Fatalf("completion = %g, want 1.0 under contention", last)
	}
}

func TestSimNoContentionBelowPool(t *testing.T) {
	// 4 tasks at per-core cap: 24 GB/s < 80 GB/s pool, each runs at cap.
	cfg := KNLConfig().WithCores(64)
	s := NewSim(cfg)
	var last float64
	for i := 0; i < 4; i++ {
		s.Submit(&Task{
			Demand: Demand{}.Seq(DRAM, 6_000_000_000),
			OnDone: func(now float64) { last = now },
		})
	}
	s.Run()
	if !almostEqual(last, 1.0, 1e-6) {
		t.Fatalf("completion = %g, want 1.0 uncontended", last)
	}
}

func TestSimRandomSlowOnHBM(t *testing.T) {
	// The paper's key observation: random access cannot exploit HBM.
	cfg := KNLConfig().WithCores(1)
	run := func(d Demand) float64 {
		s := NewSim(cfg)
		var doneAt float64
		s.Submit(&Task{Demand: d, OnDone: func(now float64) { doneAt = now }})
		s.Run()
		return doneAt
	}
	bytes := int64(1e8)
	seqHBM := run(Demand{}.Seq(HBM, bytes))
	randHBM := run(Demand{}.Rand(HBM, bytes, 1))
	randDRAM := run(Demand{}.Rand(DRAM, bytes, 1))
	if randHBM <= seqHBM {
		t.Fatal("random access must be slower than sequential on HBM")
	}
	if randHBM <= randDRAM {
		t.Fatal("random access must be slower on HBM than DRAM (latency)")
	}
}

func TestSimCoresLimitParallelism(t *testing.T) {
	cfg := KNLConfig().WithCores(2)
	s := NewSim(cfg)
	var finishes []float64
	for i := 0; i < 4; i++ {
		s.Submit(&Task{
			Demand: Demand{}.CPU(1_300_000),
			OnDone: func(now float64) { finishes = append(finishes, now) },
		})
	}
	s.Run()
	if len(finishes) != 4 {
		t.Fatalf("finished %d tasks", len(finishes))
	}
	// Two waves of two tasks: 1 ms and 2 ms.
	if !almostEqual(finishes[0], 1e-3, 1e-6) || !almostEqual(finishes[3], 2e-3, 1e-6) {
		t.Fatalf("finishes = %v", finishes)
	}
}

func TestSimPriorityDispatch(t *testing.T) {
	cfg := KNLConfig().WithCores(1)
	s := NewSim(cfg)
	var order []string
	mk := func(name string, pri int) *Task {
		return &Task{
			Name:     name,
			Priority: pri,
			Demand:   Demand{}.CPU(1000),
			Body:     func() { order = append(order, name) },
		}
	}
	// All four are queued before Run starts: strict priority order,
	// FIFO within a priority level.
	s.Submit(mk("first", 0))
	s.Submit(mk("low", 0))
	s.Submit(mk("urgent", 2))
	s.Submit(mk("high", 1))
	s.Run()
	want := []string{"urgent", "high", "first", "low"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimTimers(t *testing.T) {
	s := NewSim(KNLConfig())
	var fired []float64
	s.At(0.5, func(now float64) { fired = append(fired, now) })
	s.At(0.1, func(now float64) {
		fired = append(fired, now)
		s.After(0.05, func(now float64) { fired = append(fired, now) })
	})
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d timers", len(fired))
	}
	if !almostEqual(fired[0], 0.1, 1e-9) || !almostEqual(fired[1], 0.15, 1e-9) || !almostEqual(fired[2], 0.5, 1e-9) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestSimTimerInPast(t *testing.T) {
	s := NewSim(KNLConfig())
	var at float64 = -1
	s.At(0.2, func(now float64) {
		s.At(0.1, func(now float64) { at = now }) // in the past: clamp to now
	})
	s.Run()
	if !almostEqual(at, 0.2, 1e-9) {
		t.Fatalf("past timer fired at %g, want 0.2", at)
	}
}

func TestSimRunUntil(t *testing.T) {
	s := NewSim(KNLConfig().WithCores(1))
	done := false
	s.Submit(&Task{
		Demand: Demand{}.CPU(13_000_000), // 10 ms
		OnDone: func(now float64) { done = true },
	})
	s.RunUntil(5e-3)
	if done {
		t.Fatal("task must not complete before deadline")
	}
	if !almostEqual(s.Now(), 5e-3, 1e-9) {
		t.Fatalf("clock = %g, want 5e-3", s.Now())
	}
	s.RunUntil(1.0)
	if !done {
		t.Fatal("task must complete after resume")
	}
}

// Stop makes Run return after the current event is processed.
func (s *Sim) Stop() { s.stopped = true }

func TestSimStop(t *testing.T) {
	s := NewSim(KNLConfig())
	count := 0
	var tick func(now float64)
	tick = func(now float64) {
		count++
		if count == 3 {
			s.Stop()
			return
		}
		s.After(0.01, tick)
	}
	s.After(0.01, tick)
	s.Run()
	if count != 3 {
		t.Fatalf("ticks = %d, want 3", count)
	}
}

func TestSimChainedTasks(t *testing.T) {
	s := NewSim(KNLConfig().WithCores(4))
	var total int
	var spawn func(depth int) *Task
	spawn = func(depth int) *Task {
		return &Task{
			Demand: Demand{}.CPU(1000),
			OnDone: func(now float64) {
				total++
				if depth < 5 {
					s.Submit(spawn(depth + 1))
					s.Submit(spawn(depth + 1))
				}
			},
		}
	}
	s.Submit(spawn(1))
	s.Run()
	if total != 31 { // binary tree of depth 5
		t.Fatalf("tasks completed = %d, want 31", total)
	}
}

func TestSimEmptyDemandCompletes(t *testing.T) {
	s := NewSim(KNLConfig().WithCores(1))
	done := false
	s.Submit(&Task{OnDone: func(now float64) { done = true }})
	s.Run()
	if !done {
		t.Fatal("empty-demand task must complete")
	}
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %g for empty task", s.Now())
	}
}

func TestSimMultiPhaseTask(t *testing.T) {
	cfg := KNLConfig().WithCores(1)
	s := NewSim(cfg)
	var doneAt float64
	// 1 ms CPU + 1 s HBM stream at per-core cap.
	s.Submit(&Task{
		Demand: Demand{}.CPU(1_300_000).Seq(HBM, 6_000_000_000),
		OnDone: func(now float64) { doneAt = now },
	})
	s.Run()
	if !almostEqual(doneAt, 1.001, 1e-5) {
		t.Fatalf("doneAt = %g, want 1.001", doneAt)
	}
}

func TestSimPeakBW(t *testing.T) {
	cfg := KNLConfig().WithCores(64)
	s := NewSim(cfg)
	for i := 0; i < 64; i++ {
		s.Submit(&Task{Demand: Demand{}.Seq(HBM, 1e9)})
	}
	s.Run()
	// 64 cores x 6 GB/s = 384 demanded, capped at 375 GB/s pool.
	if !almostEqual(s.PeakBW(HBM), 375e9, 1e-6) {
		t.Fatalf("peak HBM bw = %g, want 375e9", s.PeakBW(HBM))
	}
}

func TestSimStatsAccounting(t *testing.T) {
	s := NewSim(KNLConfig().WithCores(2))
	s.Submit(&Task{Demand: Demand{}.Seq(HBM, 1000).Rand(DRAM, 500, 2)})
	s.Run()
	st := s.Stats()
	if st.SeqBytes[HBM] != 1000 {
		t.Errorf("seq HBM bytes = %d", st.SeqBytes[HBM])
	}
	if st.RandBytes[DRAM] != 500 {
		t.Errorf("rand DRAM bytes = %d", st.RandBytes[DRAM])
	}
	if st.BytesByTier[HBM] != 1000 || st.BytesByTier[DRAM] != 500 {
		t.Errorf("bytes by tier = %v", st.BytesByTier)
	}
}

// Idle reports whether no tasks are ready, running, or timed.
func (s *Sim) Idle() bool {
	return len(s.ready) == 0 && len(s.running) == 0 && len(s.timers) == 0
}

func TestSimIdle(t *testing.T) {
	s := NewSim(KNLConfig())
	if !s.Idle() {
		t.Fatal("new sim must be idle")
	}
	s.Submit(&Task{Demand: Demand{}.CPU(10)})
	if s.Idle() {
		t.Fatal("sim with ready task is not idle")
	}
	s.Run()
	if !s.Idle() {
		t.Fatal("drained sim must be idle")
	}
}

func TestSimIntervalBytes(t *testing.T) {
	s := NewSim(KNLConfig().WithCores(1))
	s.Submit(&Task{Demand: Demand{}.Seq(DRAM, 1e6)})
	s.Run()
	got := s.IntervalBytes()
	if !almostEqual(got[DRAM], 1e6, 1e-3) {
		t.Fatalf("interval DRAM bytes = %g", got[DRAM])
	}
	got = s.IntervalBytes()
	if got[DRAM] != 0 {
		t.Fatal("interval bytes must reset after read")
	}
}

func TestSortDemandScaling(t *testing.T) {
	small := SortDemand(HBM, 1<<10)
	large := SortDemand(HBM, 1<<20)
	sb := small.TotalBytes()[HBM]
	lb := large.TotalBytes()[HBM]
	// Bytes scale linearly with input (fixed effective pass count keeps
	// demands invariant under specimen scaling).
	if lb != sb*(1<<10) {
		t.Fatalf("sort bytes must scale linearly: %d vs %d", lb, sb*(1<<10))
	}
	// Multiple passes amplify traffic well beyond one read+write.
	if sb < int64(1<<10)*PairBytes*4 {
		t.Fatal("sort demand must include multi-pass amplification")
	}
	if SortDemand(HBM, 0).Empty() == false {
		t.Fatal("zero-size sort must be empty")
	}
}

func TestDemandModelAccessPatterns(t *testing.T) {
	// Paper Table 2: grouping primitives are sequential; reduction and
	// maintenance primitives that dereference pointers are random.
	assertHasPattern := func(name string, d Demand, tier Tier, pat Pattern) {
		t.Helper()
		for _, p := range d.Phases {
			if !p.isCPU() && p.Tier == tier && p.Pattern == pat {
				return
			}
		}
		t.Errorf("%s: no %v phase on %v", name, pat, tier)
	}
	assertNoPattern := func(name string, d Demand, pat Pattern) {
		t.Helper()
		for _, p := range d.Phases {
			if !p.isCPU() && p.Pattern == pat {
				t.Errorf("%s: unexpected %v phase", name, pat)
			}
		}
	}
	assertNoPattern("Sort", SortDemand(HBM, 1000), Random)
	assertNoPattern("Merge", MergeDemand(HBM, 1000), Random)
	assertNoPattern("Join", JoinDemand(HBM, 1000, 10, 24), Random)
	assertNoPattern("Extract", ExtractDemand(DRAM, HBM, 1000, 8), Random)
	assertHasPattern("Materialize", MaterializeDemand(HBM, 1000, 24), DRAM, Random)
	assertHasPattern("KeySwap", KeySwapDemand(HBM, 1000), DRAM, Random)
	assertHasPattern("ReduceKeyed", ReduceKeyedDemand(HBM, 1000), DRAM, Random)
	assertHasPattern("HashGroup", HashGroupDemand(DRAM, 1000), DRAM, Random)
}

func TestSubmitNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSim(KNLConfig()).Submit(nil)
}

func TestAtNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSim(KNLConfig()).At(1, nil)
}

func TestNewSimInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad := KNLConfig()
	bad.Cores = -1
	NewSim(bad)
}
