package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// tinyMachine returns a machine whose memory tiers are small enough
// that the test workloads' window state cannot fit — the shape that
// trips ErrExhausted without a spill tier attached.
func tinyMachine(hbm, dram int64) memsim.Config {
	m := memsim.KNLConfig()
	m.Tiers[memsim.HBM].Capacity = hbm
	m.Tiers[memsim.DRAM].Capacity = dram
	return m
}

// TestSpillMatchesNeverSpill is the degradation ladder's equivalence
// property: the same plan — overlapping panes, skewed keys, an
// order-sensitive aggregator — run on a machine so small that sealed
// runs must be evicted to the spill tier and loaded back (or merged in
// place from the mmap), and run unconstrained with no spill tier, must
// produce bit-identical windows: same window starts, same keys, same
// fold hashes. Overlapping windows seal their panes, so the runs that sit
// out the stalled watermark — and get evicted and reloaded, or fail to
// allocate and leave the raw runs in place — are sealed runs: partial
// ones on the sum and count legs. Run under -race in CI.
func TestSpillMatchesNeverSpill(t *testing.T) {
	for _, win := range []wm.Windowing{
		wm.Fixed(1_000_000),
		wm.Sliding(1_000_000, 250_000), // overlap 4: shared pane runs spill
	} {
		for name, agg := range map[string]kpa.AggFactory{
			"fold": orderSensitive(), "sum": ops.Sum(), "count": ops.Count(),
		} {
			plan := paneTestPlan(win, 7)
			// Stall the watermark so sealed state piles up ~4 windows deep
			// against a budget sized for less than one.
			plan.Source.WatermarkEvery = 16
			base := paneTestPlan(win, 7)
			plan.NewAgg, base.NewAgg = agg, agg
			// Bundles free at extract, so they no longer pin DRAM until
			// ingest's exhaustion path evicts on the spot: what evicts is
			// the controller's tick, and the stream is long enough (seven
			// stalled watermarks) that some tick finds the runs piled up.
			plan.TotalRecords, base.TotalRecords = 120_000, 120_000
			baseline, err := runCaptured(base, Config{Workers: 4})
			if err != nil {
				t.Fatalf("%s size=%d slide=%d baseline: %v", name, win.Size, win.Slide, err)
			}
			spilled, err := runCaptured(plan, Config{
				Workers:         4,
				Machine:         tinyMachine(64<<10, 128<<10),
				ReservedHBM:     32 << 10,
				SpillCapacity:   32 << 20,
				MonitorInterval: time.Millisecond,
				ExhaustTimeout:  2 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s size=%d slide=%d spilled: %v", name, win.Size, win.Slide, err)
			}
			if spilled.SpilledRuns == 0 {
				t.Fatalf("%s size=%d slide=%d: constrained run evicted nothing — the property was not exercised", name, win.Size, win.Slide)
			}
			if spilled.SpillLoads == 0 && spilled.SpillLoadFallbacks == 0 {
				t.Fatalf("%s size=%d slide=%d: no spilled run was read back at close", name, win.Size, win.Slide)
			}
			if seals := !win.IsFixed(); (spilled.SealedPanes > 0) != seals || (baseline.SealedPanes > 0) != seals {
				t.Fatalf("%s size=%d slide=%d: %d panes sealed under pressure, %d without", name, win.Size, win.Slide,
					spilled.SealedPanes, baseline.SealedPanes)
			}
			if spilled.IngestedRecords != baseline.IngestedRecords {
				t.Fatalf("%s size=%d slide=%d: ingested %d vs %d", name, win.Size, win.Slide,
					spilled.IngestedRecords, baseline.IngestedRecords)
			}
			b, s := rowsByWindowKey(baseline.Rows), rowsByWindowKey(spilled.Rows)
			if len(b) == 0 || len(b) != len(s) {
				t.Fatalf("%s size=%d slide=%d: baseline closed %d windows, spilled %d",
					name, win.Size, win.Slide, len(b), len(s))
			}
			for w, bk := range b {
				sk, ok := s[w]
				if !ok || len(bk) != len(sk) {
					t.Fatalf("%s size=%d slide=%d window %d: baseline %d keys, spilled %d (present=%v)",
						name, win.Size, win.Slide, w, len(bk), len(sk), ok)
				}
				for k, v := range bk {
					if sk[k] != v {
						t.Fatalf("%s size=%d slide=%d window %d key %d: baseline %x, spilled %x — evict/load reordered or refolded pairs",
							name, win.Size, win.Slide, w, k, v, sk[k])
					}
				}
			}
		}
	}
}

// TestSpillMatchesNeverSpillMidGroup lands evictions between a group's
// filings: 31 batches of one fixed window fill the tiny machine until
// the controller has walked some of their runs out to the spill tier,
// and only then does the 32nd arrive and complete the group. Its seal —
// no window has closed, so every load is the seal's — must bring the
// evicted members back beside the runs that stayed, and still produce
// the windows of the run that never spilled: the order-sensitive fold
// through the verbatim merge, and a sum through the fused one.
func TestSpillMatchesNeverSpillMidGroup(t *testing.T) {
	const perBatch = 200
	batch := func(i int) [][]uint64 {
		cols := batchAt(span(uint64(i)*10_000, uint64(i+1)*10_000, perBatch)...)
		for r := range cols[0] {
			cols[0][r], cols[1][r] = uint64(r%7), uint64(i*perBatch+r)
		}
		return cols
	}
	// 32 batches complete window 0's first group, 8 more stay beside it,
	// and window 2 pushes the watermark past both.
	late := []int{32, 33, 34, 35, 36, 37, 38, 39, 250}
	for name, agg := range map[string]kpa.AggFactory{"fold": orderSensitive(), "sum": ops.Sum()} {
		run := func(cfg Config, midGroup, sealed func(e *Execution)) captured {
			feed := newTestFeed(1)
			plan := Plan{
				Feed:   feed,
				Source: engine.SourceConfig{Name: "midgroup", WatermarkEvery: 1},
				Win:    wm.Fixed(1_000_000),
				TsCol:  2, KeyCol: 0, ValCol: 1,
				NewAgg: agg,
				Label:  name,
			}
			cfg.Workers = 2
			var rows rowCollector
			e, err := Start(plan, rows.tap(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < mergeFanIn-1; i++ {
				feed.pushCols(batch(i))
			}
			midGroup(e)
			feed.pushCols(batch(mergeFanIn - 1))
			sealed(e)
			for _, i := range late {
				feed.pushCols(batch(i))
			}
			feed.Close()
			rep, err := e.Wait()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return captured{rep, rows.rows}
		}
		await := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s", name, what)
				}
			}
		}
		baseline := run(Config{}, func(*Execution) {}, func(*Execution) {})
		spilled := run(Config{
			Machine:         tinyMachine(64<<10, 128<<10),
			ReservedHBM:     32 << 10,
			SpillCapacity:   32 << 20,
			MonitorInterval: time.Millisecond,
			ExhaustTimeout:  2 * time.Second,
		}, func(e *Execution) {
			await("31 runs never filed, or none of them was evicted", func() bool {
				return e.x.m.hbmKPAs.Load()+e.x.m.dramKPAs.Load() == mergeFanIn-1 && e.x.m.evictions.Load() > 0
			})
			if e.x.m.sealedPanes.Load() != 0 || e.x.m.spillLoads.Load()+e.x.m.spillLoadFallbacks.Load() != 0 {
				t.Fatalf("%s: a seal or a load before the group was complete", name)
			}
		}, func(e *Execution) {
			await("the completed group never sealed", func() bool { return e.x.m.sealedPanes.Load() == 1 })
			if e.x.table.closedWindows() != 0 || e.x.m.spillLoads.Load()+e.x.m.spillLoadFallbacks.Load() == 0 {
				t.Fatalf("%s: the seal read no evicted member back (%d windows closed)", name, e.x.table.closedWindows())
			}
		})
		if spilled.SealedPanes != 1 || baseline.SealedPanes != 1 {
			t.Fatalf("%s: %d groups sealed under pressure, %d without, want 1", name, spilled.SealedPanes, baseline.SealedPanes)
		}
		b, s := rowsByWindowKey(baseline.Rows), rowsByWindowKey(spilled.Rows)
		if len(b) != 2 || len(s) != 2 {
			t.Fatalf("%s: baseline closed %d windows, spilled %d, want 2", name, len(b), len(s))
		}
		for w, bk := range b {
			for k, v := range bk {
				if len(s[w]) != len(bk) || s[w][k] != v {
					t.Fatalf("%s window %d key %d: baseline %x, spilled %x (%d keys vs %d)", name, w, k, v, s[w][k], len(bk), len(s[w]))
				}
			}
		}
	}
}

// TestControllerConvergence steps the placement controller against
// synthetic step loads and checks it walks the knob the right way,
// settles inside the deadband, and latches eviction with hysteresis.
func TestControllerConvergence(t *testing.T) {
	c := newPlacementController()
	sig := func(hbm, dram, bw float64) ctrlSignals {
		return ctrlSignals{HBMUtil: hbm, DRAMUtil: dram, DRAMBW: bw, Workers: 4}
	}

	// Step 1: HBM far above the setpoint. kLow must descend toward 0.
	var act ctrlAction
	for i := 0; i < 50; i++ {
		act = c.step(sig(0.95, 0.3, 0.2))
	}
	if act.KLow > 0.05 {
		t.Fatalf("overloaded HBM: kLow = %.2f, want ~0", act.KLow)
	}
	if act.KHigh == 1 && c.kLow > 0 {
		t.Fatalf("kHigh moved before kLow bottomed out")
	}

	// Step 2: load releases. Both knobs must recover to 1 (kHigh first
	// needs queue headroom, which the zero QueueDepths provide).
	for i := 0; i < 100; i++ {
		act = c.step(sig(0.30, 0.3, 0.2))
	}
	if act.KLow < 0.95 || act.KHigh < 0.95 {
		t.Fatalf("recovered HBM: knob = {%.2f, %.2f}, want ~{1, 1}", act.KLow, act.KHigh)
	}

	// Step 3: inside the deadband nothing changes.
	before := [2]float64{c.kLow, c.kHigh}
	act = c.step(sig(ctrlSetpoint, 0.3, 0.2))
	if c.kLow != before[0] || c.kHigh != before[1] {
		t.Fatalf("deadband: knob moved {%.2f, %.2f} -> {%.2f, %.2f}",
			before[0], before[1], c.kLow, c.kHigh)
	}

	// Step 4: eviction latches above the high water mark and holds
	// until utilization falls below the low water mark.
	if act = c.step(sig(0.5, 0.90, 0.2)); !act.Evict {
		t.Fatal("worst util 0.90 must start eviction")
	}
	if act = c.step(sig(0.5, 0.75, 0.2)); !act.Evict {
		t.Fatal("eviction must hold at 0.75 (hysteresis: above low water)")
	}
	if act = c.step(sig(0.5, 0.65, 0.2)); act.Evict {
		t.Fatal("eviction must release below the low water mark")
	}
	if act = c.step(sig(0.5, 0.80, 0.2)); act.Evict {
		t.Fatal("eviction must not restart below the high water mark")
	}
}

// TestSpillRunLeavesNoGoroutines pins the controller/monitor teardown:
// a spill-enabled run (controller active, evictions taken) must leave
// no goroutines behind once Run returns.
func TestSpillRunLeavesNoGoroutines(t *testing.T) {
	before := goruntime.NumGoroutine()
	plan := paneTestPlan(wm.Sliding(1_000_000, 250_000), 3)
	plan.Source.WatermarkEvery = 16
	if _, err := Run(plan, Config{
		Workers:         2,
		Machine:         tinyMachine(64<<10, 128<<10),
		ReservedHBM:     32 << 10,
		SpillCapacity:   32 << 20,
		MonitorInterval: time.Millisecond,
		ExhaustTimeout:  2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := goruntime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before run, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
