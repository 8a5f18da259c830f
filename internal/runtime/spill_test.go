package runtime

import (
	"errors"
	goruntime "runtime"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/spill"
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
// runs must be evicted to the spill tier and merged in place over the
// mmap view, and run unconstrained with no spill tier, must produce
// bit-identical windows: same window starts, same keys, same fold
// hashes. Overlapping windows seal their panes, so the runs that sit out
// the stalled watermark — and get evicted, or are born in the arena when
// no memory tier has room — are sealed runs: partial ones on the sum and
// count legs. runCaptured audits the rest state: every extent freed with
// its run's last reference, no window state live on any tier. Run under
// -race in CI.
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
			// the monitor's tick, and the stream is long enough (seven
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
			if spilled.SpillLoads != 0 || spilled.SpillLoadFallbacks != 0 {
				t.Fatalf("%s size=%d slide=%d: %d loads, %d fallbacks — a spilled run is read where it lies", name, win.Size, win.Slide,
					spilled.SpillLoads, spilled.SpillLoadFallbacks)
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
						t.Fatalf("%s size=%d slide=%d window %d key %d: baseline %x, spilled %x — eviction reordered or refolded pairs",
							name, win.Size, win.Slide, w, k, v, sk[k])
					}
				}
			}
		}
	}
}

// TestSpillMatchesNeverSpillMidGroup lands evictions between a group's
// filings: 31 batches of one fixed window fill the tiny machine until
// the monitor has walked some of their runs out to the spill tier, and
// only then does the 32nd arrive and complete the group. Its seal — the
// group's members are the only runs there are, so some of what it
// merges lies in the arena — must read the evicted members beside the
// runs that stayed, and still produce the windows of the run that never
// spilled: the order-sensitive fold through the verbatim merge, and a
// sum through the fused one.
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
			if err == nil {
				err = auditAtRest(e)
			}
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
			if e.x.m.sealedPanes.Load() != 0 {
				t.Fatalf("%s: a seal before the group was complete", name)
			}
		}, func(e *Execution) {
			await("the completed group never sealed", func() bool { return e.x.m.sealedPanes.Load() == 1 })
			if n := e.x.table.closedWindows(); n != 0 {
				t.Fatalf("%s: %d windows closed before the seal", name, n)
			}
		})
		if spilled.SpilledRuns == 0 || spilled.SpillLoads != 0 {
			t.Fatalf("%s: %d runs spilled, %d loaded; want some and none", name, spilled.SpilledRuns, spilled.SpillLoads)
		}
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

// TestEvictLatch steps the eviction hysteresis through a rise and a
// fall of pool pressure: it engages above the high-water mark, holds
// between the marks, releases below the low one, and each flip — the
// run's CtrlDecisions — is reported once.
func TestEvictLatch(t *testing.T) {
	var latch evictLatch
	flips := 0
	for _, step := range []struct {
		pressure float64
		on       bool
	}{
		{0.50, false},
		{0.85, false}, // at the mark, not above it
		{0.90, true},
		{0.75, true}, // between the marks: holds
		{0.70, false},
		{0.80, false}, // between the marks again: stays off
		{0.65, false},
	} {
		was := bool(latch)
		if flipped := latch.step(step.pressure); flipped != (was != step.on) {
			t.Fatalf("pressure %.2f: flipped = %v with the latch %v -> %v", step.pressure, flipped, was, bool(latch))
		} else if flipped {
			flips++
		}
		if bool(latch) != step.on {
			t.Fatalf("pressure %.2f: latch %v, want %v", step.pressure, bool(latch), step.on)
		}
	}
	if flips != 2 {
		t.Fatalf("%d transitions, want 2 (on, off)", flips)
	}
}

// TestPlacementRule holds the allocator to its one rule on pools filled
// to each rung: HBM while under the setpoint, DRAM over it, the other
// memory tier when the preferred one is full, the arena when both are,
// the reserve for Urgent — and a request that walked three rungs to be
// served is no failure, while one no rung serves is exactly one.
func TestPlacementRule(t *testing.T) {
	const slab = 4 << 10
	for _, c := range []struct {
		name                string
		machine             memsim.Config
		reserved            int64
		hbmUsed, dramUsed   int64
		arena, urgent, fail bool
		want                memsim.Tier
	}{
		{name: "HBM under the setpoint", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 32 << 10, want: memsim.HBM},
		{name: "HBM over the setpoint", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, want: memsim.DRAM},
		{name: "DRAM full, HBM over the setpoint", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, dramUsed: 64 << 10, want: memsim.HBM},
		{name: "both full, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, arena: true, want: memsim.Spill},
		{name: "both full, no arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, fail: true},
		{name: "urgent from the reserve", machine: tinyMachine(64<<10, 64<<10), reserved: 16 << 10, hbmUsed: 48 << 10, urgent: true, want: memsim.HBM},
		{name: "urgent, everything full, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, arena: true, urgent: true, want: memsim.Spill},
		{name: "no HBM (X56)", machine: memsim.X56Config(), want: memsim.DRAM},
	} {
		pool := mempool.New(c.machine, c.reserved)
		if c.arena {
			f, err := spill.Create(t.TempDir(), 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			pool.AttachSpill(f)
		}
		for tier, used := range map[memsim.Tier]int64{memsim.HBM: c.hbmUsed, memsim.DRAM: c.dramUsed} {
			for ; used > 0; used -= slab {
				if _, err := pool.Alloc(tier, slab); err != nil {
					t.Fatalf("%s: filling %v: %v", c.name, tier, err)
				}
			}
		}
		dram := pool.Used(memsim.DRAM)
		tier, al, err := placement{pool: pool, urgent: c.urgent}.AllocKPA(slab)
		var ee *mempool.ErrExhausted
		switch {
		case c.fail:
			if !errors.As(err, &ee) || pool.Stats().Failures != 1 {
				t.Fatalf("%s: err %v with %d failures counted, want one ErrExhausted", c.name, err, pool.Stats().Failures)
			}
		case err != nil || tier != c.want || al.Tier() != c.want:
			t.Fatalf("%s: placed on %v (err %v), want %v", c.name, tier, err, c.want)
		case pool.Stats().Failures != 0:
			t.Fatalf("%s: %d failures counted for a request that was served", c.name, pool.Stats().Failures)
		case c.urgent && c.reserved > 0 && (pool.Used(memsim.DRAM) != dram || pool.Free(memsim.HBM) != c.reserved-slab):
			t.Fatalf("%s: the reserve was not what served it (HBM free %d)", c.name, pool.Free(memsim.HBM))
		}
	}
}

// TestSpillRunLeavesNoGoroutines pins the monitor's teardown: a
// spill-enabled run (latch ticking, evictions taken) must leave
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
