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
// order-sensitive aggregator — run on a machine so small that runs must
// be born in the spill arena once both memory tiers pass the placement
// setpoint, and merged in place over the mmap view, and run
// unconstrained with no spill tier, must produce bit-identical windows:
// same window starts, same keys, same fold hashes. Overlapping windows
// seal their panes, so runs born in the arena include sealed ones:
// partial runs on the sum and count legs. The keys are hashed, so no
// bundle of the sum and count legs folds at formation: their runs keep a
// pair per record and outgrow the budget as the fold leg's do.
// runCaptured audits the rest state: every extent freed with its run's
// last reference, no window state live on any tier. Run under -race in
// CI.
func TestSpillMatchesNeverSpill(t *testing.T) {
	for _, win := range []wm.Windowing{
		wm.Fixed(1_000_000),
		wm.Sliding(1_000_000, 250_000), // overlap 4: shared pane runs spill
	} {
		for name, agg := range map[string]kpa.AggFactory{
			"fold": orderSensitive(), "sum": ops.Sum(), "count": ops.Count(),
		} {
			plan := paneTestPlan(win, 7)
			// Stall the watermark so window state piles up ~4 windows deep
			// against a budget sized for less than one.
			plan.Source.WatermarkEvery = 16
			base := paneTestPlan(win, 7)
			plan.Gen.(*skewedGen).hash, base.Gen.(*skewedGen).hash = true, true
			plan.NewAgg, base.NewAgg = agg, agg
			plan.TotalRecords, base.TotalRecords = 120_000, 120_000
			baseline, err := runCaptured(base, Config{Workers: 4})
			if err != nil {
				t.Fatalf("%s size=%d slide=%d baseline: %v", name, win.Size, win.Slide, err)
			}
			spilled, err := runCaptured(plan, Config{
				Workers:        4,
				Machine:        tinyMachine(64<<10, 128<<10),
				ReservedHBM:    32 << 10,
				SpillCapacity:  32 << 20,
				ExhaustTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s size=%d slide=%d spilled: %v", name, win.Size, win.Slide, err)
			}
			if spilled.SpilledRuns == 0 {
				t.Fatalf("%s size=%d slide=%d: constrained run placed nothing in the arena — the property was not exercised", name, win.Size, win.Slide)
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
						t.Fatalf("%s size=%d slide=%d window %d key %d: baseline %x, spilled %x — the arena reordered or refolded pairs",
							name, win.Size, win.Slide, w, k, v, sk[k])
					}
				}
			}
		}
	}
}

// TestSpillMatchesNeverSpillMidGroup straddles one group across the
// placement setpoint: on a machine with one 64 KiB memory tier, the
// first members of the first group are born in DRAM until it passes the
// setpoint, and the rest in the spill arena. Batches go in one at a
// time, each extracted before the next arrives, so where a member is
// born is a function of the stream. The group's seal — its members are
// the only runs there are — must merge the arena members beside the
// memory ones, in provenance order, and still produce the windows of
// the run that never spilled: a sum through the fused merge, in a fixed
// window, and the order-sensitive fold through the verbatim one, in a
// pane two windows of overlap 2 read — in a pane one window reads a
// verbatim copy never seals.
func TestSpillMatchesNeverSpillMidGroup(t *testing.T) {
	const perBatch = 200
	// 32 batches complete the first group, 8 more stay beside it, and
	// batch 250 pushes the watermark past both.
	late := []int{32, 33, 34, 35, 36, 37, 38, 39, 250}
	for _, c := range []struct {
		name string
		agg  kpa.AggFactory
		win  wm.Windowing
		at   uint64 // where batch 0 starts: the group's pane
		// seals is every seal of the run: the group's, and for overlap 2
		// the claim seals of the runs left beside it and of batch 250;
		// windows is how many windows publish.
		seals   int64
		windows int
	}{
		{"sum", ops.Sum(), wm.Fixed(1_000_000), 0, 1, 2},
		{"fold", orderSensitive(), wm.Sliding(1_000_000, 500_000), 500_000, 3, 4},
	} {
		batch := func(i int) [][]uint64 {
			cols := batchAt(span(c.at+uint64(i)*10_000, c.at+uint64(i+1)*10_000, perBatch)...)
			for r := range cols[0] {
				cols[0][r], cols[1][r] = uint64(r%7), uint64(i*perBatch+r)
			}
			return cols
		}
		await := func(what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s", c.name, what)
				}
			}
		}
		run := func(cfg Config, midGroup func(e *Execution)) captured {
			feed := newTestFeed(1)
			plan := Plan{
				Feed:   feed,
				Source: engine.SourceConfig{Name: "midgroup", WatermarkEvery: 1},
				Win:    c.win,
				TsCol:  2, KeyCol: 0, ValCol: 1,
				NewAgg: c.agg,
				Label:  c.name,
			}
			cfg.Workers = 2
			var rows rowCollector
			e, err := Start(plan, rows.tap(cfg))
			if err != nil {
				t.Fatal(err)
			}
			// Until the group completes, every task is an extraction.
			extracted := func(n int64) func() bool {
				return func() bool {
					var done int64
					for _, c := range e.x.sched.Stats().Executed {
						done += c
					}
					return done == n
				}
			}
			for i := 0; i < mergeFanIn-1; i++ {
				feed.pushCols(batch(i))
				await("a batch was never extracted", extracted(int64(i+1)))
			}
			if e.x.m.sealedPanes.Load() != 0 {
				t.Fatalf("%s: a seal before the group was complete", c.name)
			}
			midGroup(e)
			feed.pushCols(batch(mergeFanIn - 1))
			await("the completed group never sealed", func() bool { return e.x.m.sealedPanes.Load() == 1 })
			if n := e.x.table.closedWindows(); n != 0 {
				t.Fatalf("%s: %d windows closed before the seal", c.name, n)
			}
			for _, i := range late {
				feed.pushCols(batch(i))
			}
			feed.Close()
			rep, err := e.Wait()
			if err == nil {
				err = auditAtRest(e)
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return captured{rep, rows.rows}
		}
		baseline := run(Config{}, func(*Execution) {})
		spilled := run(Config{
			Machine:        tinyMachine(0, 64<<10),
			SpillCapacity:  32 << 20,
			ExhaustTimeout: 2 * time.Second,
		}, func(e *Execution) {
			inMemory, inArena := e.x.m.placements[memsim.DRAM].Load(), e.x.m.placements[memsim.Spill].Load()
			if inMemory == 0 || inArena == 0 || inMemory+inArena != mergeFanIn-1 {
				t.Fatalf("%s: %d members born in DRAM, %d in the arena; want %d straddling the setpoint",
					c.name, inMemory, inArena, mergeFanIn-1)
			}
		})
		if spilled.SpilledRuns == 0 || spilled.SpillLoads != 0 {
			t.Fatalf("%s: %d runs spilled, %d loaded; want some and none", c.name, spilled.SpilledRuns, spilled.SpillLoads)
		}
		if spilled.SealedPanes != c.seals || baseline.SealedPanes != c.seals {
			t.Fatalf("%s: %d seals under pressure, %d without, want %d", c.name, spilled.SealedPanes, baseline.SealedPanes, c.seals)
		}
		b, s := rowsByWindowKey(baseline.Rows), rowsByWindowKey(spilled.Rows)
		if len(b) != c.windows || len(s) != c.windows {
			t.Fatalf("%s: baseline closed %d windows, spilled %d, want %d", c.name, len(b), len(s), c.windows)
		}
		for w, bk := range b {
			for k, v := range bk {
				if len(s[w]) != len(bk) || s[w][k] != v {
					t.Fatalf("%s window %d key %d: baseline %x, spilled %x (%d keys vs %d)", c.name, w, k, v, s[w][k], len(bk), len(s[w]))
				}
			}
		}
	}
}

// TestPlacementRule holds the allocator to its one rule on pools filled
// to each rung: the first memory tier under the setpoint, HBM then DRAM;
// the arena once both are over it, and memory again once one falls back
// under; past the arena, any memory tier with room; the reserve first
// for Urgent work, then the same order — and a request that walked three
// rungs to be served is no failure, while one no rung serves is exactly
// one.
func TestPlacementRule(t *testing.T) {
	const slab = 4 << 10
	fill := func(pool *mempool.Pool, tier memsim.Tier, used int64) (als []*mempool.Allocation) {
		for ; used > 0; used -= slab {
			al, err := pool.Alloc(tier, slab)
			if err != nil {
				t.Fatalf("filling %v: %v", tier, err)
			}
			als = append(als, al)
		}
		return als
	}
	withArena := func(pool *mempool.Pool) {
		f, err := spill.Create(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		pool.AttachSpill(f)
	}
	for _, c := range []struct {
		name                             string
		machine                          memsim.Config
		reserved, reserveUsed            int64
		hbmUsed, dramUsed                int64
		arena, urgent, fail, fromReserve bool
		want                             memsim.Tier
	}{
		{name: "HBM under the setpoint", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 32 << 10, want: memsim.HBM},
		{name: "HBM over the setpoint", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, want: memsim.DRAM},
		{name: "HBM over the setpoint, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, arena: true, want: memsim.DRAM},
		{name: "both over the setpoint, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, dramUsed: 56 << 10, arena: true, want: memsim.Spill},
		{name: "both over the setpoint, no arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, dramUsed: 56 << 10, want: memsim.DRAM},
		{name: "DRAM full, HBM over the setpoint, no arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 56 << 10, dramUsed: 64 << 10, want: memsim.HBM},
		{name: "both full, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, arena: true, want: memsim.Spill},
		{name: "both full, no arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, fail: true},
		{name: "urgent from the reserve", machine: tinyMachine(64<<10, 64<<10), reserved: 16 << 10, hbmUsed: 48 << 10, urgent: true, fromReserve: true, want: memsim.HBM},
		{name: "urgent, reserve spent, HBM over the setpoint", machine: tinyMachine(64<<10, 64<<10), reserved: 16 << 10, reserveUsed: 16 << 10, hbmUsed: 40 << 10, urgent: true, want: memsim.DRAM},
		{name: "urgent, reserve spent, both over the setpoint, arena", machine: tinyMachine(64<<10, 64<<10), reserved: 16 << 10, reserveUsed: 16 << 10, hbmUsed: 40 << 10, dramUsed: 56 << 10, arena: true, urgent: true, want: memsim.Spill},
		{name: "urgent, everything full, arena", machine: tinyMachine(64<<10, 64<<10), hbmUsed: 64 << 10, dramUsed: 64 << 10, arena: true, urgent: true, want: memsim.Spill},
		{name: "no HBM (X56)", machine: memsim.X56Config(), want: memsim.DRAM},
	} {
		pool := mempool.New(c.machine, c.reserved)
		if c.arena {
			withArena(pool)
		}
		for used := c.reserveUsed; used > 0; used -= slab {
			if _, err := pool.AllocUrgent(slab); err != nil {
				t.Fatalf("%s: filling the reserve: %v", c.name, err)
			}
		}
		fill(pool, memsim.HBM, c.hbmUsed)
		fill(pool, memsim.DRAM, c.dramUsed)
		reserve := pool.Snapshot().UsedReserved
		tier, al, err := placement{pool: pool, urgent: c.urgent}.AllocKPA(slab)
		var ee *mempool.ErrExhausted
		switch {
		case c.fail:
			if !errors.As(err, &ee) || pool.Snapshot().Failures != 1 {
				t.Fatalf("%s: err %v with %d failures counted, want one ErrExhausted", c.name, err, pool.Snapshot().Failures)
			}
		case err != nil || tier != c.want || al.Tier() != c.want:
			t.Fatalf("%s: placed on %v (err %v), want %v", c.name, tier, err, c.want)
		case pool.Snapshot().Failures != 0:
			t.Fatalf("%s: %d failures counted for a request that was served", c.name, pool.Snapshot().Failures)
		case (pool.Snapshot().UsedReserved > reserve) != c.fromReserve:
			t.Fatalf("%s: the reserve served it: %v, want %v", c.name, !c.fromReserve, c.fromReserve)
		}
	}

	// The arena takes runs only while both memory tiers are over the
	// setpoint: once DRAM falls back under it, runs are born there again.
	pool := mempool.New(tinyMachine(64<<10, 64<<10), 0)
	withArena(pool)
	fill(pool, memsim.HBM, 56<<10)
	dram := fill(pool, memsim.DRAM, 56<<10)
	for _, step := range []struct {
		free int
		want memsim.Tier
	}{{0, memsim.Spill}, {2, memsim.DRAM}} {
		for _, al := range dram[:step.free] {
			al.Free()
		}
		if tier, _, err := (placement{pool: pool}).AllocKPA(slab); err != nil || tier != step.want {
			t.Fatalf("DRAM at %d B: placed on %v (err %v), want %v", pool.Used(memsim.DRAM), tier, err, step.want)
		}
	}
}

// TestSpillRunLeavesNoGoroutines: the ladder runs no goroutine of its
// own. While a spill-enabled run places runs in the arena, it has the
// execution's goroutine and the scheduler's workers and nothing else,
// and once Run returns it leaves no goroutine behind.
func TestSpillRunLeavesNoGoroutines(t *testing.T) {
	const workers = 2
	before := goruntime.NumGoroutine()
	plan := paneTestPlan(wm.Sliding(1_000_000, 250_000), 3)
	plan.Source.WatermarkEvery = 16
	plan.TotalRecords = 120_000 // long enough that some run is born in the arena on any schedule
	e, err := Start(plan, Config{
		Workers:        workers,
		Machine:        tinyMachine(64<<10, 128<<10),
		ReservedHBM:    32 << 10,
		SpillCapacity:  32 << 20,
		ExhaustTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for running := true; running; {
		select {
		case <-e.Done():
			running = false
		default:
			most = max(most, goruntime.NumGoroutine()-before)
			time.Sleep(time.Millisecond)
		}
	}
	rep, err := e.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SpilledRuns == 0 {
		t.Fatal("no run was born in the arena — the run did not exercise the ladder")
	}
	if most > workers+1 {
		t.Fatalf("%d goroutines beside the test's during the run, want at most %d workers and the execution's", most, workers)
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
