package runtime

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// --- Scheduler tests. ------------------------------------------------------

// TestSchedulerPriorityOrder blocks the single worker behind a gate
// task, queues Low, Low, High, Urgent, and checks they run Urgent, High,
// then the two Low tasks in submission order — the simulator's dispatch
// rule: priority, then FIFO within a class. The four tasks are queued
// only once the gate task is running, so the worker sees all of them
// when it next pops.
func TestSchedulerPriorityOrder(t *testing.T) {
	s := newScheduler(1)
	defer s.Close()
	gate, started := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var order []string
	note := func(label string) func() {
		return func() {
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
		}
	}
	s.Submit(engine.Low, func() {
		close(started)
		<-gate
	})
	<-started
	s.Submit(engine.Low, note("Low#1"))
	s.Submit(engine.Low, note("Low#2"))
	s.Submit(engine.High, note("High"))
	s.Submit(engine.Urgent, note("Urgent"))
	close(gate)
	s.Wait()
	if want := []string{"Urgent", "High", "Low#1", "Low#2"}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestSchedulerNoTaskStranded checks that a busy worker strands no
// task: on two workers, one task blocks until the 64 quick tasks
// submitted after it have all run, which the other worker must do.
func TestSchedulerNoTaskStranded(t *testing.T) {
	s := newScheduler(2)
	defer s.Close()
	var done atomic.Int64
	ranInTime := int64(64)
	started, allRan := make(chan struct{}), make(chan struct{})
	s.Submit(engine.Low, func() {
		close(started)
		select {
		case <-allRan:
		case <-time.After(5 * time.Second):
			ranInTime = done.Load()
		}
	})
	<-started
	for range 64 {
		s.Submit(engine.Low, func() {
			if done.Add(1) == 64 {
				close(allRan)
			}
		})
	}
	s.Wait()
	if ranInTime < 64 {
		t.Fatalf("only %d of 64 quick tasks ran in 5 s while one worker was busy", ranInTime)
	}
}

// TestSchedulerTaskSpawnsTask checks Wait covers tasks submitted by
// tasks (the merge-tree continuation pattern).
func TestSchedulerTaskSpawnsTask(t *testing.T) {
	s := newScheduler(2)
	defer s.Close()
	var hits atomic.Int64
	s.Submit(engine.High, func() {
		for range 8 {
			s.Submit(engine.Urgent, func() { hits.Add(1) })
		}
	})
	s.Wait()
	if hits.Load() != 8 {
		t.Fatalf("children executed %d times, want 8", hits.Load())
	}
}

// --- Native pipeline tests. ------------------------------------------------

func testPlan(gen engine.Generator, total int64) Plan {
	return Plan{
		Gen: gen,
		Source: engine.SourceConfig{
			Name:           "test",
			Rate:           1e6,
			BundleRecords:  1000,
			WindowRecords:  4000,
			WatermarkEvery: 4,
		},
		Win:          wm.Fixed(1_000_000),
		TotalRecords: total,
		TsCol:        2,
		KeyCol:       0,
		ValCol:       1,
		NewAgg:       ops.Sum(),
		Label:        "sum",
	}
}

// TestNativeExactSums runs the quickstart shape on a deterministic
// round-robin stream: every window must sum to exactly
// WindowRecords/keys per key.
func TestNativeExactSums(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(8, 1), 40_000)
	rep, err := runCaptured(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != 40_000 {
		t.Fatalf("ingested %d, want 40000", rep.IngestedRecords)
	}
	if rep.WindowsClosed != 10 {
		t.Fatalf("closed %d windows, want 10", rep.WindowsClosed)
	}
	if rep.EmittedRecords != 80 {
		t.Fatalf("emitted %d rows, want 80 (10 windows x 8 keys)", rep.EmittedRecords)
	}
	for _, r := range rep.Rows {
		if r.Val != 4000/8 {
			t.Fatalf("window %d key %d: sum %d, want %d", r.Win, r.Key, r.Val, 4000/8)
		}
	}
	if rep.Throughput <= 0 {
		t.Fatal("native run must report real throughput")
	}
	total := int64(0)
	for _, n := range rep.Sched.Executed {
		total += n
	}
	if total == 0 {
		t.Fatal("no tasks executed on the worker pool")
	}
}

// TestNativeFilter fuses a filter into extraction: only keys < 4
// survive, so each window emits 4 rows.
func TestNativeFilter(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(8, 1), 8_000)
	plan.Filters = []Filter{{Col: 0, Keep: func(v uint64) bool { return v < 4 }}}
	rep, err := runCaptured(plan, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 2 || rep.EmittedRecords != 8 {
		t.Fatalf("windows %d rows %d, want 2 windows x 4 rows", rep.WindowsClosed, rep.EmittedRecords)
	}
	for _, r := range rep.Rows {
		if r.Key >= 4 {
			t.Fatalf("filtered key %d leaked through", r.Key)
		}
		if r.Val != 500 {
			t.Fatalf("sum %d, want 500", r.Val)
		}
	}
}

// TestNativeSlidingWindows checks the sliding-window path: interior
// windows see a full window of records across two slides.
func TestNativeSlidingWindows(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(4, 1), 20_000)
	plan.Win = wm.Sliding(1_000_000, 500_000)
	rep, err := runCaptured(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sawFull := false
	for _, r := range rep.Rows {
		if r.Val == 4000/4 {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("no interior sliding window saw full counts")
	}
}

// TestNativeBackpressure runs against a tiny memory pool: ingest must
// stall rather than fail, and the run must still complete correctly.
func TestNativeBackpressure(t *testing.T) {
	machine := memsim.KNLConfig()
	machine.Tiers[memsim.HBM].Capacity = 1 << 20   // 1 MiB HBM
	machine.Tiers[memsim.DRAM].Capacity = 12 << 20 // 12 MiB DRAM
	plan := testPlan(ingress.NewRoundRobinKV(8, 1), 40_000)
	rep, err := runCaptured(plan, Config{Workers: 2, Machine: machine, ReservedHBM: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 10 {
		t.Fatalf("closed %d windows, want 10", rep.WindowsClosed)
	}
	for _, r := range rep.Rows {
		if r.Val != 500 {
			t.Fatalf("sum %d under memory pressure, want 500", r.Val)
		}
	}
}

// TestNativeWindowColumnNotSchemaTs windows on a column other than the
// schema's timestamp column (the Window stage may pick any column):
// registration and partitioning must agree, or records are silently
// dropped. RoundRobinKV's value column is constant 5, so every record
// of the run lands in window 0 and per-key sums cover all records.
func TestNativeWindowColumnNotSchemaTs(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(8, 5), 8_000)
	plan.TsCol = 1 // the value column, not the schema ts column (2)
	// The generator's watermark runs in schema-ts time, which says
	// nothing about column 1: no watermark before the end of the stream,
	// or the constant-5 records would be late for window 0.
	plan.Source.WatermarkEvery = 1 << 20
	rep, err := runCaptured(plan, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 1 {
		t.Fatalf("closed %d windows, want 1 (all records share window 0)", rep.WindowsClosed)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("emitted %d rows, want 8", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.Win != 0 {
			t.Fatalf("window %d, want 0", r.Win)
		}
		if r.Val != 1000*5 {
			t.Fatalf("key %d: sum %d, want 5000 — records were dropped", r.Key, r.Val)
		}
	}
}

// TestNativeExhaustionFailsInsteadOfHanging gives the run less DRAM
// than a single open window of state: ingest must force watermarks,
// time out, and return an exhaustion error rather than spin forever.
// The keys are hashed, so no bundle folds at formation and every run
// holds a pair per record.
func TestNativeExhaustionFailsInsteadOfHanging(t *testing.T) {
	machine := memsim.KNLConfig()
	machine.Tiers[memsim.HBM].Capacity = 32 << 10
	machine.Tiers[memsim.DRAM].Capacity = 64 << 10
	gen := newSkewedGen(8, 1)
	gen.hash = true
	plan := testPlan(gen, 40_000)
	done := make(chan error, 1)
	go func() {
		_, err := Run(plan, Config{
			Workers:        2,
			Machine:        machine,
			ReservedHBM:    16 << 10,
			ExhaustTimeout: 300 * time.Millisecond,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with impossible DRAM budget must fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on an exhausted DRAM pool")
	}
}

// TestNativeKnobPlacement checks that KPAs are placed and counted, and
// that a machine with room lands them on HBM (the tier is far under its
// setpoint).
func TestNativeKnobPlacement(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(16, 1), 40_000)
	rep, err := Run(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HBMKPAs+rep.DRAMKPAs == 0 {
		t.Fatal("no KPAs were placed")
	}
	if rep.HBMKPAs == 0 {
		t.Fatal("HBM under its setpoint must take KPAs")
	}
}

// TestNativeMergeTree forces many runs per window (tiny bundles) so
// closing a window exercises the fused range-partitioned merge-reduce
// over 16 runs at once.
func TestNativeMergeTree(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(4, 1), 12_000)
	plan.Source.BundleRecords = 250 // 16 runs per window
	plan.Source.WatermarkEvery = 16
	rep, err := runCaptured(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 3 {
		t.Fatalf("closed %d windows, want 3", rep.WindowsClosed)
	}
	for _, r := range rep.Rows {
		if r.Val != 1000 {
			t.Fatalf("window %d key %d: sum %d, want 1000", r.Win, r.Key, r.Val)
		}
	}
}

// TestNativeFanInClose gives a fixed window more runs than one seal
// takes (40 > mergeFanIn): the first 32 seal into a partial run while
// the window fills, and the window closes over that run and the 8 left.
// Each bundle is 100 rows over 4 keys, a span below its rows, so its run
// is born partial: 4 pairs, not 100.
func TestNativeFanInClose(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(4, 1), 12_000)
	plan.Source.BundleRecords = 100 // 40 runs per window
	plan.Source.WatermarkEvery = 40
	rep, err := runCaptured(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 3 {
		t.Fatalf("closed %d windows, want 3", rep.WindowsClosed)
	}
	if rep.EmittedRecords != 12 {
		t.Fatalf("emitted %d rows, want 12 (3 windows x 4 keys)", rep.EmittedRecords)
	}
	for _, r := range rep.Rows {
		if r.Val != 1000 {
			t.Fatalf("window %d key %d: sum %d, want 1000", r.Win, r.Key, r.Val)
		}
	}
	// Per window (40 bundles of exactly 25 000 time units each, so none
	// straddles an edge): 32 runs of 4 pairs through the seal, then its 4
	// partials and the other 8 runs' 32 pairs through the merge.
	if rep.SealedPanes != 3 || rep.ClosePairs != 3*(128+4+32) {
		t.Fatalf("%d groups sealed, %d pairs streamed; want 3 and %d", rep.SealedPanes, rep.ClosePairs, 3*(128+4+32))
	}
}

// TestNativeFanInCloseLoneTrailingRun covers R % mergeFanIn == 1 (33
// runs): one full group and one run left over, which closes beside the
// group's partial run — a drop here loses one bundle's worth of every
// window's aggregates.
func TestNativeFanInCloseLoneTrailingRun(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(4, 1), 9_900)
	plan.Source.WindowRecords = 3_300 // 33 bundles of 100 per window
	plan.Source.BundleRecords = 100
	plan.Source.WatermarkEvery = 33
	rep, err := runCaptured(plan, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowsClosed != 3 {
		t.Fatalf("closed %d windows, want 3", rep.WindowsClosed)
	}
	var total uint64
	for _, r := range rep.Rows {
		total += r.Val
	}
	if want := uint64(9_900); total != want {
		t.Fatalf("summed %d across windows, want %d — the trailing run was dropped", total, want)
	}
	// A bundle is 100 rows over 4 keys, born a partial run of 4 pairs, and
	// spans 30 303 time units (100 × 10^6/3 300, truncated), so each window
	// edge cuts one bundle a row past it. Windows 0 and 1 hold 34 runs:
	// 32 seal (128 pairs) and the merge takes the 4 partials, the 33rd
	// run's 4 pairs and the 1 of the straddling bundle's first row —
	// 137. Window 2 begins on the 99 rows past that row and holds 33 runs
	// (the stream's 99 bundles end inside it): 128 through the seal, then
	// 4 + 4 — 136.
	if want := int64(137 + 137 + 136); rep.SealedPanes != 3 || rep.ClosePairs != want {
		t.Fatalf("%d groups sealed, %d pairs streamed; want 3 and %d", rep.SealedPanes, rep.ClosePairs, want)
	}
}

// TestFixedWindowSealsWhileFilling is the shape of a network window — a
// fixed window of 246 sorted runs over 1 024 keys — at a quarter of the
// frame size: every full group of 32 runs must seal while the window
// fills, exactly ⌊246/32⌋ of them a window, so close streams each
// record about once — its group's seal, or the merge for the 22 runs
// left over — plus 7 partial runs of 1 024 pairs, where compacting the
// whole window at close streamed every record twice. Both counts are
// functions of the stream: a second run repeats them exactly.
func TestFixedWindowSealsWhileFilling(t *testing.T) {
	const runsPerWindow, bundleRecords, windows = 246, 1024, 3
	run := func() Report {
		plan := testPlan(ingress.NewRoundRobinKV(1024, 1), windows*runsPerWindow*bundleRecords)
		plan.Source.BundleRecords = bundleRecords
		plan.Source.WindowRecords = runsPerWindow * bundleRecords
		plan.Source.WatermarkEvery = runsPerWindow
		rep, err := runCaptured(plan, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rep.WindowsClosed != windows || rep.EmittedRecords != windows*1024 {
			t.Fatalf("closed %d windows with %d rows, want %d and %d", rep.WindowsClosed, rep.EmittedRecords, windows, windows*1024)
		}
		var total int64
		for _, r := range rep.Rows {
			total += int64(r.Val)
		}
		if total != rep.IngestedRecords {
			t.Fatalf("summed %d across windows for %d records of value 1", total, rep.IngestedRecords)
		}
		return rep.Report
	}
	rep := run()
	if want := int64(windows * (runsPerWindow / mergeFanIn)); rep.SealedPanes != want || rep.SealsSkipped != 0 {
		t.Fatalf("%d groups sealed, %d left raw; want %d and none: 1 024 keys compact", rep.SealedPanes, rep.SealsSkipped, want)
	}
	if ratio := float64(rep.ClosePairs) / float64(rep.IngestedRecords); ratio > 1.05 {
		t.Fatalf("close streamed %d pairs for %d records (%.3f per record), want at most 1.05",
			rep.ClosePairs, rep.IngestedRecords, ratio)
	}
	if rep.ExtractNanos <= 0 {
		t.Fatalf("extract time %d ns: a run that extracts must report it", rep.ExtractNanos)
	}
	if again := run(); again.SealedPanes != rep.SealedPanes || again.ClosePairs != rep.ClosePairs {
		t.Fatalf("%d seals and %d pairs, then %d and %d: the counts must repeat",
			rep.SealedPanes, rep.ClosePairs, again.SealedPanes, again.ClosePairs)
	}
}

// winRow is a result row with the start of the window it closed in.
type winRow struct {
	Key, Val uint64
	Win      wm.Time
}

// rowCollector is the sink tests read results through: it keeps every
// row of every window delivered.
type rowCollector struct {
	mu   sync.Mutex
	rows []winRow
}

// tap returns cfg with the collector as its WindowSink, ahead of the
// sink cfg already had, if any.
func (c *rowCollector) tap(cfg Config) Config {
	next := cfg.WindowSink
	cfg.WindowSink = func(start, end wm.Time, rows []Row) {
		c.mu.Lock()
		for _, r := range rows {
			c.rows = append(c.rows, winRow{r.Key, r.Val, start})
		}
		c.mu.Unlock()
		if next != nil {
			next(start, end, rows)
		}
	}
	return cfg
}

// captured is a finished run: its report and every row its sink saw.
type captured struct {
	Report
	Rows []winRow
}

// runCaptured is Run behind a rowCollector.
func runCaptured(plan Plan, cfg Config) (captured, error) {
	var c rowCollector
	e, err := Start(plan, c.tap(cfg))
	if err != nil {
		return captured{}, err
	}
	rep, err := e.Wait()
	if err == nil {
		err = auditAtRest(e)
	}
	return captured{rep, c.rows}, err
}

// auditAtRest is the ledger audit every test that runs a plan through
// runCaptured gets: with the run drained, each bundle has given its
// columns back and is no longer charged, no window state is live on any
// tier, and nothing is charged to the spill tier — the pool charges an
// arena extent until its run's last Destroy frees it, so a leaked
// reference shows here.
func auditAtRest(e *Execution) error {
	pool := e.MemPool()
	if out := pool.Snapshot().ColsOut; out != 0 {
		return fmt.Errorf("%d column slabs still out of the pool after the run", out)
	}
	for _, t := range []memsim.Tier{memsim.DRAM, memsim.Spill} {
		if used := pool.Used(t); used != 0 {
			return fmt.Errorf("%d B still charged to %v after the run", used, t)
		}
	}
	if live := e.x.m.liveState(); live != [memsim.NumTiers]int64{} {
		return fmt.Errorf("live window state at rest: %v", live)
	}
	return nil
}

// TestMain runs the package under the pool's poison mode: a column slab
// is overwritten the moment it goes back, so a bundle read after its
// last Release turns every equivalence test here into a mismatch
// instead of a read of rows that happened to survive.
func TestMain(m *testing.M) {
	mempool.PoisonCols.Store(true)
	os.Exit(m.Run())
}

// TestWindowRowsAscendByKey pins what a sink is handed: one slice per
// window, strictly ascending by key — a close cut into key-range
// partitions still delivers them in partition order — and, being a
// function of the stream alone, the same slice whatever the worker
// count. Windows are wide enough (40 000 pairs over 20 000 or 1 024
// keys) that four workers close each in several partitions. Every slice
// holds at most twice its rows: the row slab is sized by the keys a
// partition can emit, not by its pairs.
func TestWindowRowsAscendByKey(t *testing.T) {
	for _, c := range []struct {
		keys int
		win  wm.Windowing
	}{
		{20_000, wm.Fixed(1_000_000)},
		{20_000, wm.Sliding(1_000_000, 250_000)},
		{1024, wm.Fixed(1_000_000)},
	} {
		win := c.win
		deliveries := func(workers int) map[wm.Time][]Row {
			plan := testPlan(ingress.NewRoundRobinKV(uint64(c.keys), 1), 200_000)
			plan.Source.WindowRecords = 40_000
			plan.Win = win
			var mu sync.Mutex
			got := make(map[wm.Time][]Row)
			_, err := Run(plan, Config{Workers: workers, WindowSink: func(start, _ wm.Time, rows []Row) {
				mu.Lock()
				defer mu.Unlock()
				if _, twice := got[start]; twice {
					t.Errorf("slide=%d workers=%d: window %d delivered twice", win.Slide, workers, start)
				}
				if cap(rows) > 2*len(rows) {
					t.Errorf("keys=%d workers=%d: window %d delivered %d rows in a slab of %d", c.keys, workers, start, len(rows), cap(rows))
				}
				got[start] = rows
			}})
			if err != nil {
				t.Fatal(err)
			}
			for start, rows := range got {
				for i := 1; i < len(rows); i++ {
					if rows[i-1].Key >= rows[i].Key {
						t.Fatalf("slide=%d workers=%d window %d: key %d at row %d follows key %d",
							win.Slide, workers, start, rows[i].Key, i, rows[i-1].Key)
					}
				}
			}
			return got
		}
		one, four := deliveries(1), deliveries(4)
		if len(one) < 5 || len(one[0]) != c.keys {
			t.Fatalf("slide=%d: %d windows, %d rows in the first: too small to cut into partitions", win.Slide, len(one), len(one[0]))
		}
		if len(four) != len(one) {
			t.Fatalf("slide=%d: %d windows on four workers, %d on one", win.Slide, len(four), len(one))
		}
		for start, rows := range one {
			if !slices.Equal(rows, four[start]) {
				t.Fatalf("slide=%d window %d: one worker delivered %d rows, four delivered %d, or their values differ",
					win.Slide, start, len(rows), len(four[start]))
			}
		}
	}
}

// rowsByWindowKey indexes captured rows for comparison.
func rowsByWindowKey(rows []winRow) map[wm.Time]map[uint64]uint64 {
	out := make(map[wm.Time]map[uint64]uint64)
	for _, r := range rows {
		m := out[r.Win]
		if m == nil {
			m = make(map[uint64]uint64)
			out[r.Win] = m
		}
		m[r.Key] = r.Val
	}
	return out
}

// TestPlanValidation rejects broken plans.
func TestPlanValidation(t *testing.T) {
	good := testPlan(ingress.NewRoundRobinKV(4, 1), 1000)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Gen = nil
	if bad.Validate() == nil {
		t.Fatal("nil generator must fail")
	}
	bad = good
	bad.KeyCol = 9
	if bad.Validate() == nil {
		t.Fatal("key column out of range must fail")
	}
	bad = good
	bad.NewAgg = nil
	if bad.Validate() == nil {
		t.Fatal("missing aggregator must fail")
	}
	bad = good
	bad.TotalRecords = 0
	if bad.Validate() == nil {
		t.Fatal("zero records must fail")
	}
}

// TestWindowsInRange covers the registration helper on fixed and
// sliding windowings.
func TestWindowsInRange(t *testing.T) {
	fixed := wm.Fixed(100)
	got := windowsInRange(fixed, 50, 250)
	want := []wm.Time{0, 100, 200}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	sliding := wm.Sliding(100, 50)
	got = windowsInRange(sliding, 120, 180)
	// Windows containing ts in [120,180]: starts 50, 100, 150.
	want = []wm.Time{50, 100, 150}
	if len(got) != len(want) {
		t.Fatalf("sliding: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sliding: got %v, want %v", got, want)
		}
	}
}

// TestWindowsInRangeMidSlide is the regression for the stepping
// implementation windowsInRange replaced: a bundle whose minimum
// timestamp sits mid-slide (not on a window-start boundary) must still
// register every window start in (lo, hi], including ones that begin
// after lo.
func TestWindowsInRangeMidSlide(t *testing.T) {
	w := wm.Sliding(1_000_000, 250_000)
	// min-ts 375_000 sits mid-slide between starts 250k and 500k.
	got := windowsInRange(w, 375_000, 1_100_000)
	want := []wm.Time{0, 250_000, 500_000, 750_000, 1_000_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestWindowsInRangeProperty cross-checks windowsInRange against direct
// enumeration — every window start s (a multiple of the slide) with
// s <= hi and s+Size > lo, and nothing else — across window shapes and
// offsets, including slides that do not divide the size.
func TestWindowsInRangeProperty(t *testing.T) {
	for _, shape := range []wm.Windowing{
		wm.Fixed(100), wm.Sliding(100, 50), wm.Sliding(100, 30),
		wm.Sliding(96, 7), wm.Sliding(10, 1),
	} {
		slide := shape.Slide
		if slide == 0 {
			slide = shape.Size
		}
		for lo := wm.Time(0); lo < 400; lo += 3 {
			for hi := lo; hi < lo+250; hi += 17 {
				got := windowsInRange(shape, lo, hi)
				var want []wm.Time
				for s := wm.Time(0); s <= hi; s += slide {
					if s+shape.Size > lo {
						want = append(want, s)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%+v lo=%d hi=%d: got %v, want %v", shape, lo, hi, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%+v lo=%d hi=%d: got %v, want %v", shape, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestNativeSlidingMidSlideBundle drives the sliding scatter path with
// a stream whose first bundle starts mid-slide (no record at ts 0) and
// checks no records are dropped: the total across all windows must be
// records x slide-multiplicity.
func TestNativeSlidingMidSlideBundle(t *testing.T) {
	plan := testPlan(ingress.NewRoundRobinKV(4, 1), 16_000)
	plan.Win = wm.Sliding(1_000_000, 250_000)
	rep, err := runCaptured(plan, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, r := range rep.Rows {
		total += r.Val
	}
	// 16k records of value 1, each landing in Size/Slide = 4 windows —
	// except the first Size of stream time, where windows clamp at start
	// 0: the 1000 records per slide there land in 1, 2 and 3 windows.
	want := uint64(16_000*4 - 1000*(3+2+1))
	if total != want {
		t.Fatalf("sliding windows summed %d, want %d — records were dropped or duplicated", total, want)
	}
}

// TestNativeAggFamily runs count and average on the same stream to
// cover non-sum aggregators end to end.
func TestNativeAggFamily(t *testing.T) {
	count := testPlan(ingress.NewRoundRobinKV(8, 3), 8_000)
	count.NewAgg = ops.Count()
	count.Label = "count"
	rep, err := runCaptured(count, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Val != 500 {
			t.Fatalf("count %d, want 500", r.Val)
		}
	}
	avg := testPlan(ingress.NewRoundRobinKV(8, 3), 8_000)
	avg.NewAgg = ops.Avg()
	avg.Label = "avg"
	rep, err = runCaptured(avg, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if r.Val != 3 {
			t.Fatalf("avg %d, want 3", r.Val)
		}
	}
}

var _ kpa.Allocator = placement{}
