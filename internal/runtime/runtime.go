// Package runtime is the native multicore execution backend: it runs
// declarative pipelines on real goroutines over real data, alongside
// the discrete-event simulator (internal/engine + internal/memsim)
// rather than replacing it. The structure mirrors the paper's runtime
// (§3, §5) and has exactly one grouping mechanism (§4, Table 2):
// extract a Key Pointer Array, form it into a sorted run, seal runs into
// fewer as they accumulate, merge what is left at window close.
//
// Ingest. One loop feeds every run: it pulls column batches from an
// ExternalFeed — the network's (internal/netio), or for a generator
// plan a genFeed that fills pooled DRAM column slabs through the
// generator — and seals each, as it is, into a DRAM record bundle that
// lends the feed's slabs back through Recycle when it frees. The loop
// stalls on backpressure before it takes a batch, registers each bundle
// with the windows it may reach and advances the watermark the feed
// reports.
//
// Extract. One task per bundle scatters the surviving records into
// non-overlapping panes (paired panes, wm.Panes: at most two per slide,
// every window an exact union of them) and forms one KPA run per
// bundle×pane (formRun): a word aggregator (sum, count) over
// keys that span fewer slots than the pane has rows folds them into a
// partial run of one pair per key — in one pass when they lie inside
// the last dense range a scan found —, and any other run is
// radix-sorted, one pair per row. A pair is (key, value): a plan
// aggregates one value column, so the extraction scan — the one pass
// that has the bundle's columns hot — stages the value where the
// paper's pair has a pointer, the same 16 bytes in the fast tier. That
// is the only time a record is read: the runs link no bundle, nothing
// downstream goes back to DRAM for a value, and the bundle (and the
// feed slab it adopted) is released when its extract task ends. A fixed
// window is the sliding window whose single pane is the whole window,
// so there is no second path. Runs are filed in the window table
// (windows.go) under their pane and reference counted, one reference
// per covering window still open (kpa.Retain/Destroy): each record is
// staged and formed once however many windows overlap it, and a run's
// slab returns to the mempool exactly once, when its last reader lets
// go.
//
// Seal. Runs are compacted while their pane fills, not when the
// watermark arrives — the paper's rule (§4, Table 2: stream sequentially
// over compact KPAs, dereference full records as rarely as possible —
// here never, after extraction) applied before the watermark instead of
// after. Registration gives each bundle a slot in its pane's current
// group of mergeFanIn consecutive bundles; when the last member files,
// one task merges the group's runs into one, which takes their place one
// level up, where mergeFanIn such runs seal again. When the aggregator
// is a kpa.WordFolder (sum, count) the merge is one fused
// merge-reduce into a partial run, one pair per distinct key, and the
// raw runs free after mergeFanIn bundles instead of one window; for any
// other aggregator it is a verbatim k-way merge, ties by run index, so
// order-sensitive folds see the same sequence. A seal is for capacity:
// in a pane only one window reads it spares the close no pass, so there
// a level-0 group seals only if it is a word fold whose runs bound its
// distinct keys — their distinct keys summed, or their key span if
// fewer — to at most half its pairs; any other group stays raw
// (windows.go). The aggregator and the runs decide, not an option and
// not another seal; and since groups are assigned on the ingest
// goroutine, every result — and which groups seal — is a function of
// the stream alone, whatever the workers.
//
// Close. When the watermark seals a window and its last pending
// extraction has landed, the window claims its close: in each pane a
// later window will read again it seals the runs no group took, so
// those windows merge one run instead of the raw ones again. Once every
// seal it owes has landed it merges what its panes hold — sealed runs,
// the runs of unfilled groups and of groups left raw — with the paper's
// §4.3 parallel full-KPA merge: the key space is range-partitioned once
// across all runs and each partition streams through a k-way merge
// fused with keyed reduction, folding the value each pair carries as it
// arrives — one sequential read of the inputs, no intermediate KPA, no
// separate reduce sweep, nothing that depends on the run count. Sum and
// count fold with no call per pair: into a table indexed by
// key when a partition's keys span fewer slots than it has pairs, else
// as the merge regroups its runs on a key digit and sorts each bucket;
// every other aggregator sees each pair in key order, from the same
// regroup. The merge kernel chooses between the two from its input.
// The window's rows fill one slab sized by what it can emit, one row per
// distinct key, and are published in key order.
//
// Late data. A record is late for a window iff the target watermark had
// reached the window's end when the record's bundle registered — both
// happen on the ingest goroutine, so the outcome is a function of the
// stream alone. Late windows are not re-opened: the record still joins
// every covering window that is open, and a record with none left is
// dropped and counted in Report.LateRecords. A window therefore
// publishes exactly once and Execution.SealedWatermark never moves
// backwards.
//
// Everything is scheduled on a worker pool with one ready queue that
// dispatches by the Urgent/High/Low performance-impact tags, then in
// submission order, with ingestion backpressure driven by mempool
// utilization.
//
// Memory. A run is placed once, when it is born, and never moves (the
// paper's rule): its slab goes to the first memory tier, HBM then DRAM,
// whose occupancy is under tierSetpoint; when neither is, to the spill
// arena if one is attached; failing that, to any memory tier with room.
// Urgent work takes the reserved pool first and then the same order. On
// this kind of host the two memory tiers are the same DIMMs, so they are
// budgets, not speeds — the paper's demand-balance knob trades HBM
// capacity against DRAM bandwidth and lives where a machine has both, in
// the simulator (internal/engine, Figure 10). With Config.SpillCapacity
// set the pool grows a third, physically distinct tier — an mmap'd cold
// spill file (internal/spill) attached as memsim.Spill — and the runs
// born there are read where they lie: seals and closes merge them over
// the mmap view, bit-identical to a run born in memory. Working sets ~2x
// the memory budget degrade into slower closes instead of
// ErrOverloaded/ErrExhausted.
package runtime

import (
	"cmp"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/metrics"
	"streambox/internal/spill"
	"streambox/internal/wm"
)

// BackpressureUtilization is the DRAM pool utilization above which
// ingest stalls — and above which the network ingest server withholds
// flow-control credits from clients.
const BackpressureUtilization = 0.95

// queuedTasksPerWorker caps the scheduler backlog, per worker, before
// ingest stalls.
const queuedTasksPerWorker = 8

// ShedUtilization is the pool pressure (mempool.Pool.Pressure) above
// which the ingest server sheds *new* connections at the handshake with
// an overloaded ack, rather than admitting another stream it cannot
// feed. Deliberately above BackpressureUtilization: established
// connections are throttled first; admission is refused only when
// throttling has not been enough.
const ShedUtilization = 0.98

// Filter keeps records whose column Col satisfies Keep; filters fuse
// into the extraction pass.
type Filter struct {
	Col  int
	Keep func(uint64) bool
}

// ExternalFeed is the one way records enter a native run: batches
// pushed from outside the process (network ingestion, internal/netio),
// or a generator plan's own genFeed. The runtime pulls batches from it
// and the run drains and terminates when the feed closes. Every batch
// is lent: the runtime never copies it, the bundle it seals over the
// columns owns them from Recv on, and Recycle gives them back.
type ExternalFeed interface {
	// Schema is the record layout of every batch.
	Schema() bundle.Schema
	// Recv blocks up to maxWait (forever when <= 0) for the next
	// column-major batch (one slice per schema column, equal lengths).
	// ok is false when the feed is closed and fully drained; idle is
	// true when maxWait elapsed first — the runtime uses idle ticks to
	// keep closing windows while connections are quiet.
	Recv(maxWait time.Duration) (cols [][]uint64, ok, idle bool)
	// Watermark is the stream's event-time watermark: the minimum over
	// connected sources of the highest timestamp each has delivered.
	// Windows ending at or before it are safe to close.
	Watermark() wm.Time
	// Recycle takes back a batch Recv handed out. It is the release
	// hook of the bundle sealed over the batch — called once per batch,
	// from whichever goroutine drops the bundle's last reference — or is
	// called at once for a batch the runtime cannot ingest. Nothing reads
	// cols afterwards.
	Recycle(cols [][]uint64)
}

// Plan is the native operator path: one source feeding
// filter* → window → keyed aggregation → capture/sink. The streambox
// package translates declarative pipelines into a Plan; pipelines
// outside this shape run on the simulated backend.
type Plan struct {
	// Gen produces the stream, through a genFeed; Source carries its
	// bundle size, window density and watermark cadence (Rate only sets
	// TotalRecords — the native backend runs as fast as the hardware
	// allows).
	Gen    engine.Generator
	Source engine.SourceConfig
	// Feed, when non-nil, replaces Gen: batches arrive pushed from the
	// network and the run lasts until the feed closes. Source is then
	// only consulted for WatermarkEvery (the watermark refresh cadence,
	// in batches).
	Feed ExternalFeed
	// Win is the pipeline windowing.
	Win wm.Windowing
	// TotalRecords is the number of records to ingest.
	TotalRecords int64
	// Filters are applied during extraction, in order.
	Filters []Filter
	// TsCol is the windowing timestamp column.
	TsCol int
	// KeyCol/ValCol and NewAgg define the keyed aggregation.
	KeyCol, ValCol int
	NewAgg         kpa.AggFactory
	// Label names the aggregation in errors and stats.
	Label string
}

// schema returns the record layout of the plan's source.
func (p Plan) schema() bundle.Schema {
	if p.Feed != nil {
		return p.Feed.Schema()
	}
	return p.Gen.Schema()
}

// Validate reports plan errors.
func (p Plan) Validate() error {
	if (p.Gen == nil) == (p.Feed == nil) {
		return fmt.Errorf("runtime: plan needs exactly one of Gen and Feed")
	}
	if p.Gen != nil {
		if err := p.Source.Validate(); err != nil {
			return err
		}
		if p.TotalRecords <= 0 {
			return fmt.Errorf("runtime: total records must be positive")
		}
	} else if p.Source.WatermarkEvery <= 0 {
		return fmt.Errorf("runtime: feed plans need a positive watermark cadence")
	}
	if err := p.Win.Validate(); err != nil {
		return err
	}
	if p.NewAgg == nil {
		return fmt.Errorf("runtime: plan has no aggregator")
	}
	schema := p.schema()
	if err := schema.Validate(); err != nil {
		return err
	}
	if p.TsCol < 0 || p.TsCol >= schema.NumCols {
		return fmt.Errorf("runtime: window timestamp column %d out of range", p.TsCol)
	}
	if p.KeyCol < 0 || p.KeyCol >= schema.NumCols {
		return fmt.Errorf("runtime: key column %d out of range", p.KeyCol)
	}
	if p.ValCol < 0 || p.ValCol >= schema.NumCols {
		return fmt.Errorf("runtime: value column %d out of range", p.ValCol)
	}
	for _, f := range p.Filters {
		if f.Col < 0 || f.Col >= schema.NumCols || f.Keep == nil {
			return fmt.Errorf("runtime: invalid filter on column %d", f.Col)
		}
	}
	return nil
}

// Config configures one native execution.
type Config struct {
	// Workers is the worker-pool size (0 = one per CPU, via GOMAXPROCS).
	Workers int
	// Machine bounds the mempool's tier capacities (zero value: KNL).
	// Only capacities are used — the native backend measures real time
	// instead of simulating it.
	Machine memsim.Config
	// ReservedHBM is the Urgent allocation pool (0 picks 256 MiB).
	ReservedHBM int64
	// ExhaustTimeout bounds how long ingest waits on an exhausted DRAM
	// pool before the run fails with an error instead of hanging
	// (0 picks 5 s).
	ExhaustTimeout time.Duration
	// WindowSink, when non-nil, receives every closed window's result
	// rows as it closes, once per window — the runtime's only output, and
	// the live-query feed for netio's result store. rows is ascending by
	// key, built once and handed over: the sink owns it and the runtime
	// never touches it again. It is called from worker goroutines and
	// must be safe for concurrent use.
	WindowSink func(start, end wm.Time, rows []Row)
	// SealedBefore suppresses externalization of windows already sealed
	// and published before a crash: windows whose end is at or before it
	// close normally but are not delivered to WindowSink. Recovery
	// replays the write-ahead log through the normal feed path with
	// SealedBefore set to the checkpoint's sealed watermark, so rebuilt
	// pre-sealed windows do not publish twice.
	SealedBefore wm.Time
	// SpillDir and SpillCapacity enable the mmap'd cold spill tier: a
	// SpillCapacity-byte temp file created under SpillDir (the system
	// temp dir when empty), mmap'd and immediately unlinked, attached to
	// the mempool as memsim.Spill. With the spill tier attached, runs
	// born while both memory tiers are over the placement setpoint are
	// born in the spill file and stay there, so overload degrades to
	// slower closes instead of ErrOverloaded/ErrExhausted. SpillCapacity
	// = 0 disables the tier.
	SpillDir      string
	SpillCapacity int64
}

// Row is one keyed result of a closed window, (key, aggregate); the
// window is the sink call's start argument.
type Row = kpa.Row

// Report summarises one native run with real (wall-clock) figures.
type Report struct {
	IngestedRecords int64
	EmittedRecords  int64
	WindowsClosed   int
	// Elapsed is real time; Throughput is real records/second.
	Elapsed    time.Duration
	Throughput float64
	// Sched reports worker-pool activity.
	Sched SchedStats
	// HBMKPAs/DRAMKPAs count KPA placements on the memory tiers;
	// SpilledRuns counts those in the spill arena.
	HBMKPAs, DRAMKPAs int64
	// PausedNanos is time ingest spent blocked on backpressure.
	PausedNanos int64
	// GCPauseNs is the Go garbage collector's stop-the-world pause time
	// accumulated over the run, and AllocsPerRecord the heap
	// allocations per ingested record — the figures the slab recycler
	// exists to drive down.
	GCPauseNs       int64
	AllocsPerRecord float64
	// AllocBytesPerRecord is the heap bytes allocated per ingested
	// record — the figure slab recycling changes most, since a missed
	// slab is one allocation but megabytes of garbage.
	AllocBytesPerRecord float64
	// SlabsRecycled counts pool allocations served from the slab free
	// lists instead of the Go heap.
	SlabsRecycled int64
	// PaneRuns counts the sorted pane runs a sliding-window plan built,
	// and SharedRunRefs the extra window references taken on them (open
	// covering windows minus one, per run). Both are 0 for fixed
	// windows, whose every run has exactly one owner.
	PaneRuns, SharedRunRefs int64
	// SealedPanes counts seals: a group of mergeFanIn runs of one pane
	// merged into one while the pane fills, or the runs no group took
	// merged at a window's claim for the later windows covering the
	// pane — into a partial run when the aggregator is a kpa.WordFolder,
	// verbatim when it is not. In a pane one window reads, a level-0
	// group seals only if the aggregator is a word fold and its runs
	// bound their distinct keys to at most half its pairs (windows.go);
	// SealsSkipped counts the level-0 groups left raw instead.
	// ClosePairs counts the pairs streamed through a merge visitor —
	// seals and the closing windows' final merge-reduce together: about
	// once per record when seals write partials, about the overlap plus
	// one when they copy verbatim. All three are functions of the stream
	// alone and repeat exactly.
	SealedPanes, SealsSkipped, ClosePairs int64
	// LateRecords counts records dropped because every window covering
	// them was already sealed when their bundle arrived.
	LateRecords int64
	// ExtractedPairs counts logical (record, window) grouping
	// assignments; ExtractNanos is worker time spent in the extraction
	// + run-formation tasks producing them. Their ratio is the
	// extract-side pair throughput, which pane sharing multiplies by the
	// window overlap (each pair is staged and sorted once per pane, not
	// once per window). Time per stage is a CPU profile's stage labels
	// (metrics.Stage); ExtractNanos stays while benchmark/ reads it.
	ExtractedPairs int64
	// FormedPairs counts the pairs written into level-0 runs: one per
	// surviving record when a run is sorted, one per distinct key of a
	// pane's rows when they fold at formation (a word aggregator over a
	// dense key span), so it falls below IngestedRecords exactly when runs
	// are born partial.
	FormedPairs  int64
	ExtractNanos int64
	// PeakWindowStateBytes is the high-water mark of live grouped
	// window state (sorted runs plus merge intermediates) per tier,
	// indexed by memsim.Tier. Pane sharing keeps the sliding-window
	// figure at ~one copy of the records in flight rather than overlap
	// copies. The two marks are independent maxima;
	// PeakWindowStateTotalBytes is the true combined high-water mark
	// (the figure to hold against pool capacity), which can be less
	// than their sum when placement shifts between tiers.
	PeakWindowStateBytes      [memsim.NumTiers]int64
	PeakWindowStateTotalBytes int64
	// Degradation-ladder figures, all zero when Config.SpillCapacity is
	// 0. SpilledRuns/SpilledBytes count the runs, and their bytes, born
	// in the mmap'd spill arena. A spilled run is merged over its mmap
	// view, never loaded back, and no controller moves runs after birth,
	// so SpillLoads, SpillLoadNanos, SpillLoadFallbacks and CtrlDecisions
	// read 0; the fields stay while benchmark/ reads them.
	SpilledRuns        int64
	SpilledBytes       int64
	SpillLoads         int64
	SpillLoadNanos     int64
	SpillLoadFallbacks int64
	CtrlDecisions      int64
	// CloseP99Nanos is the 99th-percentile window close latency
	// (close request to retirement), 0 when no window closed.
	CloseP99Nanos int64
}

// exec carries one run's state.
type exec struct {
	plan  Plan
	cfg   Config
	sched *scheduler
	pool  *mempool.Pool
	reg   *bundle.Registry
	// feed is the run's source: the plan's Feed, or a genFeed over its
	// generator.
	feed ExternalFeed
	// scratch draws transient kernel buffers (radix scatter, staged seal
	// output) from the pool's slab free lists, per tier.
	scratch [memsim.NumTiers]*algo.Scratch

	// table is the window/pane registry; it owns the target watermark.
	table *windowTable

	// fold is the word operation of the plan's aggregator, 0 when it has
	// none: with one, a pane's rows over a dense key span form a partial
	// run (formRun).
	fold kpa.WordOp
	// dense is the key range of the last run formation scanned and found
	// Dense, nil before the first: formRun folds over it before it
	// scans. Extract tasks read and replace it concurrently; any range it
	// holds came from a scan, so an outdated one can only miss.
	dense atomic.Pointer[keyRange]

	// m is the run's instrumentation: every counter, gauge and histogram
	// the report and /metrics read (stats.go).
	m *stats

	// spillFile is the mmap'd spill arena (Config.SpillCapacity > 0), nil
	// when the ladder has no cold rung.
	spillFile *spill.File

	emu sync.Mutex
	err error // the run's first error
}

// Run executes the plan and blocks until every record is ingested and
// every window is closed.
func Run(plan Plan, cfg Config) (Report, error) {
	e, err := Start(plan, cfg)
	if err != nil {
		return Report{}, err
	}
	return e.Wait()
}

// Execution is a live native run started with Start. Metrics exposes the
// engine state the serving layer serves on /metrics while the run is in
// flight, and Wait delivers the final report after the source
// (generator or network feed) is exhausted and every window has closed.
type Execution struct {
	x    *exec
	done chan struct{}
	rep  Report
	err  error
}

// Wait blocks until the run completes and returns its report. For feed
// plans the run completes when the feed closes and drains; close the
// ingest listener to initiate a graceful drain.
func (e *Execution) Wait() (Report, error) {
	<-e.done
	return e.rep, e.err
}

// Done is closed when the run completes — including fatal pipeline
// errors, so the serving layer can tear down its listeners instead of
// accepting traffic for a dead pipeline.
func (e *Execution) Done() <-chan struct{} { return e.done }

// Metrics returns the run's series for /metrics; the report is filled
// from the same counters. The mempool's are MemPool().Metrics().
func (e *Execution) Metrics() *metrics.Set { return &e.x.m.set }

// SealedWatermark returns the conservative watermark through which
// every window has fully externalized: the target watermark, held back
// to just below the end of any window still open or still publishing
// to the WindowSink. A checkpoint taken at this watermark together
// with the sink's published results covers every record of every
// window ending at or before it. It never moves backwards.
func (e *Execution) SealedWatermark() wm.Time { return e.x.table.sealedWatermark() }

// MemSnapshot returns a consistent view of the mempool.
func (e *Execution) MemSnapshot() mempool.Snapshot { return e.x.pool.Snapshot() }

// MemPool exposes the execution's slab allocator. The serving layer
// wires it into the ingest feed so wire-side column batches draw from
// the same recycling allocator as every other engine buffer — one
// owner for all column memory, with /metrics occupancy to match — and
// reads its ingest policy's signals off it: DRAM utilization against
// BackpressureUtilization for credits, Pressure against ShedUtilization
// for admission.
func (e *Execution) MemPool() *mempool.Pool { return e.x.pool }

// Start launches the plan on the worker pool and returns immediately;
// use Wait for the final report.
func Start(plan Plan, cfg Config) (*Execution, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	machine := cfg.Machine
	if machine.Cores == 0 {
		machine = memsim.KNLConfig()
	}
	reserved := cfg.ReservedHBM
	if reserved == 0 {
		reserved = 256 << 20
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = numCPUWorkers()
	}
	if cfg.ExhaustTimeout <= 0 {
		cfg.ExhaustTimeout = 5 * time.Second
	}

	x := &exec{
		plan:  plan,
		cfg:   cfg,
		sched: newScheduler(workers),
		pool:  mempool.New(machine, reserved),
		reg:   bundle.NewRegistry(),
	}
	x.feed = plan.Feed
	if x.feed == nil {
		x.feed = newGenFeed(plan, x.pool)
	}
	if w, ok := plan.NewAgg().(kpa.WordFolder); ok {
		x.fold = w.WordOp()
	}
	x.table = newWindowTable(plan.Win, x.fold != 0)
	x.m = newStats(x)
	x.scratch[memsim.HBM] = x.pool.ScratchFor(memsim.HBM)
	x.scratch[memsim.DRAM] = x.pool.ScratchFor(memsim.DRAM)
	// Spill-resident runs (the ladder's last rung) sort and merge with
	// DRAM scratch: transient kernel buffers never live in the arena.
	x.scratch[memsim.Spill] = x.scratch[memsim.DRAM]

	if cfg.SpillCapacity > 0 {
		f, err := spill.Create(cfg.SpillDir, cfg.SpillCapacity)
		if err != nil {
			x.sched.Close()
			return nil, fmt.Errorf("runtime: creating spill tier: %w", err)
		}
		x.spillFile = f
		x.pool.AttachSpill(f)
	}

	e := &Execution{x: x, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		var ms0 goruntime.MemStats
		goruntime.ReadMemStats(&ms0)
		start := time.Now()
		x.ingest()
		// Final watermark: past every generated timestamp, closing all
		// remaining windows once their extractions drain.
		x.watermark(^wm.Time(0) - plan.Win.Size)
		x.sched.Wait()
		elapsed := time.Since(start)
		x.sched.Close()
		if x.spillFile != nil {
			x.spillFile.Close()
		}
		var ms1 goruntime.MemStats
		goruntime.ReadMemStats(&ms1)

		m := x.m
		ingested := m.ingested.Load()
		rep := Report{
			IngestedRecords: ingested,
			EmittedRecords:  m.emitted.Load(),
			WindowsClosed:   x.table.closedWindows(),
			Elapsed:         elapsed,
			Sched:           x.sched.Stats(),
			HBMKPAs:         m.placements[memsim.HBM].Load(),
			DRAMKPAs:        m.placements[memsim.DRAM].Load(),
			PausedNanos:     m.paused.Load(),
			GCPauseNs:       int64(ms1.PauseTotalNs - ms0.PauseTotalNs),
			SlabsRecycled:   x.pool.Snapshot().Recycled,
			PaneRuns:        m.paneRuns.Load(),
			SharedRunRefs:   m.sharedRunRefs.Load(),
			SealedPanes:     m.sealedPanes.Load(),
			SealsSkipped:    int64(x.table.sealsSkipped()),
			ClosePairs:      m.closePairs.Load(),
			LateRecords:     m.late.Load(),
			ExtractedPairs:  m.extractPairs.Load(),
			FormedPairs:     m.formedPairs.Load(),
			ExtractNanos:    m.extractNanos.Load(),
			PeakWindowStateBytes: [memsim.NumTiers]int64{
				m.peakState[0].Load(), m.peakState[1].Load(), m.peakState[2].Load(),
			},
			PeakWindowStateTotalBytes: m.peakTotal.Load(),
			SpilledRuns:               m.placements[memsim.Spill].Load(),
			SpilledBytes:              m.placedBytes[memsim.Spill].Load(),
			CloseP99Nanos:             m.closeLatency.Quantile(0.99),
		}
		if ingested > 0 {
			rep.AllocsPerRecord = float64(ms1.Mallocs-ms0.Mallocs) / float64(ingested)
			rep.AllocBytesPerRecord = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ingested)
		}
		if sec := elapsed.Seconds(); sec > 0 {
			rep.Throughput = float64(ingested) / sec
		}
		x.emu.Lock()
		e.err = x.err
		x.emu.Unlock()
		e.rep = rep
	}()
	return e, nil
}

// genFeed is a generator plan's source seen as a feed. Each Recv fills
// one Source.BundleRecords batch of pooled DRAM column slabs, until
// TotalRecords are out, and Recycle gives the slabs back. Event time
// advances Win.Size / WindowRecords per record: a batch of n records
// spans [tsLo, tsLo + n × that), from which the generator draws its
// timestamps.
type genFeed struct {
	gen  engine.Generator
	pool *mempool.Pool
	// reg hands out the builders Fill appends through. They are never
	// sealed: the batch goes to the run as columns, and the run's own
	// registry numbers the bundle sealed over them.
	reg         *bundle.Registry
	batch       int
	left        int64 // records not yet handed out
	tsPerRecord float64
	next        wm.Time // end of the event time handed out so far
}

func newGenFeed(p Plan, pool *mempool.Pool) *genFeed {
	return &genFeed{
		gen:         p.Gen,
		pool:        pool,
		reg:         bundle.NewRegistry(),
		batch:       p.Source.BundleRecords,
		left:        p.TotalRecords,
		tsPerRecord: float64(p.Win.Size) / float64(p.Source.WindowRecords),
	}
}

// Schema implements ExternalFeed.
func (g *genFeed) Schema() bundle.Schema { return g.gen.Schema() }

// Recv implements ExternalFeed. A generator never waits, so a batch is
// never idle. Fill is the source's time, not the ingest loop's: it runs
// in stage fill.
func (g *genFeed) Recv(time.Duration) ([][]uint64, bool, bool) {
	if g.left <= 0 {
		return nil, false, false
	}
	n := int(min(int64(g.batch), g.left))
	tsLo := g.next
	tsHi := max(tsLo+wm.Time(float64(n)*g.tsPerRecord), tsLo+1)
	schema := g.gen.Schema()
	cols := make([][]uint64, schema.NumCols)
	for i := range cols {
		cols[i] = g.pool.TakeCol(memsim.DRAM, n)[:0]
	}
	// The builder appends into the slabs and keeps each grown column in
	// cols, which it owns header and all. It cannot fail: Plan.Validate
	// checked the schema and every column is empty.
	bd, _ := g.reg.NewBuilderOver(schema, cols, memsim.DRAM, nil)
	metrics.StageFill.Enter()
	g.gen.Fill(bd, n, tsLo, tsHi)
	metrics.StageIngest.Enter()
	g.left -= int64(n)
	g.next = tsHi
	return cols, true, false
}

// Watermark implements ExternalFeed: every record handed out so far is
// before it.
func (g *genFeed) Watermark() wm.Time { return g.next }

// Recycle implements ExternalFeed.
func (g *genFeed) Recycle(cols [][]uint64) {
	for _, c := range cols {
		g.pool.PutCol(memsim.DRAM, c)
	}
}

// stallIngest blocks while the scheduler backlog or DRAM utilization is
// above the backpressure thresholds (the native analogue of the monitor
// pausing sources in the simulator). The utilization wait is bounded —
// a pool that stays full is handled by the exhaustion path.
func (x *exec) stallIngest() {
	t0 := time.Now()
	waited := x.sched.WaitQueuedBelow(queuedTasksPerWorker * x.sched.Workers())
	if !waited && x.pool.Utilization(memsim.DRAM) <= BackpressureUtilization {
		return
	}
	for x.pool.Utilization(memsim.DRAM) > BackpressureUtilization && time.Since(t0) < time.Second {
		time.Sleep(200 * time.Microsecond)
	}
	x.m.paused.Add(time.Since(t0).Nanoseconds())
}

// feedIdleTick is how long ingest waits on a quiet feed before it
// advances the watermark anyway.
const feedIdleTick = 100 * time.Millisecond

// ingest is the driver loop: each batch the feed hands out becomes a
// bundle as it is — sealed over the columns the feed delivered, which go
// back through the feed's Recycle when the bundle's last reference
// drops (or here, for a batch that never becomes one) — and one
// extraction task, and the watermark follows the feed's on the
// configured cadence. Backpressure stalls the loop before it takes a
// batch — and because the serving layer wires DRAM utilization into the
// ingest server's credit policy, a stall here reaches network clients
// as withheld credits rather than unbounded buffering. The loop exits
// when the feed closes (a generator's last batch, a listener shutdown)
// and the caller's final watermark drains every open window.
func (x *exec) ingest() {
	feed := x.feed
	schema := feed.Schema()
	recycle := feed.Recycle // one method value, not one per bundle
	reject := func(cols [][]uint64, err error) {
		x.recordError(err)
		recycle(cols)
	}
	var bundleCnt int
	for {
		metrics.StageIngest.Enter() // after an empty window's inline publish
		// Stall before taking a batch off the feed, so a backlog holds
		// batches in the feed's bounded queue, not here.
		x.stallIngest()
		// The idle tick advances the watermark while connections are
		// quiet, so a burst's trailing windows close (and become
		// queryable) without waiting for the next batch or a shutdown.
		// Every batch delivered so far is registered, so the feed's
		// watermark is safe to apply here.
		cols, ok, idle := feed.Recv(feedIdleTick)
		if idle {
			if w := feed.Watermark(); w > 0 {
				x.watermark(w)
			}
			continue
		}
		if !ok {
			return
		}
		if len(cols) != schema.NumCols || len(cols[0]) == 0 {
			reject(cols, fmt.Errorf("runtime: feed batch has %d columns, schema wants %d", len(cols), schema.NumCols))
			continue
		}
		if len(cols[x.plan.TsCol]) == 0 {
			reject(cols, fmt.Errorf("runtime: feed batch window column %d is empty (%d-row batch)", x.plan.TsCol, len(cols[0])))
			continue
		}
		// One min/max pass over the batch's window column serves both the
		// exhaustion path's watermark clamp and extraction registration.
		minTs, maxTs := minMax(cols[x.plan.TsCol])
		b, err := x.ingestBundle(schema, cols, recycle, minTs)
		if err != nil {
			x.recordError(err)
			return
		}
		x.m.ingested.Add(int64(b.Rows()))
		x.submitExtract(b, minTs, maxTs)
		bundleCnt++
		if bundleCnt%x.plan.Source.WatermarkEvery == 0 {
			if w := feed.Watermark(); w > 0 {
				x.watermark(w)
			}
		}
	}
}

// ingestBundle seals one ingress bundle over the feed's batch cols,
// charged to the DRAM pool first and riding out an exhausted pool. cols
// are the bundle's from here on: release takes them back when the
// bundle is reclaimed, or now if no bundle comes of them.
//
// An exhausted pool can only get memory back from window closure — runs
// never move once placed, and with a spill arena attached they are
// already born there once both memory tiers pass the setpoint — and
// watermarks only advance on the ingest goroutine: so it forces one to
// drain every window behind the stream, pauses, stalls and retries. The
// forced watermark is the feed's, clamped below minTs, this
// still-unregistered batch's earliest timestamp, so no window it
// contributes to closes early (the feed's watermark already covers the
// batch). A pool that stays exhausted for Config.ExhaustTimeout
// (pipeline state exceeds DRAM) fails the run instead of hanging.
func (x *exec) ingestBundle(schema bundle.Schema, cols [][]uint64, release func([][]uint64), minTs wm.Time) (b *bundle.Bundle, err error) {
	defer func() {
		if err != nil {
			release(cols)
		}
	}()
	var exhaustedSince time.Time
	for {
		b, err = x.buildBundle(schema, cols, release)
		var ee *mempool.ErrExhausted
		if !errors.As(err, &ee) {
			return b, err
		}
		x.watermark(min(x.feed.Watermark(), minTs))
		if exhaustedSince.IsZero() {
			exhaustedSince = time.Now()
		} else if time.Since(exhaustedSince) > x.cfg.ExhaustTimeout {
			return nil, fmt.Errorf("runtime: %s: DRAM exhausted for %v: pipeline state exceeds machine DRAM (%w)",
				x.plan.Label, x.cfg.ExhaustTimeout, err)
		}
		t0 := time.Now()
		time.Sleep(200 * time.Microsecond)
		x.m.paused.Add(time.Since(t0).Nanoseconds())
		x.stallIngest()
	}
}

// buildBundle charges a bundle over cols to the DRAM pool, then seals
// it. An exhausted pool surfaces as *mempool.ErrExhausted before cols
// are touched.
func (x *exec) buildBundle(schema bundle.Schema, cols [][]uint64, release func([][]uint64)) (*bundle.Bundle, error) {
	alloc, err := x.pool.Alloc(memsim.DRAM, int64(len(cols[0]))*schema.RecordBytes())
	if err != nil {
		return nil, err
	}
	bd, err := x.reg.NewBuilderOver(schema, cols, memsim.DRAM, release)
	if err == nil {
		err = bd.AttachAlloc(alloc)
	}
	if err != nil {
		alloc.Free()
		return nil, err
	}
	return bd.Seal(), nil
}

// minMax returns the smallest and largest value of a non-empty column.
func minMax(ts []uint64) (lo, hi uint64) {
	lo, hi = ts[0], ts[0]
	for _, v := range ts[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// submitExtract registers the bundle with every open window it may
// contribute to before the extract+sort task runs, so a racing
// watermark defers their closure until extraction lands, and tags the
// task from maxTs. minTs/maxTs bound the values of the plan's window
// column — which the Window stage chooses and need not be the schema's
// timestamp column — so registration and partitioning agree.
func (x *exec) submitExtract(b *bundle.Bundle, minTs, maxTs wm.Time) {
	reg := x.table.register(minTs, maxTs)
	x.sched.Submit(x.tagFor(maxTs), func() { x.extract(b, reg, minTs, maxTs) })
}

// tagFor classifies work on data at event time ts against the current
// target watermark.
func (x *exec) tagFor(ts wm.Time) engine.Tag {
	return engine.TagFor(x.plan.Win, x.table.target.Load(), ts)
}

// extract is the native grouping front half, one task per bundle: sort
// the bundle's rows into pane runs and file them as window state; then
// start the seal of any group this bundle completed and any close that
// waited on it — after ExtractNanos stops: a close sorts and cuts its
// runs inline. reg is what register returned for the bundle; with no
// window open the whole bundle is late.
func (x *exec) extract(b *bundle.Bundle, reg registration, minTs, maxTs wm.Time) {
	metrics.StageExtract.Enter()
	t0 := time.Now()
	var seals []paneSeal
	var toClose []wm.Time
	if len(reg.wins) == 0 {
		x.m.late.Add(int64(b.Rows()))
	} else {
		seals, toClose = x.table.fileRuns(reg, x.sortPanes(b, reg, minTs, maxTs))
	}
	b.Release() // the runs hold values, not pointers: the bundle frees here
	x.m.extractNanos.Add(time.Since(t0).Nanoseconds())
	for _, s := range seals {
		x.submitSeal(s)
	}
	for _, w := range toClose {
		x.submitClose(w)
	}
}

// extractSlab is a straddling extraction's pooled scratch: the pane
// counts, cursors and row tags, and the kept rows' key and value columns
// staged pane by pane. Pooling the wrapper struct (not the slices) keeps
// the steady-state path free of the heap allocations those arrays would
// otherwise cost per bundle.
type extractSlab struct {
	ints []int
	cols []uint64
}

var extractSlabs = sync.Pool{New: func() any { return new(extractSlab) }}

// getExtractSlab returns scratch of nInts ints and nCols words, contents
// stale, inside its pooled wrapper; return it with extractSlabs.Put.
func getExtractSlab(nInts, nCols int) *extractSlab {
	s := extractSlabs.Get().(*extractSlab)
	if cap(s.ints) < nInts {
		s.ints = make([]int, nInts)
	}
	if cap(s.cols) < nCols {
		s.cols = make([]uint64, nCols)
	}
	s.ints, s.cols = s.ints[:nInts], s.cols[:nCols]
	return s
}

// sortPanes puts each surviving row of the bundle into exactly one pane
// and returns one level-0 run per non-empty pane — run formation. Each
// pane's rows, as a key and a value column, form their run in formRun:
// a partial run of one pair per distinct key when the plan's aggregator
// has a word operation and the keys span a dense range, else every pair
// sorted by key; seals and closes merge either kind
// (algo.MultiMergeFold).
//
// Most bundles lie inside one pane, with no filter to apply and nothing
// late: the pane's columns are the bundle's. Otherwise pass one tags
// each row with its pane (or as dropped) and counts the panes, and pass
// two stages the kept rows' keys and values pane by pane, in row order,
// so filters — pure per-value predicates — and the pane lookup run once
// per row. Rows mostly ascend in time, so a row is first held against
// the bounds of the previous row's pane and only a row outside them pays
// the division that finds a pane from scratch.
//
// A pair's second word is the record's value, not a pointer to it: the
// value column is read here, once and sequentially, while this scan has
// the bundle's columns hot, instead of through 32 bundles' worth of
// pointers when the group seals. The runs link no bundle, so the bundle
// — and the feed slab under it — is released when this task ends.
//
// Each run is shared: it takes one reference per open window covering
// its pane, every one of those windows merges it (or the run it is
// sealed into) at close, and it joins the group register assigned the
// bundle in that pane. Rows before the first window still open when the
// bundle registered have no open covering window: they are late, and
// dropped ahead of the filters.
func (x *exec) sortPanes(b *bundle.Bundle, reg registration, minTs, maxTs wm.Time) []filedRun {
	firstOpen := reg.wins[0]
	keys := b.Col(x.plan.KeyCol)
	vals := b.Col(x.plan.ValCol)
	ts := b.Col(x.plan.TsCol)
	panes := x.table.panes
	base := panes.Index(max(minTs, firstOpen))
	nPanes := len(reg.groups) // register walked the panes base..Index(maxTs)
	runs := make([]filedRun, 0, nPanes)

	if nPanes == 1 && minTs >= firstOpen && len(x.plan.Filters) == 0 {
		if r, ok := x.formRun(b, reg.groups[0], panes.Start(base), firstOpen, keys, vals); ok {
			runs = append(runs, r)
		}
		return runs
	}

	slab := getExtractSlab(2*nPanes+len(ts), 2*len(ts))
	defer extractSlabs.Put(slab)
	counts, cursor, tag := slab.ints[:nPanes], slab.ints[nPanes:2*nPanes], slab.ints[2*nPanes:]
	clear(slab.ints[:nPanes])
	late := 0
	// [lo, hi) is pane p, the last kept row's; empty to begin with, so
	// the first row looks its pane up.
	var lo, hi wm.Time
	p := 0
rows:
	for i, t := range ts {
		tag[i] = -1
		if t < firstOpen {
			late++
			continue
		}
		for _, f := range x.plan.Filters {
			if !f.Keep(b.At(i, f.Col)) {
				continue rows
			}
		}
		if t-lo >= hi-lo { // unsigned, so t < lo lands here too
			p = int(panes.Index(t) - base)
			lo = panes.Start(base + uint64(p))
			hi = panes.End(lo)
		}
		tag[i] = p
		counts[p]++
	}
	if late > 0 {
		x.m.late.Add(int64(late))
	}

	// Pane p's rows are staged in row order from where the panes before
	// it end, in both columns; its cursor ends where they do.
	kept := 0
	for pi, c := range counts {
		cursor[pi] = kept
		kept += c
	}
	skeys, svals := slab.cols[:kept], slab.cols[len(ts):len(ts)+kept]
	for i, p := range tag {
		if p >= 0 {
			skeys[cursor[p]], svals[cursor[p]] = keys[i], vals[i]
			cursor[p]++
		}
	}
	for pi, c := range counts {
		if c == 0 {
			continue
		}
		from, to := cursor[pi]-c, cursor[pi]
		if r, ok := x.formRun(b, reg.groups[pi], panes.Start(base+uint64(pi)), firstOpen, skeys[from:to], svals[from:to]); ok {
			runs = append(runs, r)
		}
	}
	return runs
}

// keyRange is the key range [lo, lo+span] of a scan formRun found Dense.
type keyRange struct {
	lo   uint64
	span int
}

// formRun forms the level-0 run of one pane's rows of bundle b, the
// pairs (keys[i], vals[i]) in row order. When the plan's aggregator has
// a word operation (x.fold) and the keys pass the table rule a seal's
// fold takes (algo.KeyScan.Dense: a span below both the rows and the
// table), the rows fold into a partial run, allocated at its
// distinct-key count (kpa.FoldColumns); otherwise every pair is sorted,
// stably, into a run of one pair per row (kpa.SortColumns), so equal
// keys keep row order for an aggregator that needs it.
//
// A word fold first tries the last range a scan found Dense (x.dense),
// when its span is below the rows: keys all inside it span no more, so
// they pass the rule too, and they fold in the one pass without a scan.
// Only a key outside it sends the rows to the scan (algo.ScanKeys),
// which decides as above and, when it finds them Dense, makes their
// range the one tried next. Which runs fold is the keys' alone, and so
// are the pairs formed.
//
// Either run is placed by the allocator's one rule, stamped with its
// provenance (producing bundle, pane) so closes order runs
// deterministically, holds one reference per open window covering the
// pane, and is bound for g, the group register gave the bundle there.
// It goes to the table with its least and greatest key and, for a word
// fold, its distinct keys — a folded run's length, a sorted run's key
// changes —, which decide whether g seals in a pane one window reads.
// ok is false after an allocation error, which is recorded.
func (x *exec) formRun(b *bundle.Bundle, g *runGroup, pane, firstOpen wm.Time, keys, vals []uint64) (filedRun, bool) {
	from, open := x.table.openCovering(pane, firstOpen)
	// Logical (record, window) assignments: what scattering every
	// record into every window would have staged physically.
	x.m.extractPairs.Add(int64(len(keys)) * int64(open))
	al := x.allocator(x.tagFor(pane))
	var (
		k        *kpa.KPA
		folded   bool
		err      error
		distinct int
	)
	if r := x.dense.Load(); x.fold != 0 && r != nil && r.span < len(keys) {
		k, folded, err = kpa.FoldColumns(keys, vals, r.lo, r.span, x.plan.KeyCol, x.fold, al)
	}
	if !folded && err == nil {
		scan := algo.ScanKeys(keys)
		if span, dense := scan.Dense(); x.fold != 0 && dense {
			x.dense.Store(&keyRange{scan.Lo, span})
			k, folded, err = kpa.FoldColumns(keys, vals, scan.Lo, span, x.plan.KeyCol, x.fold, al)
		} else if k, _, err = kpa.NewValues(len(keys), x.plan.KeyCol, al); err == nil {
			kpa.SortColumns(k, keys, vals, scan, x.scratch[k.Tier()])
			if x.fold != 0 {
				distinct = keyChanges(k.Pairs())
			}
		}
	}
	if folded {
		distinct = k.Len()
	}
	if err != nil {
		x.recordError(err)
		return filedRun{}, false
	}
	x.m.formedPairs.Add(int64(k.Len()))
	k.SetMeta(algo.RunMeta{Origin: b.ID(), Lo: pane})
	x.noteKPA(k)
	k.Retain(open - 1)
	if !x.plan.Win.IsFixed() {
		x.m.paneRuns.Add(1)
		x.m.sharedRunRefs.Add(int64(open - 1))
	}
	pairs := k.Pairs()
	return filedRun{paneRun{k: k, from: from, group: g}, pane, distinct, pairs[0].Key, pairs[len(pairs)-1].Key}, true
}

// keyChanges counts the distinct keys of sorted pairs.
func keyChanges(pairs []algo.Pair) int {
	n := 1
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key != pairs[i-1].Key {
			n++
		}
	}
	return n
}

// watermark advances the target watermark and starts the close of every
// sealed window with no extraction pending.
func (x *exec) watermark(w wm.Time) {
	for _, start := range x.table.advance(w, time.Now()) {
		x.submitClose(start)
	}
}

// mergeFanIn is how many runs seal into one: a pane's group size, at
// every level. It bounds how many runs a sealed level holds, not what a
// close takes: a pane one window reads may leave its groups raw, and the
// close merges any number of runs in one fused merge-reduce pass.
const mergeFanIn = 32

// minClosePartitionPairs is the smallest merge-reduce partition worth
// its own task; tiny windows close on one core instead of paying
// per-task overhead for a few hundred pairs each.
const minClosePartitionPairs = 8 << 10

// submitClose offers a window's close: if the window is ready it claims
// it, starts one task per pane it must seal, starts its merge when it
// owes no seal, and offers the later windows the claim made ready.
func (x *exec) submitClose(start wm.Time) {
	c, ok := x.table.claim(start)
	if !ok {
		return
	}
	for _, s := range c.seals {
		x.submitSeal(s)
	}
	if c.merge {
		x.submitMergeReduce(start, c.runs)
	}
	for _, w := range c.next {
		x.submitClose(w)
	}
}

// submitSeal starts the task that merges a seal's runs into one. It
// carries the tag of the data it compacts, like the extraction that
// filed them.
func (x *exec) submitSeal(s paneSeal) {
	tag := x.tagFor(s.pane)
	x.sched.Submit(tag, func() { x.sealPane(s, tag) })
}

// sealPane merges a seal's runs into one, in provenance order — the
// merged run takes the first one's place in it — lands it in the window
// table for every window that owed the seal, drops every reference they
// held on the sealed runs, so their slabs free now, and starts the seal
// of the group the merged run completed and the merge of each window
// that owed only this seal. When the pool cannot host the merged run the
// runs go back as they were and nobody's references move.
func (x *exec) sealPane(s paneSeal, tag engine.Tag) {
	metrics.StageSeal.Enter()
	runs := make([]*kpa.KPA, len(s.raw))
	for i, r := range s.raw {
		runs[i] = r.k
	}
	sortByProvenance(runs)
	merged, err := x.sealRuns(runs, x.allocator(tag))
	if err != nil {
		merged = nil
	} else {
		merged.SetMeta(runs[0].Meta())
		merged.Retain(len(s.owers) - 1)
	}
	seals, toMerge := x.table.paneSealed(s, merged)
	if merged != nil {
		x.m.sealedPanes.Add(1)
		for _, r := range runs {
			for range s.owers {
				x.destroyRun(r)
			}
		}
	}
	for _, next := range seals {
		x.submitSeal(next)
	}
	for _, w := range toMerge {
		x.submitMergeReduce(w, x.table.gather(w))
	}
}

// sortByProvenance orders runs by pane, then producing bundle, so a
// merge's equal-key tie-break — and with it any order-sensitive
// aggregator — is independent of which task finished first, and of
// which groups sealed: a group is consecutive bundles of one pane. A
// key's values fold in (pane, bundle, row) order, which is arrival order
// when bundles arrive in event-time order with time-ordered records
// (every generator; a connection sending in order).
func sortByProvenance(runs []*kpa.KPA) {
	slices.SortFunc(runs, func(a, b *kpa.KPA) int {
		return cmp.Or(cmp.Compare(a.Meta().Lo, b.Meta().Lo), cmp.Compare(a.Meta().Origin, b.Meta().Origin))
	})
}

// sealRuns seals a group of runs into one, noted as window state: a
// partial run when the plan's aggregator combines, a verbatim copy when
// it does not (kpa.Seal). The inputs stay valid.
func (x *exec) sealRuns(runs []*kpa.KPA, al kpa.Allocator) (*kpa.KPA, error) {
	merged, err := kpa.Seal(runs, x.plan.ValCol, x.plan.NewAgg, al, x.scratch[memsim.DRAM])
	if err != nil {
		return nil, err
	}
	x.noteKPA(merged)
	for _, r := range runs {
		x.m.closePairs.Add(int64(r.Len()))
	}
	return merged, nil
}

// submitMergeReduce closes a window in one streaming pass: the key
// space is partitioned across the runs with balanced key-aligned cuts,
// and each partition runs a fused merge + keyed reduction task over the
// pairs and the values they carry — no merged KPA is ever materialized.
// The window's rows are one slab sized by what the partitions can emit:
// one row per distinct key, so each partition gets a sub-range of
// kpa.RowBound rows — its key span on narrow keys, its pairs on hashed
// ones — disjoint from the others' and in key order. The last partition
// to finish destroys the runs and publishes the window. One merge takes
// every run, however many a pane left raw: the regroup the merge kernel
// takes for many runs costs the same per pair whatever their count.
func (x *exec) submitMergeReduce(start wm.Time, runs []*kpa.KPA) {
	if len(runs) == 0 {
		x.finishWindow(start, nil, nil, nil)
		return
	}
	sortByProvenance(runs)
	tag := x.tagFor(start)
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	p := x.sched.Workers()
	if byWidth := (total + minClosePartitionPairs - 1) / minClosePartitionPairs; byWidth < p {
		p = byWidth
	}
	cuts, err := kpa.MergeCuts(runs, p)
	if err != nil || len(cuts) < 2 {
		if err != nil {
			x.recordError(err)
		}
		for _, r := range runs {
			x.destroyRun(r)
		}
		x.finishWindow(start, nil, nil, nil)
		return
	}
	// Partition i's rows start at offs[i] and may reach offs[i+1]; it
	// emits counts[i] rows.
	offs := make([]int, len(cuts))
	for i := 1; i < len(cuts); i++ {
		offs[i] = offs[i-1] + kpa.RowBound(runs, cuts[i-1], cuts[i])
	}
	// Rows nobody will read are counted, not built.
	var rows []Row
	if x.cfg.WindowSink != nil && !x.sealedWindow(start) {
		rows = make([]Row, offs[len(offs)-1])
	}
	counts := make([]int, len(cuts)-1)
	var remaining atomic.Int32
	remaining.Store(int32(len(counts)))
	for i := range counts {
		lo, hi := cuts[i], cuts[i+1]
		x.sched.Submit(tag, func() {
			metrics.StageClose.Enter()
			var out []Row
			if rows != nil {
				out = rows[offs[i]:offs[i+1]]
			} else {
				out = make([]Row, offs[i+1]-offs[i])
			}
			n, err := kpa.MergeReduceRows(runs, lo, hi, x.plan.ValCol, x.plan.NewAgg, out)
			if err != nil {
				x.recordError(err)
			}
			counts[i] = n
			x.m.emitted.Add(int64(n))
			pairs := 0
			for j := range lo {
				pairs += hi[j] - lo[j]
			}
			x.m.closePairs.Add(int64(pairs))
			if remaining.Add(-1) == 0 {
				for _, r := range runs {
					x.destroyRun(r)
				}
				x.finishWindow(start, rows, offs, counts)
			}
		})
	}
}

// packRows closes the gaps in a window's row slab: partition i left
// counts[i] rows at offs[i], and they move down, in partition order —
// key order — until the rows are contiguous from 0. The sink keeps what
// it is handed, so when the slab's slack would pin more than twice the
// rows, the rows move to a slice of their own instead.
func packRows(rows []Row, offs, counts []int) []Row {
	if rows == nil {
		return nil
	}
	n := counts[0]
	for i := 1; i < len(counts); i++ {
		n += copy(rows[n:], rows[offs[i]:offs[i]+counts[i]])
	}
	if len(rows) > 2*n {
		return slices.Clone(rows[:n])
	}
	return rows[:n]
}

// finishWindow publishes a closed window: it packs the rows its
// partitions left in the slab (packRows), retires the window and hands
// the rows to the WindowSink, unless a checkpoint had already sealed it.
// It runs in stage publish, which its caller's task then stays in.
func (x *exec) finishWindow(start wm.Time, rows []Row, offs, counts []int) {
	metrics.StagePublish.Enter()
	rows = packRows(rows, offs, counts)
	if d := x.table.retire(start, time.Now()); d > 0 {
		x.m.closeLatency.Observe(d.Nanoseconds())
	}
	if x.cfg.WindowSink != nil && !x.sealedWindow(start) {
		x.cfg.WindowSink(start, x.plan.Win.End(start), rows)
	}
	x.table.published(start)
}

// sealedWindow reports whether the window starting at start was already
// sealed and published before a recovery run started (Config.SealedBefore).
func (x *exec) sealedWindow(start wm.Time) bool {
	return x.cfg.SealedBefore > 0 && x.plan.Win.End(start) <= x.cfg.SealedBefore
}

// tierSetpoint is the occupancy up to which a memory tier takes new
// runs: high enough to keep the tiers earning their capacity, low
// enough to leave headroom for urgent allocations, merge intermediates
// and the bundles ingest charges to DRAM below backpressure.
const tierSetpoint = 0.80

// allocator returns the KPA allocator for work tagged tag.
func (x *exec) allocator(tag engine.Tag) kpa.Allocator {
	return placement{pool: x.pool, urgent: tag == engine.Urgent}
}

// placement is the native placement rule, the whole degradation ladder:
// a run goes to the first memory tier, HBM then DRAM, under
// tierSetpoint; when neither is, into the spill arena if one is
// attached; failing that, to any memory tier with room — a merge output
// over the setpoint beats failing the close. Urgent work draws on the
// reserved pool first (paper §5) and walks the same order after it. A
// run stays where it is born. One pool call serves a request, so a miss
// on a rung is not a failure; a request no rung serves is.
type placement struct {
	pool   *mempool.Pool
	urgent bool
}

// AllocKPA implements kpa.Allocator.
func (p placement) AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error) {
	// Tiers under the setpoint fill the order from the front, the others
	// from the back; the arena takes the one slot left between them.
	order := [memsim.NumTiers]memsim.Tier{memsim.Spill, memsim.Spill, memsim.Spill}
	under, over := 0, len(order)-1
	for _, t := range [...]memsim.Tier{memsim.HBM, memsim.DRAM} {
		if p.pool.Utilization(t) < tierSetpoint {
			order[under], under = t, under+1
		} else {
			order[over], over = t, over-1
		}
	}
	var (
		al  *mempool.Allocation
		err error
	)
	if p.urgent {
		al, err = p.pool.AllocUrgent(nBytes, order[:]...)
	} else {
		al, err = p.pool.AllocFirst(nBytes, order[:]...)
	}
	if err != nil {
		return 0, nil, err
	}
	return al.Tier(), al, nil
}

// noteKPA counts a placement on its tier for the report and charges the
// run's bytes to the live window-state gauge (and its per-tier
// high-water mark). Every run noted here must retire through destroyRun.
func (x *exec) noteKPA(k *kpa.KPA) {
	t, n := k.Tier(), k.Bytes()
	x.m.placements[t].Add(1)
	x.m.placedBytes[t].Add(n)
	x.m.addState(t, n)
}

// destroyRun releases one reference to a window-state run, crediting
// the live-state gauge when the storage actually frees. Reading
// Bytes/Tier before the release is safe: while this reference is
// outstanding no other holder's Destroy can be the final one, so the
// pairs cannot be freed underneath us.
func (x *exec) destroyRun(k *kpa.KPA) {
	t, n := k.Tier(), k.Bytes()
	if k.Destroy() {
		x.m.stateBytes[t].Add(-n)
		x.m.stateTotal.Add(-n)
	}
}

// numCPUWorkers is the default pool size: one worker per schedulable CPU.
func numCPUWorkers() int { return goruntime.GOMAXPROCS(0) }

// recordError keeps the run's first error, which Wait returns; later
// ones are dropped.
func (x *exec) recordError(err error) {
	if err == nil {
		return
	}
	x.emu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.emu.Unlock()
}
