// Package streambox is a Go reproduction of StreamBox-HBM (ASPLOS '19):
// a stream analytics engine for hybrid high-bandwidth memories. Users
// declare pipelines of grouping and reduction operators (the Apache
// Beam style of the paper's Listing 1); the runtime executes them over
// a simulated KNL-class hybrid memory, extracting Key Pointer Arrays
// into HBM, grouping with sequential-access sorts and merges, and
// balancing HBM capacity against DRAM bandwidth with a demand-balance
// knob.
//
// A minimal pipeline (compare the paper's Listing 1):
//
//	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
//	results := p.Source(streambox.KV(streambox.KVConfig{Keys: 1024}),
//	        streambox.DefaultSource(20_000_000)).
//	    SumPerKey(0, 1).
//	    Capture()
//	report, err := streambox.Run(p, streambox.RunConfig{Cores: 64, Duration: 2})
package streambox

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"streambox/internal/algo"
	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/netio"
	"streambox/internal/ops"
	"streambox/internal/runtime"
	"streambox/internal/serve"
	"streambox/internal/wm"
)

// EventTime is a stream timestamp in event-time ticks.
type EventTime = wm.Time

// Second is one second of event time in ticks (the generators emit
// WindowRecords records per window of event time, so only ratios
// matter; one million ticks per second keeps numbers readable).
const Second EventTime = 1_000_000

// WindowSpec declares the pipeline's temporal windowing.
type WindowSpec struct{ w wm.Windowing }

// FixedWindow declares tumbling windows of the given size.
func FixedWindow(size EventTime) WindowSpec { return WindowSpec{wm.Fixed(size)} }

// SlidingWindow declares sliding windows.
func SlidingWindow(size, slide EventTime) WindowSpec { return WindowSpec{wm.Sliding(size, slide)} }

// Generator produces stream records; see KV, YSB and PowerGridSource
// for built-ins, or implement engine.Generator semantics via custom
// code in this module.
type Generator = engine.Generator

// SourceConfig configures one ingress stream: offered rate, bundle
// size, event-time density and watermark cadence.
type SourceConfig = engine.SourceConfig

// DefaultSource returns a sensible source at the given offered rate
// (records/second): 10k-record bundles, 1M records per window of event
// time, a watermark per window.
func DefaultSource(rate float64) SourceConfig {
	return SourceConfig{
		Name:           "source",
		Rate:           rate,
		BundleRecords:  10_000,
		WindowRecords:  1_000_000,
		WatermarkEvery: 100,
	}
}

// KVConfig configures the synthetic key/value stream.
type KVConfig = ingress.KVConfig

// KV returns the random key/value generator (benchmarks 1–8).
func KV(cfg KVConfig) Generator { return ingress.NewKV(cfg) }

// RoundRobinKV returns a deterministic key/value generator (keys cycle
// 0..keys-1 with a constant value) whose aggregates are exactly
// predictable — useful for testing pipelines.
func RoundRobinKV(keys, value uint64) Generator { return ingress.NewRoundRobinKV(keys, value) }

// YSBConfig configures the Yahoo streaming benchmark stream.
type YSBConfig = ingress.YSBConfig

// YSB returns the Yahoo streaming benchmark generator.
func YSB(cfg YSBConfig) *ingress.YSBGen { return ingress.NewYSB(cfg) }

// PowerGridConfig configures the synthetic DEBS'14-style plug stream.
type PowerGridConfig = ingress.PowerGridConfig

// PowerGridSource returns the smart-plug generator (benchmark 9).
func PowerGridSource(cfg PowerGridConfig) Generator { return ingress.NewPowerGrid(cfg) }

// Placement selects the KPA placement policy (§7.3 ablations).
type Placement = engine.Placement

// Placement policies.
const (
	// Managed is StreamBox-HBM's software placement (default).
	Managed = engine.PlacementManaged
	// DRAMOnly places every KPA in DRAM.
	DRAMOnly = engine.PlacementDRAM
	// CacheMode leaves placement to hardware caching.
	CacheMode = engine.PlacementCache
)

// Backend selects the execution engine behind Run.
type Backend int

const (
	// Simulated executes on the discrete-event hybrid-memory simulator
	// (virtual time, paper-faithful cost model). The default.
	Simulated Backend = iota
	// Native executes on real goroutines over real data: a worker
	// pool with one priority-ordered ready queue runs ingest → KPA
	// extraction → radix run formation → k-way merge-reduce per window,
	// with KPA placement by one occupancy rule and backpressure from
	// pool utilization. Reported throughput is real records per
	// wall-clock second. The native backend supports single-source
	// filter* → Window → <agg>PerKey pipelines; richer graphs run
	// simulated.
	Native
)

// String names the backend.
func (b Backend) String() string {
	if b == Native {
		return "native"
	}
	return "simulated"
}

// RunConfig configures one execution.
type RunConfig struct {
	// Backend selects simulated (default) or native execution.
	Backend Backend
	// Machine simulates this hardware; zero value means KNL (Table 3).
	// The native backend uses only its memory-tier capacities.
	Machine memsim.Config
	// Cores restricts the core count (0 = all of Machine's cores).
	Cores int
	// Workers is the native worker-pool size (0 = one per CPU);
	// the simulated backend ignores it.
	Workers int
	// Duration is the virtual runtime in seconds. The native backend
	// ingests Rate×Duration records per source as fast as the hardware
	// allows instead of pacing to virtual time.
	Duration float64
	// Placement selects the KPA placement policy.
	Placement Placement
	// NoKPA disables key/pointer extraction (grouping on full records).
	NoKPA bool
	// Seed drives the simulated backend's placement randomness; native
	// placement draws nothing.
	Seed int64
	// RecordSeries captures the monitor time series in the report.
	RecordSeries bool
	// Serve configures network serving for Serve; Run ignores it.
	Serve *ServeConfig
	// SpillDir and SpillCapacity enable the native backend's mmap'd
	// cold spill tier: a SpillCapacity-byte arena of bare (key, value)
	// pairs where window runs are born once both HBM and DRAM are over
	// the placement setpoint — and merged from, in place — instead of
	// failing the run. SpillCapacity = 0 disables it; SpillDir empty uses
	// the system temp directory. The simulated backend ignores them.
	SpillDir      string
	SpillCapacity int64
}

// ServeConfig configures a network-serving execution (Serve): where to
// listen for ingest traffic and for live queries, session deadlines,
// admission control, and the write-ahead log directory a restart
// recovers from.
type ServeConfig = serve.Config

// KNL returns the paper's Knights Landing machine (Table 3).
func KNL() memsim.Config { return memsim.KNLConfig() }

// X56 returns the paper's 56-core Xeon comparison machine (Table 3).
func X56() memsim.Config { return memsim.X56Config() }

// Report summarises one run.
type Report struct {
	// Backend that produced this report.
	Backend Backend
	// IngestedRecords and Throughput: records/second of virtual time on
	// the simulated backend, records/second of real wall-clock time on
	// the native backend.
	IngestedRecords int64
	Throughput      float64
	// DroppedRecords counts records decoded off the network but
	// discarded because the pipeline was draining; in-process
	// generators drop nothing, so it is 0 for generator sources.
	DroppedRecords int64
	// DecodeErrors counts network frames whose payload failed to
	// decode (0 for generator sources, whose records need no parsing);
	// ChecksumErrors separately counts frames, of either wire format,
	// that failed checksum verification and were replayed.
	DecodeErrors   int64
	ChecksumErrors int64
	// Fault-tolerance counters of a network serve: sessions resumed
	// after connection loss, replayed frames discarded by dedup,
	// handshakes shed by admission control, sessions expired after their
	// clients never came back, and connections severed by the idle
	// deadline. All 0 for generator sources.
	SessionsResumed int64
	DuplicateFrames int64
	ShedConns       int64
	ExpiredSessions int64
	IdleTimeouts    int64
	// Durability counters of a WAL-enabled serve: frames appended to
	// the write-ahead log, the group-commit fsync count and p99
	// latency, and log segments still on disk vs retired by
	// checkpoints. All 0 without ServeConfig.WALDir.
	WALAppendedFrames  int64
	WALSyncs           int64
	WALFsyncP99Ns      int64
	WALSegmentsActive  int64
	WALSegmentsRetired int64
	// Recovery counters of a serve with ServeConfig.WALDir: resumable
	// sessions restored from the previous run's checkpoint, frames
	// replayed from its log, and the wall-clock nanoseconds recovery
	// took before the listener opened. The two counts are 0 over an
	// empty or missing directory.
	RecoveredSessions int64
	ReplayedFrames    int64
	RecoveryNs        int64
	// WallSeconds is the real elapsed time of a native run (0 when
	// simulated).
	WallSeconds float64
	// GCPauseNs is the Go garbage collector's stop-the-world pause time
	// accumulated over a native run, and AllocsPerRecord its heap
	// allocations per ingested record (both 0 when simulated). They
	// quantify what the slab-recycling mempool takes off the hot path.
	GCPauseNs       int64
	AllocsPerRecord float64
	// PaneRuns counts the sorted pane runs built by the native
	// backend's pane-based sliding aggregation, and SharedRunRefs the
	// extra window references taken on them — each sliding window
	// references the runs of the panes it covers instead of holding a
	// private copy of every record. Both 0 for fixed windows and on the
	// simulated backend.
	PaneRuns, SharedRunRefs int64
	// SealedPanes counts pane seals on the native backend: a group of 32
	// sorted runs of one pane merged into one while the pane still fills,
	// and the runs left over merged when the first window covering the
	// pane closes, for the later windows covering it — into a per-key
	// partial run when the aggregation is a word fold (sum, count),
	// verbatim when it does not. A pane only one window reads seals a
	// group of 32 only if the aggregation is a word fold and its runs
	// bound their distinct keys — summed, or their key span if fewer — to
	// at most half its pairs; SealsSkipped counts the groups it left raw
	// for the window's close instead. ClosePairs counts the pairs streamed
	// through those merges and the closing windows' own: about once per
	// record when seals write partials, overlap times (plus once) when
	// they cannot. All three are functions of the stream, not of
	// scheduling, and 0 on the simulated backend.
	SealedPanes, SealsSkipped, ClosePairs int64
	// ExtractNs is the native backend's worker nanoseconds forming runs.
	ExtractNs int64
	// LateRecords counts records the native backend dropped because
	// every window covering them had already been sealed by the
	// watermark when they arrived (0 on the simulated backend). A
	// sealed window is never re-opened or published twice.
	LateRecords int64
	// PeakWindowStateBytes is the native backend's high-water mark of
	// live grouped window state per memory tier (0 HBM, 1 DRAM), and
	// PeakWindowStateTotalBytes the combined high-water mark (the
	// per-tier marks are independent maxima and may sum higher). Pane
	// sharing keeps the sliding-window figures ~Size/Slide× below what
	// per-window duplication holds. Index 2 is the mmap'd spill tier,
	// nonzero only when RunConfig.SpillCapacity enabled it.
	PeakWindowStateBytes      [3]int64
	PeakWindowStateTotalBytes int64
	// Degradation-ladder figures of a native run with the spill tier
	// enabled (all 0 otherwise): the runs and bytes born in the mmap'd
	// spill file. SpillLoads and CtrlDecisions read 0: a spilled run is
	// merged where it lies, never loaded back, and nothing moves a run
	// after birth. CloseP99Ns is the native 99th-percentile window close
	// latency.
	SpilledRuns   int64
	SpilledBytes  int64
	SpillLoads    int64
	CtrlDecisions int64
	CloseP99Ns    int64
	// EmittedRecords counts result records at sinks.
	EmittedRecords int64
	// WindowsClosed and output delays (virtual seconds).
	WindowsClosed int
	AvgDelay      float64
	MaxDelay      float64
	// PeakHBMBW / PeakDRAMBW are peak bandwidths in bytes/second.
	PeakHBMBW  float64
	PeakDRAMBW float64
	// Series is the monitor time series when requested.
	Series []engine.Sample
}

// Pipeline is a declarative operator graph, built with Stream methods
// and executed by Run.
type Pipeline struct {
	win     WindowSpec
	sources []sourceDecl
	stages  []*stageDecl
	sinks   []*Captured
}

type sourceDecl struct {
	gen     Generator
	cfg     SourceConfig
	stage   *stageDecl
	port    int
	network bool // fed by a netio ingest listener instead of gen
}

// stageKind classifies a stage for native-backend translation. The
// zero value (kindOther) marks operators only the simulator executes.
type stageKind int

const (
	kindOther stageKind = iota
	kindPass            // no-op passthrough (source entry, Project)
	kindFilter
	kindWindow
	kindKeyedAgg
	kindCapture
	kindSink
)

type stageDecl struct {
	id    int
	mk    func() engine.Operator
	built engine.Operator
	down  []edge

	// Declarative descriptor consumed by the native backend.
	kind  stageKind
	label string
	col   int // filter column / window timestamp column
	keep  func(uint64) bool
	key   int // keyed-agg grouping column
	val   int // keyed-agg value column
	agg   kpa.AggFactory
	cap   *Captured
}

type edge struct {
	to      *stageDecl
	outPort int
	inPort  int
}

// Stream is a handle to one pipeline stage's output.
type Stream struct {
	p     *Pipeline
	stage *stageDecl
}

// Captured receives a sink's results: after Run, or window by window
// while a Serve is live — read it once Shutdown has returned.
type Captured struct {
	sink *ops.CaptureSink
	mu   sync.Mutex // the native backend's workers append concurrently
	// Rows holds (key, value, window) result triples.
	Rows []ops.CapturedRow
	// Records counts result records.
	Records int64
}

// windowSink is the capture as a consumer of the native backend's
// window sink (nil without one): each closed window's rows join Rows
// under their window start.
func (c *Captured) windowSink() func(start, end wm.Time, rows []runtime.Row) {
	if c == nil {
		return nil
	}
	c.Rows, c.Records = c.Rows[:0], 0
	return func(start, _ wm.Time, rows []runtime.Row) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.Rows = slices.Grow(c.Rows, len(rows))
		for _, r := range rows {
			c.Rows = append(c.Rows, ops.CapturedRow{Key: r.Key, Val: r.Val, Win: start})
		}
		c.Records = int64(len(c.Rows))
	}
}

// NewPipeline starts an empty pipeline with the given windowing.
func NewPipeline(win WindowSpec) *Pipeline {
	return &Pipeline{win: win}
}

func (p *Pipeline) addStage(mk func() engine.Operator) *stageDecl {
	s := &stageDecl{id: len(p.stages), mk: mk}
	p.stages = append(p.stages, s)
	return s
}

// Source attaches a generator and returns its record stream.
func (p *Pipeline) Source(gen Generator, cfg SourceConfig) Stream {
	entry := p.addStage(func() engine.Operator { return &ops.ProjectOp{} })
	entry.kind = kindPass
	p.sources = append(p.sources, sourceDecl{gen: gen, cfg: cfg, stage: entry})
	return Stream{p: p, stage: entry}
}

// NetworkColumns names the columns of network-fed sources, in order:
// ad_id, ad_type, event_type, user_id, page_id, ip, event_time. The
// timestamp is event_time — column 6, in event-time ticks.
func NetworkColumns() []string {
	return append([]string(nil), netio.WireSchema().Names...)
}

// NetworkTsCol is the timestamp column of network-fed sources.
const NetworkTsCol = 6

// NetworkSource declares a source whose records arrive over TCP from
// external clients (sbx-loadgen, or any speaker of the netio wire
// format) instead of an in-process generator. The stream carries the
// NetworkSchema layout. Pipelines with a network source run on the
// native backend via Serve; cfg only needs WatermarkEvery (the
// watermark refresh cadence in received frames — zero picks 4).
func (p *Pipeline) NetworkSource(cfg SourceConfig) Stream {
	entry := p.addStage(func() engine.Operator { return &ops.ProjectOp{} })
	entry.kind = kindPass
	p.sources = append(p.sources, sourceDecl{cfg: cfg, stage: entry, network: true})
	return Stream{p: p, stage: entry}
}

func (s Stream) then(mk func() engine.Operator) Stream {
	next := s.p.addStage(mk)
	s.stage.down = append(s.stage.down, edge{to: next})
	return Stream{p: s.p, stage: next}
}

// keyedAgg appends a keyed aggregation stage with its native descriptor.
func (s Stream) keyedAgg(label string, keyCol, valCol int, agg kpa.AggFactory, mk func() engine.Operator) Stream {
	next := s.then(mk)
	st := next.stage
	st.kind, st.label, st.key, st.val, st.agg = kindKeyedAgg, label, keyCol, valCol, agg
	return next
}

// Filter keeps records whose column col satisfies keep (ParDo/Filter).
func (s Stream) Filter(label string, col int, keep func(uint64) bool) Stream {
	next := s.then(func() engine.Operator { return &ops.FilterOp{Label: label, Col: col, Keep: keep} })
	st := next.stage
	st.kind, st.label, st.col, st.keep = kindFilter, label, col, keep
	return next
}

// Sample keeps one record in every (ParDo/Sample).
func (s Stream) Sample(col int, every uint64) Stream {
	return s.then(func() engine.Operator { return &ops.SampleOp{Col: col, Every: every} })
}

// Project declares a projection (a no-op with columnar storage, kept
// for pipeline shape fidelity).
func (s Stream) Project(cols ...int) Stream {
	next := s.then(func() engine.Operator { return &ops.ProjectOp{Cols: cols} })
	next.stage.kind = kindPass
	return next
}

// ExternalJoin maps column keyCol through a key-value table (YSB's
// campaign join), writing results back to the records.
func (s Stream) ExternalJoin(label string, keyCol int, table *algo.HashTable) Stream {
	return s.then(func() engine.Operator {
		return &ops.ExternalJoinOp{Label: label, KeyCol: keyCol, Table: table}
	})
}

// Window assigns records to temporal windows by timestamp column.
func (s Stream) Window(tsCol int) Stream {
	next := s.then(func() engine.Operator { return &ops.WindowOp{TsCol: tsCol} })
	st := next.stage
	st.kind, st.col = kindWindow, tsCol
	return next
}

// SumPerKey aggregates value sums per key per window. The input must be
// windowed (call Window first).
func (s Stream) SumPerKey(keyCol, valCol int) Stream {
	return s.keyedAgg("sum", keyCol, valCol, ops.Sum(),
		func() engine.Operator { return ops.NewKeyedAgg("sum", keyCol, valCol, ops.Sum()) })
}

// CountPerKey counts records per key per window.
func (s Stream) CountPerKey(keyCol int) Stream {
	return s.keyedAgg("count", keyCol, keyCol, ops.Count(),
		func() engine.Operator { return ops.NewKeyedAgg("count", keyCol, keyCol, ops.Count()) })
}

// AvgPerKey averages values per key per window.
func (s Stream) AvgPerKey(keyCol, valCol int) Stream {
	return s.keyedAgg("avg", keyCol, valCol, ops.Avg(),
		func() engine.Operator { return ops.NewKeyedAgg("avg", keyCol, valCol, ops.Avg()) })
}

// MedianPerKey computes per-key medians per window.
func (s Stream) MedianPerKey(keyCol, valCol int) Stream {
	return s.keyedAgg("median", keyCol, valCol, ops.Median(),
		func() engine.Operator { return ops.NewKeyedAgg("median", keyCol, valCol, ops.Median()) })
}

// TopKPerKey reports the k-th largest value per key per window.
func (s Stream) TopKPerKey(keyCol, valCol, k int) Stream {
	return s.keyedAgg("topk", keyCol, valCol, ops.TopK(k),
		func() engine.Operator { return ops.NewKeyedAgg("topk", keyCol, valCol, ops.TopK(k)) })
}

// UniqueCountPerKey counts distinct values per key per window.
func (s Stream) UniqueCountPerKey(keyCol, valCol int) Stream {
	return s.keyedAgg("unique", keyCol, valCol, ops.UniqueCount(),
		func() engine.Operator { return ops.NewKeyedAgg("unique", keyCol, valCol, ops.UniqueCount()) })
}

// PercentilePerKey reports the p-th percentile per key per window.
func (s Stream) PercentilePerKey(keyCol, valCol, p int) Stream {
	return s.keyedAgg("pctl", keyCol, valCol, ops.Percentile(p),
		func() engine.Operator { return ops.NewKeyedAgg("pctl", keyCol, valCol, ops.Percentile(p)) })
}

// AvgAll averages one column across each window.
func (s Stream) AvgAll(valCol int) Stream {
	return s.then(func() engine.Operator { return ops.NewAvgAll(valCol) })
}

// PowerGrid runs the DEBS'14-style top-house analysis.
func (s Stream) PowerGrid() Stream {
	return s.then(func() engine.Operator { return ops.NewPowerGrid() })
}

// Join temporally joins two windowed streams by keyCol, carrying valCol
// from both sides.
func (s Stream) Join(other Stream, keyCol, valCol int) Stream {
	if other.p != s.p {
		panic("streambox: joining streams from different pipelines")
	}
	next := s.p.addStage(func() engine.Operator { return ops.NewTemporalJoin(keyCol, valCol) })
	s.stage.down = append(s.stage.down, edge{to: next, inPort: 0})
	other.stage.down = append(other.stage.down, edge{to: next, inPort: 1})
	return Stream{p: s.p, stage: next}
}

// FilterByAvg filters this (windowed) stream by the per-window average
// of the control stream's valCol: records with value above the average
// survive (benchmark 8).
func (s Stream) FilterByAvg(control Stream, valCol int) Stream {
	if control.p != s.p {
		panic("streambox: mixing streams from different pipelines")
	}
	next := s.p.addStage(func() engine.Operator { return ops.NewWindowedFilter(valCol) })
	control.stage.down = append(control.stage.down, edge{to: next, inPort: 0})
	s.stage.down = append(s.stage.down, edge{to: next, inPort: 1})
	return Stream{p: s.p, stage: next}
}

// Union merges two streams.
func (s Stream) Union(other Stream) Stream {
	if other.p != s.p {
		panic("streambox: mixing streams from different pipelines")
	}
	next := s.p.addStage(func() engine.Operator { return &ops.UnionOp{} })
	s.stage.down = append(s.stage.down, edge{to: next, inPort: 0})
	other.stage.down = append(other.stage.down, edge{to: next, inPort: 1})
	return Stream{p: s.p, stage: next}
}

// Apply appends a custom operator (advanced use; op must implement
// engine.Operator).
func (s Stream) Apply(mk func() engine.Operator) Stream {
	return s.then(mk)
}

// Capture terminates the stream, keeping every result record.
func (s Stream) Capture() *Captured {
	c := &Captured{}
	sinkStage := s.p.addStage(func() engine.Operator {
		c.sink = ops.NewCapture()
		return c.sink
	})
	sinkStage.kind, sinkStage.cap = kindCapture, c
	s.stage.down = append(s.stage.down, edge{to: sinkStage})
	s.p.sinks = append(s.p.sinks, c)
	return c
}

// Sink terminates the stream, counting results without retaining them.
func (s Stream) Sink(name string) {
	sinkStage := s.p.addStage(func() engine.Operator { return engine.NewEgressSink(name) })
	sinkStage.kind, sinkStage.label = kindSink, name
	s.stage.down = append(s.stage.down, edge{to: sinkStage})
}

// Run executes the pipeline: for cfg.Duration virtual seconds on the
// simulated backend, or over Rate×Duration records as fast as the
// hardware allows on the native backend.
func Run(p *Pipeline, cfg RunConfig) (Report, error) {
	if len(p.sources) == 0 {
		return Report{}, fmt.Errorf("streambox: pipeline has no sources")
	}
	for _, sd := range p.sources {
		if sd.network {
			return Report{}, fmt.Errorf("streambox: pipelines with a NetworkSource run via Serve, not Run")
		}
	}
	if cfg.Duration <= 0 {
		return Report{}, fmt.Errorf("streambox: run duration must be positive")
	}
	if cfg.Backend == Native {
		return runNative(p, cfg)
	}
	machine := cfg.Machine
	if machine.Cores == 0 {
		machine = memsim.KNLConfig()
	}
	if cfg.Cores > 0 {
		machine = machine.WithCores(cfg.Cores)
	}
	ecfg := engine.Config{
		Machine:      machine,
		Win:          p.win.w,
		Placement:    cfg.Placement,
		UseKPA:       !cfg.NoKPA,
		Seed:         cfg.Seed,
		RecordSeries: cfg.RecordSeries,
	}
	e, err := engine.New(ecfg)
	if err != nil {
		return Report{}, err
	}
	// Build operator instances and wire the graph.
	enodes := make([]*engine.Node, len(p.stages))
	for i, st := range p.stages {
		st.built = st.mk()
		enodes[i] = e.AddOperator(st.built)
	}
	for i, st := range p.stages {
		for _, ed := range st.down {
			e.Connect(enodes[i], ed.outPort, enodes[ed.to.id], ed.inPort)
		}
	}
	for _, sd := range p.sources {
		if _, err := e.AddSource(sd.gen, sd.cfg, enodes[sd.stage.id], sd.port); err != nil {
			return Report{}, err
		}
	}
	stats, err := e.Run(cfg.Duration)
	if err != nil {
		return Report{}, err
	}
	for _, c := range p.sinks {
		if c.sink != nil {
			c.Rows = c.sink.Rows
			c.Records = c.sink.Records
		}
	}
	elapsed := e.Sim.Now()
	rep := Report{
		IngestedRecords: stats.IngestedRecords,
		EmittedRecords:  stats.EmittedRecords,
		WindowsClosed:   stats.WindowsClosed,
		AvgDelay:        stats.AvgDelay(),
		MaxDelay:        stats.MaxDelay(),
		PeakHBMBW:       e.Sim.PeakBW(memsim.HBM),
		PeakDRAMBW:      e.Sim.PeakBW(memsim.DRAM),
		Series:          stats.Series,
	}
	if elapsed > 0 {
		rep.Throughput = float64(stats.IngestedRecords) / elapsed
	}
	return rep, nil
}

// runNative translates the declarative pipeline into a native plan and
// executes it on the multicore runtime backend.
func runNative(p *Pipeline, cfg RunConfig) (Report, error) {
	plan, capture, _, err := nativePlan(p, cfg)
	if err != nil {
		return Report{}, err
	}
	rep, err := runtime.Run(plan, nativeConfig(cfg, capture))
	if err != nil {
		return Report{}, err
	}
	return nativeReport(rep), nil
}

// nativeConfig is the engine configuration of a native run or serve:
// the run's sizing, and the capture — if the pipeline ends in one — as
// the window sink.
func nativeConfig(cfg RunConfig, capture *Captured) runtime.Config {
	return runtime.Config{
		Workers:       cfg.Workers,
		Machine:       cfg.Machine,
		SpillDir:      cfg.SpillDir,
		SpillCapacity: cfg.SpillCapacity,
		WindowSink:    capture.windowSink(),
	}
}

// nativeReport is the public report of a native run; Shutdown adds the
// ingest, durability and recovery fields of a serving one.
func nativeReport(rep runtime.Report) Report {
	return Report{
		Backend:                   Native,
		IngestedRecords:           rep.IngestedRecords,
		Throughput:                rep.Throughput,
		WallSeconds:               rep.Elapsed.Seconds(),
		GCPauseNs:                 rep.GCPauseNs,
		AllocsPerRecord:           rep.AllocsPerRecord,
		EmittedRecords:            rep.EmittedRecords,
		WindowsClosed:             rep.WindowsClosed,
		PaneRuns:                  rep.PaneRuns,
		SharedRunRefs:             rep.SharedRunRefs,
		SealedPanes:               rep.SealedPanes,
		SealsSkipped:              rep.SealsSkipped,
		ClosePairs:                rep.ClosePairs,
		ExtractNs:                 rep.ExtractNanos,
		LateRecords:               rep.LateRecords,
		PeakWindowStateBytes:      rep.PeakWindowStateBytes,
		PeakWindowStateTotalBytes: rep.PeakWindowStateTotalBytes,
		SpilledRuns:               rep.SpilledRuns,
		SpilledBytes:              rep.SpilledBytes,
		SpillLoads:                rep.SpillLoads,
		CtrlDecisions:             rep.CtrlDecisions,
		CloseP99Ns:                rep.CloseP99Nanos,
	}
}

// nativePlan walks the pipeline graph and extracts the linear
// filter* → Window → keyed-agg → capture/sink chain the native backend
// executes, rejecting anything richer with a descriptive error. The
// returned sink name labels results in the live-query store.
func nativePlan(p *Pipeline, cfg RunConfig) (runtime.Plan, *Captured, string, error) {
	fail := func(format string, args ...interface{}) (runtime.Plan, *Captured, string, error) {
		return runtime.Plan{}, nil, "", fmt.Errorf("streambox: native backend: "+format+" (run with Backend: Simulated)", args...)
	}
	if len(p.sources) != 1 {
		return fail("pipelines need exactly one source, have %d", len(p.sources))
	}
	src := p.sources[0]
	plan := runtime.Plan{
		Source: src.cfg,
		Win:    p.win.w,
		TsCol:  -1,
	}
	if !src.network {
		plan.Gen = src.gen
		plan.TotalRecords = int64(src.cfg.Rate * cfg.Duration)
	}
	var capture *Captured
	seenAgg := false
	st := src.stage
	for st != nil {
		switch st.kind {
		case kindPass:
			// no-op
		case kindFilter:
			if seenAgg {
				return fail("filter %q after aggregation is unsupported", st.label)
			}
			plan.Filters = append(plan.Filters, runtime.Filter{Col: st.col, Keep: st.keep})
		case kindWindow:
			if plan.TsCol >= 0 {
				return fail("multiple Window stages are unsupported")
			}
			plan.TsCol = st.col
		case kindKeyedAgg:
			if seenAgg {
				return fail("chained aggregations are unsupported")
			}
			if plan.TsCol < 0 {
				return fail("%s requires a Window stage upstream", st.label)
			}
			seenAgg = true
			plan.Label = st.label
			plan.KeyCol, plan.ValCol, plan.NewAgg = st.key, st.val, st.agg
		case kindCapture, kindSink:
			if !seenAgg {
				return fail("pipelines must aggregate before the sink")
			}
			if len(st.down) != 0 {
				return fail("operators after the sink are unsupported")
			}
			capture = st.cap
			sink := st.label
			if sink == "" {
				sink = "capture"
			}
			return plan, capture, sink, nil
		default:
			return fail("operator %d is not in the native path", st.id)
		}
		switch len(st.down) {
		case 0:
			return fail("pipelines must end in Capture or Sink")
		case 1:
			st = st.down[0].to
		default:
			return fail("fan-out graphs are unsupported")
		}
	}
	return fail("pipelines must end in Capture or Sink")
}

// Server is a pipeline running as a long-lived network service: records
// stream in over the netio wire protocol, windows close as client
// watermarks advance, and live results and metrics are queryable over
// HTTP while the run is in flight. The serving machinery — and the
// accessors IngestAddr, HTTPAddr, Results, RecoveredSessions,
// ReplayedFrames and RecoveryNs — are internal/serve's.
type Server struct{ *serve.Server }

// Serve starts the pipeline as a network server on the native backend.
// The pipeline must have exactly one NetworkSource, and cfg.Serve must
// name an ingest address. Serve returns once the listeners are live;
// Shutdown stops ingestion, drains, and returns the final report.
func Serve(p *Pipeline, cfg RunConfig) (*Server, error) {
	if cfg.Serve == nil || cfg.Serve.IngestAddr == "" {
		return nil, fmt.Errorf("streambox: Serve needs RunConfig.Serve with an IngestAddr")
	}
	if len(p.sources) != 1 || !p.sources[0].network {
		return nil, fmt.Errorf("streambox: Serve needs a pipeline with exactly one NetworkSource")
	}
	if p.sources[0].cfg.WatermarkEvery <= 0 {
		p.sources[0].cfg.WatermarkEvery = 4
	}
	plan, capture, sink, err := nativePlan(p, cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.Serve(plan, nativeConfig(cfg, capture), sink, *cfg.Serve)
	if err != nil {
		return nil, err
	}
	return &Server{srv}, nil
}

// WindowResult is one closed window's published results, as served by
// GET /windows and returned by Server.Results: rows ascending by key,
// shared with the live store — read them, do not write them.
type WindowResult = netio.WindowResult

// Shutdown gracefully stops the server: the ingest listener closes,
// open connections are severed, buffered batches drain through the
// pipeline, every remaining window closes, and the final report —
// including network ingest, durability and recovery counters — is
// returned. Safe to call once.
func (s *Server) Shutdown() (Report, error) { return s.DrainShutdown(0) }

// DrainShutdown is the ordered graceful stop: the ingest listener
// closes immediately (no new connections), in-flight streams get up to
// grace to finish cleanly, then Shutdown's sequence runs — the SIGTERM
// path of cmd/sbx-serve.
func (s *Server) DrainShutdown(grace time.Duration) (Report, error) {
	fin, err := s.Server.Shutdown(grace)
	out := nativeReport(fin.Run)
	out.DroppedRecords = fin.Ingest.DroppedRecords
	out.DecodeErrors = fin.Ingest.DecodeErrors
	out.ChecksumErrors = fin.Ingest.ChecksumErrors
	out.SessionsResumed = fin.Ingest.SessionsResumed
	out.DuplicateFrames = fin.Ingest.DuplicateFrames
	out.ShedConns = fin.Ingest.ShedConns
	out.ExpiredSessions = fin.Ingest.ExpiredSessions
	out.IdleTimeouts = fin.Ingest.IdleTimeouts
	out.WALAppendedFrames = fin.WAL.AppendedFrames
	out.WALSyncs = fin.WAL.Syncs
	out.WALFsyncP99Ns = fin.WAL.FsyncP99Ns
	out.WALSegmentsActive = fin.WAL.SegmentsActive
	out.WALSegmentsRetired = fin.WAL.SegmentsRetired
	out.RecoveredSessions = s.RecoveredSessions()
	out.ReplayedFrames = s.ReplayedFrames()
	out.RecoveryNs = s.RecoveryNs()
	return out, err
}
