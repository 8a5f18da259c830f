package engine

import (
	"fmt"

	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// Placement selects the KPA placement policy (the Fig 9 ablations).
type Placement int

const (
	// PlacementManaged is StreamBox-HBM: software placement with the
	// demand-balance knob and performance-impact tags.
	PlacementManaged Placement = iota
	// PlacementDRAM puts every KPA in DRAM ("StreamBox-HBM DRAM").
	PlacementDRAM
	// PlacementCache models hardware cache-mode: KPAs live in the DRAM
	// address space, the 16 GB HBM acts as a transparent cache
	// ("StreamBox-HBM Caching").
	PlacementCache
)

// Config configures an engine instance.
type Config struct {
	// Machine is the simulated hardware.
	Machine memsim.Config
	// Win is the pipeline's window configuration.
	Win wm.Windowing
	// Placement selects the KPA placement policy.
	Placement Placement
	// UseKPA false disables key/pointer extraction: grouping moves full
	// records (the "Caching NoKPA" ablation).
	UseKPA bool
	// TargetDelaySec is the output-delay target (paper: 1 second).
	TargetDelaySec float64
	// ReservedHBM is the Urgent pool size; 0 picks a default.
	ReservedHBM int64
	// Seed drives the knob's placement randomness.
	Seed int64
	// RecordSeries enables Fig 10 style time-series capture.
	RecordSeries bool
	// RecordWeight enables specimen scaling for paper-scale benchmarks:
	// every real record stands for RecordWeight virtual records. All
	// task demands, memory charges and throughput statistics scale by
	// this factor while the computation still runs on real (smaller)
	// data. 0 or 1 disables scaling; correctness tests use 1.
	RecordWeight int64
}

// monitorInterval is the resource sampling period in virtual seconds:
// the paper's 10 ms.
const monitorInterval = 0.010

// cacheHitFrac is the HBM hit fraction assumed in cache mode. Streaming
// KPAs are ephemeral with little temporal locality, so a
// hardware-managed HBM cache hits rarely (§7.3: software manages hybrid
// memories better than hardware).
const cacheHitFrac = 0.25

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.TargetDelaySec == 0 {
		c.TargetDelaySec = 1.0
	}
	if c.ReservedHBM == 0 {
		c.ReservedHBM = 256 << 20
	}
	if c.RecordWeight <= 0 {
		c.RecordWeight = 1
	}
	return c
}

// Sample is one monitor observation (Fig 10 time series).
type Sample struct {
	T        float64
	HBMUtil  float64 // HBM capacity utilization [0,1]
	DRAMBW   float64 // DRAM bandwidth over the interval, bytes/s
	HBMBW    float64 // HBM bandwidth over the interval, bytes/s
	KLow     float64
	KHigh    float64
	Paused   bool
	HBMBytes int64 // absolute HBM bytes in use
}

// Stats summarises one engine run.
type Stats struct {
	IngestedRecords int64
	IngestedBytes   int64
	EmittedRecords  int64
	WindowsClosed   int
	Delays          []float64
	Series          []Sample
	Errors          []error
}

// AvgDelay returns the mean output delay.
func (s Stats) AvgDelay() float64 {
	if len(s.Delays) == 0 {
		return 0
	}
	var sum float64
	for _, d := range s.Delays {
		sum += d
	}
	return sum / float64(len(s.Delays))
}

// MaxDelay returns the worst output delay.
func (s Stats) MaxDelay() float64 {
	var m float64
	for _, d := range s.Delays {
		if d > m {
			m = d
		}
	}
	return m
}

// Engine is one StreamBox-HBM instance.
type Engine struct {
	Sim  *memsim.Sim
	Pool *mempool.Pool
	Reg  *bundle.Registry
	Win  wm.Windowing

	cfg   Config
	knob  *Knob
	nodes []*Node

	targetWM   wm.Time
	wmEmitTime map[wm.Time]float64
	lastDelay  float64

	paused  bool
	sources []*sourceDriver

	stats Stats
}

// New creates an engine on a fresh simulator.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.Defaults()
	if err := cfg.Win.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		Sim:        memsim.NewSim(cfg.Machine),
		Reg:        bundle.NewRegistry(),
		Win:        cfg.Win,
		cfg:        cfg,
		knob:       NewKnob(cfg.Seed + 1),
		wmEmitTime: make(map[wm.Time]float64),
	}
	reserved := cfg.ReservedHBM
	if cfg.Placement != PlacementManaged {
		reserved = 0
	}
	e.Pool = mempool.New(cfg.Machine, reserved)
	return e, nil
}

// Knob exposes the demand-balance knob (read by experiments).
func (e *Engine) Knob() *Knob { return e.knob }

// AddOperator inserts an operator into the pipeline graph.
func (e *Engine) AddOperator(op Operator) *Node {
	n := newNode(len(e.nodes), op, e)
	e.nodes = append(e.nodes, n)
	return n
}

// Connect wires output port outPort of from to input port inPort of to.
func (e *Engine) Connect(from *Node, outPort int, to *Node, inPort int) {
	from.ensurePort(outPort)
	from.down[outPort] = append(from.down[outPort], downstreamRef{n: to, port: inPort})
	if inPort >= to.op.InPorts() {
		e.recordError(fmt.Errorf("engine: connecting to invalid port %d of %s", inPort, to.op.Name()))
	}
}

// Chain connects ops linearly on port 0 and returns the node list.
func (e *Engine) Chain(ops ...Operator) []*Node {
	nodes := make([]*Node, len(ops))
	for i, op := range ops {
		nodes[i] = e.AddOperator(op)
		if i > 0 {
			e.Connect(nodes[i-1], 0, nodes[i], 0)
		}
	}
	return nodes
}

// Run starts the sources and monitor and executes the pipeline for the
// given virtual duration, returning the run's statistics.
func (e *Engine) Run(duration float64) (Stats, error) {
	for _, s := range e.sources {
		s.start()
	}
	e.startMonitor()
	e.Sim.RunUntil(duration)
	e.stats.Errors = append([]error(nil), e.stats.Errors...)
	var err error
	if len(e.stats.Errors) > 0 {
		err = e.stats.Errors[0]
	}
	return e.stats, err
}

// spawn schedules one operator task. body runs the real computation at
// dispatch; emissions and onComplete fire at the task's virtual
// completion time, so continuations observe correct dependency timing.
func (e *Engine) spawn(n *Node, name string, tag Tag, d memsim.Demand, body func() []Emission, onComplete func()) {
	ep := n.spawnEpoch()
	ep.inflight++
	var emissions []Emission
	e.Sim.Submit(&memsim.Task{
		Name:     name,
		Priority: tag.Priority(),
		Demand:   e.transformDemand(d),
		Body: func() {
			defer func() {
				if r := recover(); r != nil {
					e.recordError(fmt.Errorf("engine: task %s panicked: %v", name, r))
				}
			}()
			if body != nil {
				emissions = body()
			}
		},
		OnDone: func(now float64) {
			for _, em := range emissions {
				e.deliver(n, em.Port, em.In)
			}
			// Continuations spawned here (e.g. the next merge level)
			// stay in the completing task's epoch so watermark
			// forwarding waits for the whole dependent tree.
			prev := n.spawnCtx
			n.spawnCtx = ep
			if onComplete != nil {
				onComplete()
			}
			n.spawnCtx = prev
			ep.inflight--
			n.advance(e)
		},
	})
}

// deliver routes data from node n's output port to its consumers. Data
// emitted on an unconnected port leaves the pipeline and is released.
func (e *Engine) deliver(n *Node, port int, in Input) {
	if port >= len(n.down) || len(n.down[port]) == 0 {
		in.Release()
		return
	}
	refs := n.down[port]
	for i, d := range refs {
		if i > 0 {
			// Fan-out duplicates ownership: extra consumers retain.
			e.retainInput(in)
		}
		d.n.op.OnInput(d.n.ctx, d.port, in)
	}
}

func (e *Engine) retainInput(in Input) {
	if in.B != nil {
		in.B.Retain()
	}
	// KPAs are single-owner; fan-out of KPAs is not supported and the
	// pipeline builder must materialize first.
}

// transformDemand applies specimen scaling and the placement-mode cost
// model (paper §7.3): in cache mode, every nominally-HBM phase splits
// into an HBM hit portion, a DRAM miss portion, and cache-fill traffic
// back into HBM.
func (e *Engine) transformDemand(d memsim.Demand) memsim.Demand {
	if w := e.cfg.RecordWeight; w > 1 {
		scaled := memsim.Demand{Phases: make([]memsim.Phase, len(d.Phases))}
		for i, p := range d.Phases {
			p.Bytes *= w
			p.CPUOps *= w
			scaled.Phases[i] = p
		}
		d = scaled
	}
	if e.cfg.Placement != PlacementCache {
		return d
	}
	hasHBM := e.cfg.Machine.Tier(memsim.HBM).Capacity > 0
	out := memsim.Demand{}
	for _, p := range d.Phases {
		if p.CPUOps > 0 || p.Tier != memsim.HBM {
			out.Phases = append(out.Phases, p)
			continue
		}
		if !hasHBM {
			// Machines without HBM (X56) serve everything from DRAM.
			p.Tier = memsim.DRAM
			out.Phases = append(out.Phases, p)
			continue
		}
		hitBytes := int64(float64(p.Bytes) * cacheHitFrac)
		missBytes := p.Bytes - hitBytes
		if p.Pattern == memsim.Sequential {
			out = out.Seq(memsim.HBM, hitBytes).Seq(memsim.DRAM, missBytes).Seq(memsim.HBM, missBytes)
		} else {
			out = out.Rand(memsim.HBM, hitBytes, p.MLP).Rand(memsim.DRAM, missBytes, p.MLP).Seq(memsim.HBM, missBytes)
		}
	}
	return out
}

// NewBundleBuilder allocates a DRAM record bundle charged to the pool
// (at virtual size under specimen scaling).
func (e *Engine) NewBundleBuilder(schema bundle.Schema, capacity int) (*bundle.Builder, error) {
	alloc, err := e.Pool.Alloc(memsim.DRAM, int64(capacity)*schema.RecordBytes()*e.cfg.RecordWeight)
	if err != nil {
		return nil, fmt.Errorf("engine: bundle allocation: %w", err)
	}
	bd, err := e.Reg.NewBuilder(schema, capacity, memsim.DRAM)
	if err != nil {
		alloc.Free()
		return nil, err
	}
	return bd, bd.AttachAlloc(alloc)
}

// planPlacement draws the placement decision for a new KPA given the
// task's tag, returning both the planned tier (for demand modeling) and
// an allocator realizing it.
func (e *Engine) planPlacement(tag Tag) (memsim.Tier, kpa.Allocator) {
	switch e.cfg.Placement {
	case PlacementDRAM:
		return memsim.DRAM, &plannedAllocator{e: e, tag: tag, tier: memsim.DRAM}
	case PlacementCache:
		return memsim.HBM, &plannedAllocator{e: e, tag: tag, tier: memsim.HBM}
	}
	tier := memsim.DRAM
	if tag == Urgent || e.knob.WantHBM(tag) {
		tier = memsim.HBM
	}
	return tier, &plannedAllocator{e: e, tag: tag, tier: tier}
}

// plannedAllocator realizes a placement decision made at task-creation
// time, spilling to DRAM when the planned tier is exhausted.
type plannedAllocator struct {
	e    *Engine
	tag  Tag
	tier memsim.Tier
}

// AllocKPA implements kpa.Allocator.
func (pa *plannedAllocator) AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error) {
	e := pa.e
	nBytes *= e.cfg.RecordWeight
	if e.cfg.Placement == PlacementCache {
		a, err := e.Pool.Alloc(memsim.DRAM, nBytes)
		return memsim.HBM, a, err
	}
	if pa.tier == memsim.HBM {
		if pa.tag == Urgent && e.cfg.Placement == PlacementManaged {
			a, err := e.Pool.AllocUrgent(nBytes, memsim.HBM, memsim.DRAM)
			if err != nil {
				return 0, nil, err
			}
			return a.Tier(), a, nil
		}
		if a, err := e.Pool.Alloc(memsim.HBM, nBytes); err == nil {
			return memsim.HBM, a, nil
		}
		// Planned HBM but full: spill (paper §5).
	}
	a, err := e.Pool.Alloc(memsim.DRAM, nBytes)
	return memsim.DRAM, a, err
}

// placementAllocator implements kpa.Allocator with the engine's policy.
type placementAllocator struct {
	e   *Engine
	tag Tag
}

// AllocKPA places a new KPA per the engine's placement mode, tag and
// knob. With managed placement, HBM exhaustion spills to DRAM (paper:
// "When HBM is full, all future KPAs regardless of their performance
// impact tag are forced to spill to DRAM").
func (pa *placementAllocator) AllocKPA(nBytes int64) (memsim.Tier, *mempool.Allocation, error) {
	e := pa.e
	nBytes *= e.cfg.RecordWeight
	switch e.cfg.Placement {
	case PlacementDRAM:
		a, err := e.Pool.Alloc(memsim.DRAM, nBytes)
		return memsim.DRAM, a, err
	case PlacementCache:
		// Address space is DRAM; tier reported as HBM so demand phases
		// go through the cache-mode transform.
		a, err := e.Pool.Alloc(memsim.DRAM, nBytes)
		return memsim.HBM, a, err
	}
	if pa.tag == Urgent {
		a, err := e.Pool.AllocUrgent(nBytes, memsim.HBM, memsim.DRAM)
		if err != nil {
			return 0, nil, err
		}
		return a.Tier(), a, nil
	}
	if e.knob.WantHBM(pa.tag) {
		if a, err := e.Pool.Alloc(memsim.HBM, nBytes); err == nil {
			return memsim.HBM, a, nil
		}
		// HBM full: spill.
	}
	a, err := e.Pool.Alloc(memsim.DRAM, nBytes)
	return memsim.DRAM, a, err
}

// startMonitor begins the 10 ms resource sampling loop: it measures HBM
// capacity and DRAM bandwidth, refreshes the knob, applies ingestion
// back-pressure, and optionally records the Fig 10 time series.
func (e *Engine) startMonitor() {
	dramBWCap := e.cfg.Machine.Tier(memsim.DRAM).Bandwidth
	var tick func(now float64)
	tick = func(now float64) {
		bytes := e.Sim.IntervalBytes()
		dramBW := bytes[memsim.DRAM] / monitorInterval
		hbmBW := bytes[memsim.HBM] / monitorInterval
		hbmUtil := e.Pool.Utilization(memsim.HBM)
		headroom := e.lastDelay < (1-delayHeadroomFrac)*e.cfg.TargetDelaySec
		if e.cfg.Placement == PlacementManaged {
			e.knob.Update(hbmUtil, dramBW/dramBWCap, headroom)
		}
		// Back-pressure: both resources exhausted -> stop pulling data.
		exhausted := hbmUtil > 0.95 && dramBW/dramBWCap > 0.90
		if exhausted && !e.paused {
			e.paused = true
		} else if !exhausted && e.paused {
			e.paused = false
			for _, s := range e.sources {
				s.kick(now)
			}
		}
		if e.cfg.RecordSeries {
			e.stats.Series = append(e.stats.Series, Sample{
				T:        now,
				HBMUtil:  hbmUtil,
				DRAMBW:   dramBW,
				HBMBW:    hbmBW,
				KLow:     e.knob.KLow,
				KHigh:    e.knob.KHigh,
				Paused:   e.paused,
				HBMBytes: e.Pool.Used(memsim.HBM),
			})
		}
		e.Sim.After(monitorInterval, tick)
	}
	e.Sim.After(monitorInterval, tick)
}

func (e *Engine) recordError(err error) {
	if err != nil {
		e.stats.Errors = append(e.stats.Errors, err)
	}
}

// noteDelay records an observed output delay (called by EgressSink).
func (e *Engine) noteDelay(d float64) {
	e.stats.Delays = append(e.stats.Delays, d)
	e.stats.WindowsClosed++
	e.lastDelay = d
}

// SinkWatermark records the output delay for watermark w as observed
// by a sink at virtual time now. Custom sinks call this from their
// OnWatermark after deduplicating repeats.
func (e *Engine) SinkWatermark(w wm.Time, now float64) {
	if t, ok := e.wmEmitTime[w]; ok {
		e.noteDelay(now - t)
	}
}

// CountEmitted adds n records to the emitted-result counter (custom
// sinks call this).
func (e *Engine) CountEmitted(n int64) { e.stats.EmittedRecords += n }
