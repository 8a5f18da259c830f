package engine

import (
	"fmt"

	"streambox/internal/bundle"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// Generator produces a stream's records. Implementations live in
// internal/ingress (KV, YSB, Power Grid).
type Generator interface {
	// Schema returns the record layout of the stream.
	Schema() bundle.Schema
	// Fill appends n records with event timestamps drawn from
	// [tsLo, tsHi) to the builder.
	Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time)
}

// SourceConfig describes one ingress stream (paper §6 "Data ingress").
type SourceConfig struct {
	// Name labels the source in stats.
	Name string
	// Rate is the offered load in records/second of virtual time.
	Rate float64
	// NICBandwidth caps ingress in bytes/second (RDMA: 5 GB/s,
	// 10 GbE: 1.25 GB/s). Zero means unconstrained.
	NICBandwidth float64
	// BundleRecords is the number of records per ingested bundle.
	BundleRecords int
	// WindowRecords sets the event-time density: this many records span
	// one window of event time (paper: 10 M records per 1 s window).
	WindowRecords int
	// WatermarkEvery emits a watermark after this many bundles.
	WatermarkEvery int
}

// Validate reports configuration errors.
func (c SourceConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("engine: source %q: rate must be positive", c.Name)
	}
	if c.BundleRecords <= 0 {
		return fmt.Errorf("engine: source %q: bundle size must be positive", c.Name)
	}
	if c.WindowRecords <= 0 {
		return fmt.Errorf("engine: source %q: window records must be positive", c.Name)
	}
	if c.WatermarkEvery <= 0 {
		return fmt.Errorf("engine: source %q: watermark interval must be positive", c.Name)
	}
	return nil
}

// sourceOp is the hidden operator heading a source's node; it only
// exists so ingestion tasks and watermarks use the node machinery.
type sourceOp struct{ name string }

func (s *sourceOp) Name() string                   { return s.name }
func (s *sourceOp) InPorts() int                   { return 1 }
func (s *sourceOp) OnInput(*Ctx, int, Input)       {}
func (s *sourceOp) OnWatermark(*Ctx, int, wm.Time) {}

// sourceDriver generates bundles on a virtual-time schedule, respecting
// the NIC bandwidth, the offered rate and engine back-pressure.
type sourceDriver struct {
	e    *Engine
	cfg  SourceConfig
	gen  Generator
	node *Node

	bundleCount  int
	nextEventTs  wm.Time
	tsPerRecord  float64
	pendingStart bool
	stopped      bool
}

// AddSource attaches a generator to the pipeline, feeding input port
// inPort of entry.
func (e *Engine) AddSource(gen Generator, cfg SourceConfig, entry *Node, inPort int) (*sourceDriver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srcNode := e.AddOperator(&sourceOp{name: "source:" + cfg.Name})
	e.Connect(srcNode, 0, entry, inPort)
	d := &sourceDriver{
		e:           e,
		cfg:         cfg,
		gen:         gen,
		node:        srcNode,
		tsPerRecord: float64(e.Win.Size) * float64(e.cfg.RecordWeight) / float64(cfg.WindowRecords),
	}
	e.sources = append(e.sources, d)
	return d, nil
}

// start schedules the first bundle at time zero.
func (d *sourceDriver) start() {
	d.e.Sim.At(0, func(now float64) { d.emitBundle(now) })
}

// kick resumes a back-pressured source.
func (d *sourceDriver) kick(now float64) {
	if d.pendingStart && !d.stopped {
		d.pendingStart = false
		d.emitBundle(now)
	}
}

// emitBundle generates one bundle, spawns its ingestion task and
// schedules the next emission.
func (d *sourceDriver) emitBundle(now float64) {
	if d.stopped {
		return
	}
	if d.e.paused {
		// Back-pressure: wait for the monitor to resume us.
		d.pendingStart = true
		return
	}
	n := d.cfg.BundleRecords
	schema := d.gen.Schema()
	bd, err := d.e.NewBundleBuilder(schema, n)
	if err != nil {
		// DRAM exhausted: behave like back-pressure and retry shortly.
		d.e.Sim.After(0.005, d.emitBundle)
		return
	}
	tsLo := d.nextEventTs
	tsHi := tsLo + wm.Time(float64(n)*d.tsPerRecord)
	if tsHi == tsLo {
		tsHi = tsLo + 1
	}
	d.gen.Fill(bd, n, tsLo, tsHi)
	b := bd.Seal()
	d.nextEventTs = tsHi
	d.bundleCount++
	bundleBytes := b.Bytes()

	// Ingestion task: the NIC copy into a DRAM bundle. With specimen
	// scaling, each real record stands for RecordWeight virtual ones.
	w := d.e.cfg.RecordWeight
	d.e.stats.IngestedRecords += int64(n) * w
	d.e.stats.IngestedBytes += bundleBytes * w
	tag := tagFor(d.e.Win, d.e.targetWM, tsHi)
	d.e.spawn(d.node, "ingest:"+d.cfg.Name, tag,
		memsim.Demand{}.Seq(memsim.DRAM, bundleBytes),
		func() []Emission {
			return []Emission{{Port: 0, In: Input{B: b}}}
		}, nil)

	// Watermark cadence.
	if d.bundleCount%d.cfg.WatermarkEvery == 0 && tsHi > 0 {
		d.emitWatermark(now, tsHi)
	}

	// Next bundle: limited by offered rate and NIC bandwidth (both in
	// virtual units).
	gap := float64(int64(n)*w) / d.cfg.Rate
	if d.cfg.NICBandwidth > 0 {
		// Wire bytes include per-record framing and bundle metadata
		// (roughly doubling payload for small numeric records).
		wireBytes := 2 * bundleBytes * w
		if nicGap := float64(wireBytes) / d.cfg.NICBandwidth; nicGap > gap {
			gap = nicGap
		}
	}
	d.e.Sim.After(gap, d.emitBundle)
}

// emitWatermark records the emission time (for output-delay accounting)
// and pushes the watermark into the pipeline.
func (d *sourceDriver) emitWatermark(now float64, w wm.Time) {
	if _, seen := d.e.wmEmitTime[w]; !seen {
		d.e.wmEmitTime[w] = now
	}
	if w > d.e.targetWM {
		d.e.targetWM = w
	}
	d.node.onUpstreamWM(d.e, 0, w)
}
