// Package baseline implements the comparison systems of the paper's
// evaluation: a Flink-like engine (hash-based random-access grouping on
// transparently-managed memory, record-at-a-time overheads, §7.1) and
// helpers to configure the StreamBox-HBM ablations of §7.3 (DRAM-only,
// cache mode, cache mode without KPA).
package baseline

import (
	"streambox/internal/algo"
	"streambox/internal/engine"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// FlinkCyclesPerRecord models the per-record overhead of a JVM
// record-at-a-time engine relative to StreamBox-HBM's vectorized
// bundle processing. Calibrated so the per-core YSB throughput gap is
// roughly the paper's 18x (§7.1).
const FlinkCyclesPerRecord = 10000

// FlinkConfig returns the engine configuration a Flink-like system
// implies on the given machine: transparent cache-mode memory (the
// paper runs Flink with HBM in cache mode), no KPA extraction.
func FlinkConfig(machine memsim.Config, win wm.Windowing) engine.Config {
	return engine.Config{
		Machine:   machine,
		Win:       win,
		Placement: engine.PlacementCache,
		UseKPA:    false,
	}
}

// DRAMOnlyConfig is "StreamBox-HBM DRAM" (§7.3): KPAs, software
// placement, but every KPA in DRAM.
func DRAMOnlyConfig(machine memsim.Config, win wm.Windowing) engine.Config {
	return engine.Config{Machine: machine, Win: win, Placement: engine.PlacementDRAM, UseKPA: true}
}

// CachingConfig is "StreamBox-HBM Caching" (§7.3): KPAs, but hardware
// cache-mode placement instead of the knob.
func CachingConfig(machine memsim.Config, win wm.Windowing) engine.Config {
	return engine.Config{Machine: machine, Win: win, Placement: engine.PlacementCache, UseKPA: true}
}

// CachingNoKPAConfig is "StreamBox-HBM Caching NoKPA" (§7.3): no KPA
// extraction (grouping moves full records) on cache-mode memory — i.e.
// StreamBox with sequential algorithms on hardware-managed memory.
func CachingNoKPAConfig(machine memsim.Config, win wm.Windowing) engine.Config {
	return engine.Config{Machine: machine, Win: win, Placement: engine.PlacementCache, UseKPA: false}
}

// HashWindowCountOp is the Flink-like fused YSB stage: per record it
// filters by event type, maps ad to campaign through the side table,
// assigns the window, and increments a per-window hash-table count —
// random-access grouping on full records, the "existing engines" design
// of §2.2. One fused stage mirrors Flink's operator chaining.
type HashWindowCountOp struct {
	// EventTypeCol / KeyCol / TsCol locate the YSB columns.
	EventTypeCol int
	KeyCol       int
	TsCol        int
	// KeepEvent is the event type that survives the filter.
	KeepEvent uint64
	// Table maps ad IDs to campaign IDs.
	Table *algo.HashTable

	tables map[wm.Time]*algo.HashTable
}

var _ engine.Operator = (*HashWindowCountOp)(nil)

// NewHashWindowCount creates the fused stage.
func NewHashWindowCount(eventCol, keyCol, tsCol int, keep uint64, table *algo.HashTable) *HashWindowCountOp {
	return &HashWindowCountOp{
		EventTypeCol: eventCol,
		KeyCol:       keyCol,
		TsCol:        tsCol,
		KeepEvent:    keep,
		Table:        table,
		tables:       make(map[wm.Time]*algo.HashTable),
	}
}

// Name implements engine.Operator.
func (o *HashWindowCountOp) Name() string { return "flink:hash-window-count" }

// InPorts implements engine.Operator.
func (o *HashWindowCountOp) InPorts() int { return 1 }

// OnInput processes one bundle record-at-a-time into per-window hash
// tables.
func (o *HashWindowCountOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	b := in.B
	if b == nil {
		ctx.Errorf("flink baseline consumes record bundles")
		in.Release()
		return
	}
	n := int64(b.Rows())
	ts := in.MaxTs()
	// Record-at-a-time CPU plus hash-grouping traffic on nominal fast
	// memory (cache mode splits it into HBM hits + DRAM misses).
	d := memsim.Demand{}.CPU(n * FlinkCyclesPerRecord)
	hd := memsim.HashGroupDemand(memsim.HBM, int(n))
	d.Phases = append(d.Phases, hd.Phases...)
	win := ctx.Windowing()
	ctx.Spawn(o.Name(), ts, d, func() []engine.Emission {
		for i := 0; i < b.Rows(); i++ {
			if b.At(i, o.EventTypeCol) != o.KeepEvent {
				continue
			}
			camp, ok := o.Table.Get(b.At(i, o.KeyCol))
			if !ok {
				continue
			}
			w := win.WindowOf(b.Ts(i))
			tab := o.tables[w]
			if tab == nil {
				tab = algo.NewHashTable(128)
				o.tables[w] = tab
			}
			tab.Add(camp, 1)
		}
		in.Release()
		return nil
	})
}

// OnWatermark emits (campaign, count, winStart) records for closed
// windows.
func (o *HashWindowCountOp) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	win := ctx.Windowing()
	var closed []wm.Time
	for start := range o.tables {
		if win.End(start) <= w {
			closed = append(closed, start)
		}
	}
	for _, start := range closed {
		tab := o.tables[start]
		delete(o.tables, start)
		winStart := start
		n := int64(tab.Len())
		d := memsim.Demand{}.CPU(n*50).Seq(memsim.DRAM, n*24)
		ctx.SpawnTagged(o.Name()+":emit", engine.Urgent, d, func() []engine.Emission {
			bd, err := ctx.NewBuilder(resultSchema, tab.Len()+1)
			if err != nil {
				ctx.Errorf("result: %v", err)
				return nil
			}
			tab.Range(func(k, v uint64) bool {
				bd.Append(k, v, winStart)
				return true
			})
			return []engine.Emission{{Port: 0, In: engine.Input{B: bd.Seal(), WinStart: winStart, HasWin: true}}}
		})
	}
}
