package ops

import (
	"slices"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// PlugKey packs the DEBS 2014 hierarchy (house, household, plug) into
// one 64-bit grouping key so plug averages can be computed per plug and
// later folded per house.
func PlugKey(house, household, plug uint64) uint64 {
	return house<<32 | household<<16 | plug
}

// HouseOf extracts the house from a plug key.
func HouseOf(plugKey uint64) uint64 { return plugKey >> 32 }

// PowerGridOp implements benchmark 9 (derived from the DEBS 2014 grand
// challenge): per window it computes the average power of each plug and
// the average over all plugs, counts each house's plugs above the
// global average, and emits the houses with the most high-power plugs.
//
// Input records are (plugKey, load, ts); input arrives windowed (insert
// a WindowOp upstream). Output records are (house, count, winStart) for
// the top houses.
type PowerGridOp struct {
	state  *windowState
	global map[wm.Time]*avgPartial
}

var _ engine.Operator = (*PowerGridOp)(nil)

// NewPowerGrid creates the operator.
func NewPowerGrid() *PowerGridOp {
	return &PowerGridOp{state: newWindowState(), global: make(map[wm.Time]*avgPartial)}
}

// Name implements engine.Operator.
func (o *PowerGridOp) Name() string { return "PowerGrid" }

// InPorts implements engine.Operator.
func (o *PowerGridOp) InPorts() int { return 1 }

const (
	pgKeyCol = 0
	pgValCol = 1
)

// OnInput sorts arriving KPAs by plug key (for the per-plug averages)
// and accumulates the global load partial in the same pass.
func (o *PowerGridOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	if !in.HasWin {
		ctx.Errorf("power grid requires windowed input")
		in.Release()
		return
	}
	win := in.WinStart
	tier, al := ctx.PlanPlacement(win)
	d := ensureKPADemand(ctx, in, pgKeyCol, tier, true)
	ctx.Spawn("powergrid:sort", win, d, func() []engine.Emission {
		k := toKeyedKPA(ctx, in, pgKeyCol, al, true)
		if k == nil {
			return nil
		}
		agg := &SumAgg{}
		if err := kpa.ReduceAll(k, pgValCol, agg); err != nil {
			ctx.Errorf("global partial: %v", err)
			k.Destroy()
			return nil
		}
		p := o.global[win]
		if p == nil {
			p = &avgPartial{}
			o.global[win] = p
		}
		p.sum += agg.Result()
		p.n += uint64(k.Len())
		o.state.add(win, k)
		return nil
	})
}

// OnWatermark closes windows: merge plug runs, compute per-plug
// averages, compare with the global average, count per house, emit the
// top houses.
func (o *PowerGridOp) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	for _, win := range o.state.closable(ctx.Windowing(), w) {
		runs := o.state.take(win)
		p := o.global[win]
		delete(o.global, win)
		globalAvg := uint64(0)
		if p != nil && p.n > 0 {
			globalAvg = p.sum / p.n
		}
		winStart := win
		mergeTree(ctx, o.Name(), runs, func(merged *kpa.KPA) {
			if merged == nil {
				return
			}
			o.reduceWindow(ctx, merged, globalAvg, winStart)
		})
	}
}

// reduceWindow computes per-plug averages in range-parallel tasks
// (plug-key-aligned), folds per-house counts of plugs above the global
// average, and emits the top houses in a final combining task.
func (o *PowerGridOp) reduceWindow(ctx *engine.Ctx, merged *kpa.KPA, globalAvg uint64, winStart wm.Time) {
	runs := []*kpa.KPA{merged}
	cuts, err := kpa.MergeCuts(runs, ctx.Cores())
	if err != nil {
		ctx.Errorf("cuts: %v", err)
		merged.Destroy()
		return
	}
	remaining := len(cuts) - 1
	houseCounts := make(map[uint64]uint64)
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		// Two aggregation rounds (per-plug average, per-house fold) over
		// the range: charge a multiple of a plain keyed reduction.
		d := ctx.GroupDemand(memsim.ReduceKeyedDemand(merged.Tier(), 3*(hi[0]-lo[0])), ResultSchema)
		ctx.SpawnCont(o.Name()+":reduce", engine.Urgent, d, func() []engine.Emission {
			err := kpa.MergeReduceRange(runs, lo, hi, pgValCol, Avg(), func(plugKey, avg uint64) {
				if avg > globalAvg {
					houseCounts[HouseOf(plugKey)]++
				}
			})
			if err != nil {
				ctx.Errorf("reduce: %v", err)
			}
			return nil
		}, func() {
			remaining--
			if remaining == 0 {
				merged.Destroy()
				o.emitTopHouses(ctx, houseCounts, winStart)
			}
		})
	}
}

// emitTopHouses emits the houses with the maximum high-power plug count.
func (o *PowerGridOp) emitTopHouses(ctx *engine.Ctx, houseCounts map[uint64]uint64, winStart wm.Time) {
	var maxCount uint64
	for _, c := range houseCounts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return
	}
	var top []uint64
	for h, c := range houseCounts {
		if c == maxCount {
			top = append(top, h)
		}
	}
	slices.Sort(top)
	ctx.SpawnTagged(o.Name()+":emit", engine.Urgent, emitDemand(len(top), ResultSchema.RecordBytes()), func() []engine.Emission {
		bd, err := ctx.NewBuilder(ResultSchema, len(top))
		if err != nil {
			ctx.Errorf("result bundle: %v", err)
			return nil
		}
		for _, h := range top {
			bd.Append(h, maxCount, winStart)
		}
		return []engine.Emission{{Port: 0, In: engine.Input{B: bd.Seal(), WinStart: winStart, HasWin: true}}}
	})
}
