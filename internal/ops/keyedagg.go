package ops

import (
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/wm"
)

// KeyedAggOp is the stateful Keyed Aggregation family of Figure 4a
// (SumPerKey, AvgPerKey, MedianPerKey, TopKPerKey, CountByKey,
// UniqueCountPerKey, PercentileByKey — pick the aggregator). As sorted
// KPAs arrive for a window they are saved as window state; at window
// closure the runs are pairwise-merged and reduced per key, emitting
// (key, result, winStart) records.
type KeyedAggOp struct {
	// Label names the aggregation in task names and stats.
	Label string
	// KeyCol is the grouping column; ValCol the aggregated column.
	KeyCol int
	ValCol int
	// Agg builds one aggregator per key group.
	Agg kpa.AggFactory
	// ReduceCost scales the reduction demand relative to a running
	// aggregate: order statistics (median, top-k, percentiles) and
	// distinct counting collect and sort per-key values, costing a
	// multiple of a simple fold. 0 means 1.
	ReduceCost float64

	state *windowState
}

var _ engine.Operator = (*KeyedAggOp)(nil)

// NewKeyedAgg creates a keyed aggregation operator.
func NewKeyedAgg(label string, keyCol, valCol int, agg kpa.AggFactory) *KeyedAggOp {
	return &KeyedAggOp{Label: label, KeyCol: keyCol, ValCol: valCol, Agg: agg, state: newWindowState()}
}

// WithReduceCost sets the reduction demand multiplier and returns the
// operator (builder style).
func (o *KeyedAggOp) WithReduceCost(f float64) *KeyedAggOp {
	o.ReduceCost = f
	return o
}

// Name implements engine.Operator.
func (o *KeyedAggOp) Name() string { return "KeyedAgg:" + o.Label }

// InPorts implements engine.Operator.
func (o *KeyedAggOp) InPorts() int { return 1 }

// OnInput key-swaps (or extracts) the input to the grouping key, sorts
// it, and saves it as window state.
func (o *KeyedAggOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	if !in.HasWin {
		ctx.Errorf("keyed aggregation requires windowed input (insert a WindowOp upstream)")
		in.Release()
		return
	}
	win := in.WinStart
	tier, al := ctx.PlanPlacement(win)
	d := ensureKPADemand(ctx, in, o.KeyCol, tier, true)
	ctx.Spawn(o.Name()+":sort", win, d, func() []engine.Emission {
		k := toKeyedKPA(ctx, in, o.KeyCol, al, true)
		if k == nil {
			return nil
		}
		o.state.add(win, k)
		return nil
	})
}

// OnWatermark merges and reduces every closed window (Figure 4a right
// side), emitting one result bundle per window.
func (o *KeyedAggOp) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	for _, win := range o.state.closable(ctx.Windowing(), w) {
		runs := o.state.take(win)
		winStart := win
		mergeTree(ctx, o.Name(), runs, func(merged *kpa.KPA) {
			if merged == nil {
				return
			}
			parallelReduce(ctx, o.Name(), merged, o.ValCol, o.Agg, winStart, o.ReduceCost)
		})
	}
}
