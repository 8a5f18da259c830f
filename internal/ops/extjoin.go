package ops

import (
	"streambox/internal/algo"
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// ExternalJoinOp joins a stream against a small external key-value
// table held in HBM (paper §4.3 step 3: YSB joins ad_id with the
// associated campaign_id from an external store). It key-swaps the
// input to KeyCol if needed, updates the resident keys in place through
// the table, and writes the dirty keys back to the full records so
// downstream KeySwap and Materialize observe them (§4.3 step 4).
type ExternalJoinOp struct {
	// Label names the join.
	Label string
	// KeyCol is the column joined through the table.
	KeyCol int
	// Table maps resident keys to replacement keys.
	Table *algo.HashTable
	// Default is used for keys missing from the table.
	Default uint64
}

var _ engine.Operator = (*ExternalJoinOp)(nil)

// Name implements engine.Operator.
func (o *ExternalJoinOp) Name() string { return "ExternalJoin:" + o.Label }

// InPorts implements engine.Operator.
func (o *ExternalJoinOp) InPorts() int { return 1 }

// OnInput rewrites resident keys through the table.
func (o *ExternalJoinOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	ts := in.MaxTs()
	n := int64(in.Rows())
	tier, al := ctx.PlanPlacement(ts)
	// Extract/key-swap, then scan the KPA sequentially; each key probes
	// the HBM-resident table and writes back to the record column.
	d := ensureKPADemand(ctx, in, o.KeyCol, tier, false)
	probe := memsim.Demand{}.CPU(n*4).
		Seq(tier, n*memsim.PairBytes).
		Rand(memsim.HBM, n*64, 4). // table probes
		Rand(memsim.DRAM, n*8, 4)  // dirty-key write-back
	d.Phases = append(d.Phases, ctx.GroupDemand(probe, inputSchema(in)).Phases...)
	win := in.WinStart
	hasWin := in.HasWin
	ctx.Spawn(o.Name(), ts, d, func() []engine.Emission {
		k := toKeyedKPA(ctx, in, o.KeyCol, al, false)
		if k == nil {
			return nil
		}
		kpa.UpdateKeysWriteBack(k, func(key uint64) uint64 {
			if v, ok := o.Table.Get(key); ok {
				return v
			}
			return o.Default
		})
		return []engine.Emission{{Port: 0, In: engine.Input{K: k, WinStart: win, HasWin: hasWin}}}
	})
}

// OnWatermark implements engine.Operator (stateless).
func (o *ExternalJoinOp) OnWatermark(*engine.Ctx, int, wm.Time) {}
