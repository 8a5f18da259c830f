package ops

import (
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// TemporalJoinOp joins two windowed streams by key (Figure 4b): for
// each arriving bundle it extracts and sorts a KPA, joins it against
// the opposite stream's accumulated window state, emits combined
// records, and merges the KPA into its own side's state. Each matching
// (left, right) pair is emitted exactly once because every new KPA only
// joins records that arrived before it on the other side.
type TemporalJoinOp struct {
	// KeyCol is the join key column; ValCol the payload column carried
	// into the output (key, lval, rval, ts) records.
	KeyCol int
	ValCol int

	sides [2]*windowState
}

var _ engine.Operator = (*TemporalJoinOp)(nil)

// NewTemporalJoin creates the operator.
func NewTemporalJoin(keyCol, valCol int) *TemporalJoinOp {
	return &TemporalJoinOp{
		KeyCol: keyCol,
		ValCol: valCol,
		sides:  [2]*windowState{newWindowState(), newWindowState()},
	}
}

// Name implements engine.Operator.
func (o *TemporalJoinOp) Name() string { return "TemporalJoin" }

// InPorts implements engine.Operator: L and R streams.
func (o *TemporalJoinOp) InPorts() int { return 2 }

// OnInput sorts the arriving KPA, joins it with the other side's state
// and stores it as own state.
func (o *TemporalJoinOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	if !in.HasWin {
		ctx.Errorf("temporal join requires windowed input")
		in.Release()
		return
	}
	if port != 0 && port != 1 {
		ctx.Errorf("invalid port %d", port)
		in.Release()
		return
	}
	win := in.WinStart
	tier, al := ctx.PlanPlacement(win)
	d := ensureKPADemand(ctx, in, o.KeyCol, tier, true)
	// Joining against existing runs adds a scan of those runs.
	other := o.sides[1-port]
	otherPairs := 0
	for _, r := range other.runs[win] {
		otherPairs += r.Len()
	}
	jd := ctx.GroupDemand(
		memsim.JoinDemand(tier, in.Rows()+otherPairs, 0, JoinedSchema.RecordBytes()),
		inputSchema(in))
	d.Phases = append(d.Phases, jd.Phases...)

	ctx.Spawn(o.Name()+":probe", win, d, func() []engine.Emission {
		k := toKeyedKPA(ctx, in, o.KeyCol, al, true)
		if k == nil {
			return nil
		}
		type match struct{ key, lv, rv uint64 }
		var matches []match
		for _, run := range other.runs[win] {
			run := run
			err := kpa.Join(k, run, func(r kpa.JoinRow) {
				lv := derefVal(k, r.Left, o.ValCol)
				rv := derefVal(run, r.Rght, o.ValCol)
				if port == 1 {
					lv, rv = rv, lv
				}
				matches = append(matches, match{r.Key, lv, rv})
			})
			if err != nil {
				ctx.Errorf("join: %v", err)
				k.Destroy()
				return nil
			}
		}
		var out []engine.Emission
		if len(matches) > 0 {
			bd, err := ctx.NewBuilder(JoinedSchema, len(matches))
			if err != nil {
				ctx.Errorf("join output: %v", err)
			} else {
				for _, m := range matches {
					bd.Append(m.key, m.lv, m.rv, win)
				}
				out = append(out, engine.Emission{Port: 0, In: engine.Input{B: bd.Seal(), WinStart: win, HasWin: true}})
			}
		}
		o.sides[port].add(win, k)
		return out
	})
}

// derefVal loads column col of the record behind ptr via its owning KPA.
func derefVal(k *kpa.KPA, ptr uint64, col int) uint64 {
	b, row := k.Deref(ptr)
	return b.At(row, col)
}

// OnWatermark discards state for closed windows (join results stream
// out as they are found).
func (o *TemporalJoinOp) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	for side := 0; side < 2; side++ {
		for _, win := range o.sides[side].closable(ctx.Windowing(), w) {
			for _, k := range o.sides[side].take(win) {
				k.Destroy()
			}
		}
	}
}
