package ops

import (
	"slices"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// AvgAllOp computes the average of one column across all records of
// each window (Windowed Average All, benchmark 5). It is an unkeyed
// reduction: per-bundle partial sums accumulate in window state and
// combine at closure — no sorting or merging needed.
type AvgAllOp struct {
	// ValCol is the averaged column.
	ValCol int

	partial map[wm.Time]*avgPartial
}

type avgPartial struct {
	sum uint64
	n   uint64
}

var _ engine.Operator = (*AvgAllOp)(nil)

// NewAvgAll creates the operator.
func NewAvgAll(valCol int) *AvgAllOp {
	return &AvgAllOp{ValCol: valCol, partial: make(map[wm.Time]*avgPartial)}
}

// Name implements engine.Operator.
func (o *AvgAllOp) Name() string { return "AvgAll" }

// InPorts implements engine.Operator.
func (o *AvgAllOp) InPorts() int { return 1 }

// OnInput folds the input's value column into the window partial.
func (o *AvgAllOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	if !in.HasWin {
		ctx.Errorf("AvgAll requires windowed input")
		in.Release()
		return
	}
	win := in.WinStart
	d := ctx.GroupDemand(memsim.ReduceKeyedDemand(tierOf(in), in.Rows()), inputSchema(in))
	ctx.Spawn("avgall:partial", win, d, func() []engine.Emission {
		agg := &SumAgg{}
		var n uint64
		switch {
		case in.K != nil:
			if err := kpa.ReduceAll(in.K, o.ValCol, agg); err != nil {
				ctx.Errorf("reduce: %v", err)
				in.Release()
				return nil
			}
			n = uint64(in.K.Len())
		case in.B != nil:
			for _, v := range in.B.Col(o.ValCol) {
				agg.Add(v)
			}
			n = uint64(in.B.Rows())
		}
		p := o.partial[win]
		if p == nil {
			p = &avgPartial{}
			o.partial[win] = p
		}
		p.sum += agg.Result()
		p.n += n
		in.Release()
		return nil
	})
}

// OnWatermark emits one (0, avg, winStart) record per closed window.
func (o *AvgAllOp) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	win := ctx.Windowing()
	var closed []wm.Time
	for start := range o.partial {
		if win.End(start) <= w {
			closed = append(closed, start)
		}
	}
	slices.Sort(closed)
	for _, start := range closed {
		p := o.partial[start]
		delete(o.partial, start)
		winStart := start
		avg := uint64(0)
		if p.n > 0 {
			avg = p.sum / p.n
		}
		ctx.SpawnTagged("avgall:emit", engine.Urgent, emitDemand(1, ResultSchema.RecordBytes()), func() []engine.Emission {
			bd, err := ctx.NewBuilder(ResultSchema, 1)
			if err != nil {
				ctx.Errorf("result bundle: %v", err)
				return nil
			}
			bd.Append(0, avg, winStart)
			return []engine.Emission{{Port: 0, In: engine.Input{B: bd.Seal(), WinStart: winStart, HasWin: true}}}
		})
	}
}
