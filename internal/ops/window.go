package ops

import (
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/wm"
)

// WindowOp assigns records to temporal windows using the Partition
// primitive on the timestamp column (paper §4.2, "Windowing operators"):
// the timestamp is the partitioning key and the window (or slide) length
// is the key range of each output partition. Inputs may be record
// bundles (extracted here) or KPAs; outputs are per-window KPAs whose
// resident column is the timestamp.
type WindowOp struct {
	// TsCol is the timestamp column index of the input schema.
	TsCol int
}

var _ engine.Operator = (*WindowOp)(nil)

// Name implements engine.Operator.
func (o *WindowOp) Name() string { return "Windowing" }

// InPorts implements engine.Operator.
func (o *WindowOp) InPorts() int { return 1 }

// OnInput partitions the input by window boundaries.
func (o *WindowOp) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	ts := in.MaxTs()
	win := ctx.Windowing()
	tier, al := ctx.PlanPlacement(ts)
	d := ensureKPADemand(ctx, in, o.TsCol, tier, false)
	pd := kpa.PartitionDemandN(tier, in.Rows())
	d.Phases = append(d.Phases, ctx.GroupDemand(pd, inputSchema(in)).Phases...)

	ctx.Spawn("window:partition", ts, d, func() []engine.Emission {
		k := toKeyedKPA(ctx, in, o.TsCol, al, false)
		if k == nil {
			return nil
		}
		lo, hi, ok := minMaxKeys(k)
		if !ok {
			k.Destroy()
			return nil
		}
		if win.IsFixed() {
			return o.emitFixed(ctx, k, win, lo, hi, al)
		}
		return o.emitSliding(ctx, k, win, lo, hi, al)
	})
}

// emitFixed partitions the KPA once: each record lands in exactly one
// window.
func (o *WindowOp) emitFixed(ctx *engine.Ctx, k *kpa.KPA, win wm.Windowing, lo, hi wm.Time, al kpa.Allocator) []engine.Emission {
	bounds := win.Boundaries(lo, hi)
	parts, err := kpa.Partition(k, bounds, al)
	k.Destroy()
	if err != nil {
		ctx.Errorf("partition: %v", err)
		return nil
	}
	var out []engine.Emission
	for i, p := range parts {
		// Bucket 0 holds keys below the first boundary, empty by
		// construction of Boundaries(lo, hi).
		if i == 0 || p.Len() == 0 {
			p.Destroy()
			continue
		}
		out = append(out, engine.Emission{Port: 0, In: engine.Input{
			K: p, WinStart: bounds[i-1], HasWin: true,
		}})
	}
	return out
}

// emitSliding replicates records into every window containing them
// (each record belongs to Size/Slide windows). The emitted KPAs carry
// PaneShare = Overlap so downstream grouping charges the pane-shared
// demand — each record's one pane run is built and sorted once and
// referenced by every covering window, as on the native backend —
// rather than a full sort per replica.
func (o *WindowOp) emitSliding(ctx *engine.Ctx, k *kpa.KPA, win wm.Windowing, lo, hi wm.Time, al kpa.Allocator) []engine.Emission {
	first := win.WindowsOf(lo)[0]
	share := win.Overlap()
	var out []engine.Emission
	for _, start := range win.Boundaries(first, hi) {
		s, e := start, win.End(start)
		sel, err := kpa.Select(k, func(key uint64) bool { return key >= s && key < e }, al)
		if err != nil {
			ctx.Errorf("select: %v", err)
			break
		}
		if sel.Len() == 0 {
			sel.Destroy()
			continue
		}
		out = append(out, engine.Emission{Port: 0, In: engine.Input{
			K: sel, WinStart: start, HasWin: true, PaneShare: share,
		}})
	}
	k.Destroy()
	return out
}

// OnWatermark implements engine.Operator (stateless: pass through).
func (o *WindowOp) OnWatermark(*engine.Ctx, int, wm.Time) {}

// minMaxKeys returns the resident-key range of a KPA.
func minMaxKeys(k *kpa.KPA) (lo, hi uint64, ok bool) {
	pairs := k.Pairs()
	if len(pairs) == 0 {
		return 0, 0, false
	}
	lo, hi = pairs[0].Key, pairs[0].Key
	for _, p := range pairs[1:] {
		if p.Key < lo {
			lo = p.Key
		}
		if p.Key > hi {
			hi = p.Key
		}
	}
	return lo, hi, true
}
