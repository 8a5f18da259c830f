package ops

import (
	"slices"

	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// ResultSchema is the layout of aggregate results: (key, value, ts).
var ResultSchema = bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}}

// JoinedSchema is the layout of temporal-join outputs:
// (key, left value, right value, ts).
var JoinedSchema = bundle.Schema{NumCols: 4, TsCol: 3, Names: []string{"key", "lval", "rval", "ts"}}

// tierOf returns the tier the input's grouped representation lives on
// (bundles are always DRAM).
func tierOf(in engine.Input) memsim.Tier {
	if in.K != nil {
		return in.K.Tier()
	}
	return memsim.DRAM
}

// emitDemand is the cost of writing rows result records to DRAM.
func emitDemand(rows int, recBytes int64) memsim.Demand {
	return memsim.ScanDemand(memsim.DRAM, int64(rows)*recBytes, int64(rows)*4)
}

// inputSchema returns the record schema behind an input, defaulting to
// ResultSchema when indeterminate.
func inputSchema(in engine.Input) bundle.Schema {
	if in.B != nil {
		return in.B.Schema()
	}
	if in.K != nil {
		if s, ok := in.K.Schema(); ok {
			return s
		}
	}
	return ResultSchema
}

// ensureKPADemand estimates the cost of toKeyedKPA before spawning:
// extract (bundle inputs) or key swap (mismatched resident), plus the
// sort when requested.
func ensureKPADemand(ctx *engine.Ctx, in engine.Input, keyCol int, tier memsim.Tier, doSort bool) memsim.Demand {
	d := memsim.Demand{}
	n := in.Rows()
	if share := in.PaneShare; share > 1 && in.K != nil {
		// Pane-shared sliding state: key swap and run formation happen
		// once per pane run and amortize across the windows referencing
		// it, so each window is charged a 1/share slice of the *same*
		// kernel model the unshared branch uses — only the sharing
		// factor separates the two paths, never a kernel swap.
		// (memsim.PaneDemand is the radix-kernel counterpart, used
		// where run formation is modeled as radix: experiments.FigPanes.)
		per := (n + share - 1) / share
		if in.K.Resident() != keyCol {
			d = memsim.KeySwapDemand(in.K.Tier(), per)
		}
		if doSort {
			sd := memsim.SortDemand(tier, per)
			d.Phases = append(d.Phases, sd.Phases...)
		}
		return ctx.GroupDemand(d, inputSchema(in))
	}
	if in.B != nil {
		d = kpa.ExtractDemand(in.B, tier)
	} else if in.K != nil && in.K.Resident() != keyCol {
		d = kpa.KeySwapDemand(in.K)
	}
	if doSort {
		sd := memsim.SortDemand(tier, n)
		d.Phases = append(d.Phases, sd.Phases...)
	}
	return ctx.GroupDemand(d, inputSchema(in))
}

// toKeyedKPA runs inside a task body: it converts the input into a KPA
// whose resident column is keyCol (paper §4.3 pseudocode:
// "X = IsKPA(X) ? X : Extract(X); if ResidentColumn != c KeySwap"),
// optionally sorting. It consumes the input (the caller must not
// release it again). Returns nil after reporting an error.
func toKeyedKPA(ctx *engine.Ctx, in engine.Input, keyCol int, al kpa.Allocator, doSort bool) *kpa.KPA {
	var k *kpa.KPA
	if in.B != nil {
		var err error
		k, err = kpa.Extract(in.B, keyCol, al)
		if err != nil {
			ctx.Errorf("extract: %v", err)
			in.Release()
			return nil
		}
		in.Release() // KPA holds its own bundle reference now
	} else {
		k = in.K
		if k == nil {
			ctx.Errorf("empty input")
			return nil
		}
		if k.Resident() != keyCol {
			if err := kpa.KeySwap(k, keyCol); err != nil {
				ctx.Errorf("keyswap: %v", err)
				k.Destroy()
				return nil
			}
		}
	}
	if doSort && !k.Sorted() {
		kpa.SortRadix(k, 1, nil)
	}
	return k
}

// windowState tracks per-window sorted KPA runs for stateful operators
// (the dashed-line boxes of Figure 4).
type windowState struct {
	runs map[wm.Time][]*kpa.KPA
}

func newWindowState() *windowState {
	return &windowState{runs: make(map[wm.Time][]*kpa.KPA)}
}

func (s *windowState) add(win wm.Time, k *kpa.KPA) {
	s.runs[win] = append(s.runs[win], k)
}

// take removes and returns the runs of one window.
func (s *windowState) take(win wm.Time) []*kpa.KPA {
	r := s.runs[win]
	delete(s.runs, win)
	return r
}

// closable returns the window starts whose end has passed the
// watermark, ascending.
func (s *windowState) closable(w wm.Windowing, watermark wm.Time) []wm.Time {
	var out []wm.Time
	for win := range s.runs {
		if w.End(win) <= watermark {
			out = append(out, win)
		}
	}
	slices.Sort(out)
	return out
}

// mergeTree pairwise-merges the sorted runs of a closing window (paper
// §4.2: "all N threads participate in pairwise merge of these chunks
// iteratively"), then calls done with the single merged KPA. Large
// merges near the tree root are sliced at key boundaries into one task
// per core. Each task runs the one merge kernel (algo.MultiMergeFold,
// through kpa.MergeK or kpa.MergeSegment) over its two inputs; the tree
// and its slices are the paper's, charged by their Demands. Runs are
// consumed. Every task is Urgent: the window is on the critical path to
// output.
func mergeTree(ctx *engine.Ctx, name string, runs []*kpa.KPA, done func(*kpa.KPA)) {
	switch len(runs) {
	case 0:
		done(nil)
		return
	case 1:
		done(runs[0])
		return
	}
	var next []*kpa.KPA
	pending := 0
	finish := func() {
		pending--
		if pending == 0 {
			if len(runs)%2 == 1 {
				next = append(next, runs[len(runs)-1])
			}
			mergeTree(ctx, name, next, done)
		}
	}
	// sliceThreshold: merges wider than one run's worth of pairs per
	// core get sliced so the tree's upper levels stay parallel.
	cores := ctx.Cores()
	schedule := func(a, b *kpa.KPA) {
		pending++
		total := a.Len() + b.Len()
		if cores <= 1 || total < 4*cores {
			d := ctx.GroupDemand(kpa.MergeDemand(a, b), ResultSchema)
			var m *kpa.KPA
			ctx.SpawnCont(name+":merge", engine.Urgent, d, func() []engine.Emission {
				var err error
				m, err = kpa.MergeK([]*kpa.KPA{a, b}, ctx.AllocTagged(engine.Urgent))
				if err != nil {
					ctx.Errorf("merge: %v", err)
				}
				a.Destroy()
				b.Destroy()
				return nil
			}, func() {
				if m != nil {
					next = append(next, m)
				}
				finish()
			})
			return
		}
		// Sliced parallel merge.
		out, err := kpa.NewMergeTarget(a, b, ctx.AllocTagged(engine.Urgent))
		if err != nil {
			ctx.Errorf("merge target: %v", err)
			a.Destroy()
			b.Destroy()
			finish()
			return
		}
		slices, err := kpa.MergeSlices(a, b, cores)
		if err != nil {
			ctx.Errorf("merge slices: %v", err)
			out.Destroy()
			a.Destroy()
			b.Destroy()
			finish()
			return
		}
		remaining := len(slices)
		for _, sl := range slices {
			sl := sl
			d := ctx.GroupDemand(memsim.MergeDemand(out.Tier(), sl.Len()), ResultSchema)
			ctx.SpawnCont(name+":merge-slice", engine.Urgent, d, func() []engine.Emission {
				kpa.MergeSegment(out, a, b, sl)
				return nil
			}, func() {
				remaining--
				if remaining == 0 {
					a.Destroy()
					b.Destroy()
					next = append(next, out)
					finish()
				}
			})
		}
	}
	for i := 0; i+1 < len(runs); i += 2 {
		schedule(runs[i], runs[i+1])
	}
}

// parallelReduce range-partitions a sorted, merged KPA at key
// boundaries (kpa.MergeCuts over the one run: the end of the key group
// holding rank i·n/p) and runs one keyed-reduction task per range
// (kpa.MergeReduceRange), emitting one result bundle per range. The
// merged KPA is destroyed when all ranges finish.
func parallelReduce(ctx *engine.Ctx, name string, merged *kpa.KPA, valCol int, factory kpa.AggFactory, winStart wm.Time, costFactor float64) {
	if costFactor <= 0 {
		costFactor = 1
	}
	runs := []*kpa.KPA{merged}
	cuts, err := kpa.MergeCuts(runs, ctx.Cores())
	if err != nil {
		ctx.Errorf("reduce cuts: %v", err)
		merged.Destroy()
		return
	}
	remaining := len(cuts) - 1
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		d := ctx.GroupDemand(memsim.ReduceKeyedDemand(merged.Tier(), int(float64(hi[0]-lo[0])*costFactor)), ResultSchema)
		ctx.SpawnCont(name+":reduce", engine.Urgent, d, func() []engine.Emission {
			type kv struct{ k, v uint64 }
			var rows []kv
			err := kpa.MergeReduceRange(runs, lo, hi, valCol, factory, func(key, res uint64) {
				rows = append(rows, kv{key, res})
			})
			if err != nil {
				ctx.Errorf("reduce: %v", err)
				return nil
			}
			if len(rows) == 0 {
				return nil
			}
			bd, err := ctx.NewBuilder(ResultSchema, len(rows))
			if err != nil {
				ctx.Errorf("result bundle: %v", err)
				return nil
			}
			for _, r := range rows {
				bd.Append(r.k, r.v, winStart)
			}
			return []engine.Emission{{Port: 0, In: engine.Input{B: bd.Seal(), WinStart: winStart, HasWin: true}}}
		}, func() {
			remaining--
			if remaining == 0 {
				merged.Destroy()
			}
		})
	}
}
