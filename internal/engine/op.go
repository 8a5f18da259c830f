package engine

import (
	"fmt"

	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
	"streambox/internal/wm"
)

// Input is one unit of data flowing between operators: either a record
// bundle or a KPA, optionally annotated with the window it belongs to
// (set once the data passed a Windowing operator).
type Input struct {
	B        *bundle.Bundle
	K        *kpa.KPA
	WinStart wm.Time
	HasWin   bool
	// PaneShare, when > 1, marks a sliding-window KPA whose grouping
	// state is pane-shared across that many overlapping windows:
	// downstream operators charge a 1/PaneShare slice of their usual
	// key-swap/sort demand, mirroring the native backend's refcounted
	// shared pane runs. 0 or 1 means exclusive.
	PaneShare int
}

// Rows returns the record/pair count of the input.
func (in Input) Rows() int {
	if in.K != nil {
		return in.K.Len()
	}
	if in.B != nil {
		return in.B.Rows()
	}
	return 0
}

// MaxTs returns a representative event time for tagging: the window
// start when windowed, otherwise the data's maximum timestamp.
func (in Input) MaxTs() wm.Time {
	if in.HasWin {
		return in.WinStart
	}
	if in.B != nil {
		if _, maxTs, ok := in.B.MinMaxTs(); ok {
			return maxTs
		}
	}
	return 0
}

// Release drops the input's ownership reference: destroying a KPA or
// releasing a bundle reference. Operators that do not forward an input
// downstream must release it.
func (in Input) Release() {
	if in.K != nil {
		in.K.Destroy()
	} else if in.B != nil {
		in.B.Release()
	}
}

// Emission routes data to a downstream port after a task completes.
type Emission struct {
	Port int
	In   Input
}

// Operator is one pipeline stage. Implementations live in internal/ops.
// OnInput and OnWatermark run inside the simulator loop; long work must
// be pushed into tasks via Ctx.Spawn so that it costs virtual time.
type Operator interface {
	// Name identifies the operator in stats and errors.
	Name() string
	// InPorts returns the number of input ports (1 for most operators,
	// 2 for joins).
	InPorts() int
	// OnInput handles one bundle or KPA arriving on port.
	OnInput(ctx *Ctx, port int, in Input)
	// OnWatermark handles the event-time watermark advancing on port.
	// The engine forwards the merged watermark downstream automatically
	// once all tasks spawned here have drained.
	OnWatermark(ctx *Ctx, port int, watermark wm.Time)
}

// Ctx is the per-operator handle into the engine, passed to every
// Operator callback.
type Ctx struct {
	e    *Engine
	node *Node
}

// Engine returns the owning engine.
func (c *Ctx) Engine() *Engine { return c.e }

// Now returns the current virtual time in seconds.
func (c *Ctx) Now() float64 { return c.e.Sim.Now() }

// Windowing returns the pipeline's window configuration.
func (c *Ctx) Windowing() wm.Windowing { return c.e.Win }

// Tag classifies work on data with representative event time ts.
func (c *Ctx) Tag(ts wm.Time) Tag { return tagFor(c.e.Win, c.e.targetWM, ts) }

// Spawn schedules one task: demand costs virtual time; body runs the
// real computation and returns the emissions delivered downstream when
// the task completes. ts is the representative event time used for the
// performance-impact tag.
func (c *Ctx) Spawn(name string, ts wm.Time, demand memsim.Demand, body func() []Emission) {
	c.e.spawn(c.node, name, c.Tag(ts), demand, body, nil)
}

// SpawnTagged schedules a task with an explicit tag.
func (c *Ctx) SpawnTagged(name string, tag Tag, demand memsim.Demand, body func() []Emission) {
	c.e.spawn(c.node, name, tag, demand, body, nil)
}

// SpawnCont schedules a task with a continuation that fires at the
// task's virtual completion time — the building block for dependent
// task trees (e.g. pairwise merges of a closing window).
func (c *Ctx) SpawnCont(name string, tag Tag, demand memsim.Demand, body func() []Emission, onComplete func()) {
	c.e.spawn(c.node, name, tag, demand, body, onComplete)
}

// Emit delivers data downstream immediately (without a task). Use Spawn
// for anything with nontrivial cost.
func (c *Ctx) Emit(port int, in Input) {
	c.e.deliver(c.node, port, in)
}

// AllocTagged returns an allocator with an explicit tag.
func (c *Ctx) AllocTagged(tag Tag) kpa.Allocator {
	return &placementAllocator{e: c.e, tag: tag}
}

// PlanPlacement decides, at task-creation time, where the task's KPAs
// will live (paper §5: "When StreamBox-HBM creates a grouping task, it
// allocates or reuses a KPA"). The returned tier lets the caller build
// the task's demand profile; the returned allocator realizes the
// decision in the task body, spilling to DRAM only under exhaustion.
func (c *Ctx) PlanPlacement(ts wm.Time) (memsim.Tier, kpa.Allocator) {
	return c.e.planPlacement(c.Tag(ts))
}

// NewBuilder starts a DRAM record bundle charged against the pool.
func (c *Ctx) NewBuilder(schema bundle.Schema, capacity int) (*bundle.Builder, error) {
	return c.e.NewBundleBuilder(schema, capacity)
}

// Cores returns the machine's core count — the parallelism target for
// sliced merges and range-parallel reductions.
func (c *Ctx) Cores() int { return c.e.cfg.Machine.Cores }

// Errorf records an operator error; the engine surfaces the first one.
func (c *Ctx) Errorf(format string, args ...interface{}) {
	c.e.recordError(fmt.Errorf("%s: "+format, append([]interface{}{c.node.op.Name()}, args...)...))
}
