package runtime

// controller.go is the degradation ladder's brain: a feedback
// controller the monitor ticks on MonitorInterval whenever the spill
// tier is attached (Config.SpillCapacity > 0). It replaces the
// paper's fixed-schedule knob updates with a control loop
// over pool occupancy, DRAM bandwidth, scheduler queue depths and
// per-tier window-state bytes, and decides when to walk sealed window
// state out to the mmap'd spill file — so a working set beyond the
// HBM+DRAM budget degrades to slower closes instead of tripping
// ErrExhausted/ErrOverloaded. The eviction policy and the close-path
// load live in spillpath.go; this file is pure decision logic so the
// convergence tests can drive it without a running pipeline.

import "streambox/internal/memsim"

const (
	// evictHigh/evictLow bound the eviction hysteresis over the worst
	// memory-tier utilization: eviction engages above the high water
	// mark and keeps going until occupancy drops below the low water
	// mark. Both sit well under the backpressure (0.95) and shed (0.98)
	// thresholds, so state leaves for the spill tier before ingest ever
	// stalls or connections shed.
	evictHigh = 0.85
	evictLow  = 0.70
	// ctrlSetpoint is the HBM occupancy the knob steers toward: high
	// enough to keep the fast tier earning its capacity, low enough to
	// leave headroom for urgent allocations and merge intermediates.
	ctrlSetpoint = 0.80
	// ctrlGain converts occupancy error into knob movement per tick; at
	// a 10 ms MonitorInterval the knob can traverse its full range in
	// ~50 ms, against the paper schedule's fixed 0.05 steps.
	ctrlGain = 0.4
	// ctrlDeadband suppresses knob jitter near the setpoint.
	ctrlDeadband = 0.02
	// ctrlDRAMBWHigh/ctrlHBMSpare mirror the paper's zone-3 boundary:
	// DRAM bandwidth saturated while HBM has spare capacity pulls
	// placements back toward HBM even inside the deadband.
	ctrlDRAMBWHigh = 0.75
	ctrlHBMSpare   = 0.55
)

// ctrlSignals is one monitor tick's view of the pipeline, assembled by
// startMonitor and consumed by placementController.step.
type ctrlSignals struct {
	// HBMUtil/DRAMUtil are the pool occupancies in [0,1].
	HBMUtil, DRAMUtil float64
	// DRAMBW is measured DRAM traffic over the tick as a fraction of
	// the machine's DRAM bandwidth ceiling.
	DRAMBW float64
	// QueueDepths is the scheduler backlog per priority class and
	// Workers the pool size; together they proxy output-delay headroom.
	QueueDepths [numPriorities]int
	Workers     int
	// StateBytes is the live grouped window state per tier — how much
	// sealed, evictable state exists and where it sits.
	StateBytes [memsim.NumTiers]int64
}

// ctrlAction is one tick's decision: the knob pair to install and
// whether the evictor should run.
type ctrlAction struct {
	KLow, KHigh float64
	Evict       bool
	// changed reports a knob adjustment (for the decision counter).
	changed bool
}

// placementController holds the control-loop state between ticks. It
// is only touched from the monitor goroutine (and from tests); all
// cross-goroutine effects flow through Knob.Set and exec.evictColdest.
type placementController struct {
	kLow, kHigh float64
	// evicting latches between the hysteresis bounds.
	evicting bool
}

// newPlacementController returns the controller at the knob's initial
// state k_low = k_high = 1.
func newPlacementController() *placementController {
	return &placementController{kLow: 1, kHigh: 1}
}

// step advances the control loop one tick. Proportional control steers
// HBM occupancy to the setpoint: over the setpoint new KPAs shift
// toward DRAM (k_low first, k_high only when k_low saturates and the
// close pipeline has queue headroom, mirroring the paper's
// delay-guarded k_high descent); under it they shift back. A saturated
// DRAM bus with spare HBM pulls placements HBM-ward even inside the
// deadband (the paper's zone 3). Eviction latches on when the worst
// memory-tier occupancy passes the high water mark and off below the
// low water mark.
func (c *placementController) step(s ctrlSignals) ctrlAction {
	prevLow, prevHigh := c.kLow, c.kHigh
	err := ctrlSetpoint - s.HBMUtil
	// Close-pipeline headroom: urgent+high backlog under one task per
	// worker means shifting high-priority placements to DRAM will not
	// blow the output delay.
	headroom := s.QueueDepths[0]+s.QueueDepths[1] < s.Workers
	switch {
	case err < -ctrlDeadband:
		// HBM over the setpoint: shed placements to DRAM.
		if c.kLow > 0 {
			c.kLow = clamp01(c.kLow + ctrlGain*err)
		} else if headroom {
			c.kHigh = clamp01(c.kHigh + ctrlGain*err)
		}
	case err > ctrlDeadband:
		// Spare HBM: bring placements back, k_high recovering first so
		// latency-critical state reclaims the fast tier.
		if c.kHigh < 1 {
			c.kHigh = clamp01(c.kHigh + ctrlGain*err)
		} else {
			c.kLow = clamp01(c.kLow + ctrlGain*err)
		}
	case s.DRAMBW >= ctrlDRAMBWHigh && s.HBMUtil <= ctrlHBMSpare:
		// Zone 3: DRAM bandwidth is the pressed resource.
		if c.kHigh < 1 {
			c.kHigh = clamp01(c.kHigh + ctrlGain*ctrlDeadband)
		} else {
			c.kLow = clamp01(c.kLow + ctrlGain*ctrlDeadband)
		}
	}

	worst := s.HBMUtil
	if s.DRAMUtil > worst {
		worst = s.DRAMUtil
	}
	if c.evicting {
		c.evicting = worst > evictLow
	} else {
		c.evicting = worst > evictHigh
	}

	return ctrlAction{
		KLow:    c.kLow,
		KHigh:   c.kHigh,
		Evict:   c.evicting,
		changed: c.kLow != prevLow || c.kHigh != prevHigh,
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
