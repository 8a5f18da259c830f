package engine

import "math/rand"

// Knob is the demand-balance knob (paper §5): a vector {k_low, k_high}
// of probabilities for allocating new KPAs on HBM for Low- and High-
// tagged tasks. Urgent tasks always allocate from the reserved HBM
// pool. The knob moves in increments of Delta as the monitor observes
// HBM capacity and DRAM bandwidth pressure.
//
// The knob is the simulator's: the monitor (Update) and every task that
// plans a KPA placement (WantHBM) run on the single event-loop
// goroutine, so nothing here synchronizes. The native runtime places by
// occupancy alone (runtime.placement) — its two memory tiers are the
// same DIMMs, and there is no bandwidth to trade.
type Knob struct {
	KLow  float64
	KHigh float64

	rng *rand.Rand
}

const (
	// knobDelta is the per-sample adjustment step (paper: 0.05).
	knobDelta = 0.05
	// hbmHighWater marks high demand for HBM capacity.
	hbmHighWater = 0.80
	// hbmLowWater marks spare HBM capacity.
	hbmLowWater = 0.55
	// dramBWHighWater marks high demand for DRAM bandwidth.
	dramBWHighWater = 0.75
	// delayHeadroomFrac: k_high only drops while output delay retains
	// this much headroom below the target (paper: 10%).
	delayHeadroomFrac = 0.10
)

// NewKnob returns the knob at its initial state k_low = k_high = 1.
func NewKnob(seed int64) *Knob {
	return &Knob{KLow: 1, KHigh: 1, rng: rand.New(rand.NewSource(seed))}
}

// WantHBM draws the placement decision for a new KPA with the given tag.
func (k *Knob) WantHBM(tag Tag) bool {
	if tag == Urgent {
		return true
	}
	if tag == High {
		return k.rng.Float64() < k.KHigh
	}
	return k.rng.Float64() < k.KLow
}

// Update moves the knob one step given the monitored HBM capacity
// utilization, DRAM bandwidth utilization (both in [0,1]) and whether
// the pipeline's output delay still has headroom below its target.
//
// The rule implements Figure 6: when HBM capacity demand outweighs DRAM
// bandwidth demand (zone 2), shift new KPAs toward DRAM; in the opposite
// imbalance (zone 3), shift them back toward HBM. k_low moves first;
// k_high follows only at k_low's extremes, and only downward while the
// output delay has headroom.
func (k *Knob) Update(hbmCap, dramBW float64, delayHeadroom bool) {
	switch {
	case hbmCap >= hbmHighWater && hbmCap >= dramBW:
		// Zone 2: HBM capacity is the pressed resource.
		if k.KLow > 0 {
			k.KLow = clamp01(k.KLow - knobDelta)
		} else if delayHeadroom {
			k.KHigh = clamp01(k.KHigh - knobDelta)
		}
	case hbmCap <= hbmLowWater && dramBW >= dramBWHighWater:
		// Zone 3: DRAM bandwidth is the pressed resource; spare HBM.
		if k.KHigh < 1 {
			k.KHigh = clamp01(k.KHigh + knobDelta)
		} else {
			k.KLow = clamp01(k.KLow + knobDelta)
		}
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
