// Package memsim models a hybrid high-bandwidth-memory machine.
//
// The paper evaluates on an Intel Knights Landing whose HBM and DRAM tiers
// differ in capacity, bandwidth and latency. Go cannot place data in
// physical tiers, so memsim substitutes a discrete-event simulator: engine
// tasks run their real computation, but time is virtual and advances under
// a processor-sharing bandwidth model. All calibration constants live in
// this file so the hardware substitution is auditable in one place.
package memsim

import "fmt"

// Tier identifies one memory tier of the hybrid machine.
type Tier int

const (
	// HBM is the 3D-stacked high-bandwidth tier: small capacity, very
	// high sequential bandwidth, slightly worse latency than DRAM.
	HBM Tier = iota
	// DRAM is the commodity DDR4 tier: large capacity, limited bandwidth.
	DRAM
	// Spill is the cold tier: an mmap'd file holding the window runs
	// born there while the memory tiers are full. It is not memory the machine model schedules traffic
	// on — capacity comes from the attached spill file, not TierParams —
	// but it indexes the same per-tier arrays (pool accounting, window
	// state, metrics) so the degradation ladder HBM → DRAM → Spill reads
	// uniformly everywhere.
	Spill
	numTiers
)

// NumTiers is the number of memory tiers, exported for per-tier arrays
// outside this package (mempool accounting, runtime window-state
// gauges, metrics exposition).
const NumTiers = int(numTiers)

// MemTiers is the number of real memory tiers (HBM, DRAM) — the tiers
// the bandwidth model schedules and admission control watches. Spill is
// excluded: a full spill file degrades service but must not shed it.
const MemTiers = int(Spill)

// String returns the conventional tier name.
func (t Tier) String() string {
	switch t {
	case HBM:
		return "HBM"
	case DRAM:
		return "DRAM"
	case Spill:
		return "Spill"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Pattern classifies how a demand touches memory. Sequential streams
// enjoy per-core streaming bandwidth; random accesses are latency-bound
// and capped by cacheline-size transfers times memory-level parallelism.
type Pattern int

const (
	// Sequential is a streaming scan (sort, merge, extract, scan).
	Sequential Pattern = iota
	// Random is pointer-chasing or hashed access (probe, dereference).
	Random
)

func (p Pattern) String() string {
	if p == Sequential {
		return "seq"
	}
	return "rand"
}

// TierParams describes one tier of a machine.
type TierParams struct {
	Capacity   int64   // bytes
	Bandwidth  float64 // bytes/second, aggregate sequential ceiling
	RandomBW   float64 // bytes/second, aggregate ceiling for random traffic
	LatencyNS  float64 // load-to-use latency in nanoseconds
	PerCoreSeq float64 // bytes/second one core can stream
}

// Config describes a whole machine: cores, tiers and NICs.
type Config struct {
	Name      string
	Cores     int
	ClockHz   float64 // per-core frequency
	IPC       float64 // sustained scalar instructions per cycle
	VectorIPC float64 // sustained ops/cycle for vectorized kernels
	CacheLine int64   // bytes per random-access transfer

	Tiers [numTiers]TierParams

	// RDMABW and EthBW are ingress NIC bandwidths in bytes/second.
	RDMABW float64
	EthBW  float64
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gib = int64(1) << 30
)

// KNLConfig returns the paper's Table 3 Knights Landing machine:
// 64 cores @ 1.3 GHz, 16 GB HBM (375 GB/s, 172 ns), 96 GB DDR4
// (80 GB/s, 143 ns), 40 Gb/s Infiniband and 10 GbE NICs.
func KNLConfig() Config {
	return Config{
		Name:      "KNL",
		Cores:     64,
		ClockHz:   1.3e9,
		IPC:       1.0,
		VectorIPC: 4.0,
		CacheLine: 64,
		Tiers: [numTiers]TierParams{
			HBM: {
				Capacity:   16 * gib,
				Bandwidth:  375e9,
				RandomBW:   110e9,
				LatencyNS:  172,
				PerCoreSeq: 6.0e9,
			},
			DRAM: {
				Capacity:   96 * gib,
				Bandwidth:  80e9,
				RandomBW:   65e9,
				LatencyNS:  143,
				PerCoreSeq: 6.0e9,
			},
			Spill: spillTierParams(),
		},
		RDMABW: 5.0e9,  // 40 Gb/s
		EthBW:  1.25e9, // 10 Gb/s
	}
}

// X56Config returns the paper's Table 3 Xeon E7-4830v4 comparison box:
// 56 cores @ 2.0 GHz, 256 GB DDR4 (87 GB/s, 131 ns), no HBM. The HBM
// tier is configured with zero capacity so allocations must use DRAM.
func X56Config() Config {
	return Config{
		Name:      "X56",
		Cores:     56,
		ClockHz:   2.0e9,
		IPC:       2.0,
		VectorIPC: 4.0,
		CacheLine: 64,
		Tiers: [numTiers]TierParams{
			HBM: {
				Capacity:   0,
				Bandwidth:  1, // never used; avoid division by zero
				RandomBW:   1,
				LatencyNS:  131,
				PerCoreSeq: 1,
			},
			DRAM: {
				Capacity:   256 * gib,
				Bandwidth:  87e9,
				RandomBW:   70e9,
				LatencyNS:  131,
				PerCoreSeq: 12.0e9,
			},
			Spill: spillTierParams(),
		},
		RDMABW: 0,
		EthBW:  1.4e9, // "slightly faster" X540 per Fig 7 caption
	}
}

// spillTierParams models the cold spill tier as an NVMe-class device:
// sequential-friendly, latency three orders of magnitude above memory.
// Capacity is zero because the real limit is the attached spill file,
// not the machine model; the bandwidth figures exist so demand
// accounting against the tier stays well defined.
func spillTierParams() TierParams {
	return TierParams{
		Capacity:   0,
		Bandwidth:  2.4e9,
		RandomBW:   0.6e9,
		LatencyNS:  90_000,
		PerCoreSeq: 2.4e9,
	}
}

// WithCores returns a copy of the config restricted to n cores.
func (c Config) WithCores(n int) Config {
	c.Cores = n
	return c
}

// Tier returns the parameters of tier t.
func (c Config) Tier(t Tier) TierParams { return c.Tiers[t] }

// PerCoreRandomBW returns the bandwidth one core can extract from tier t
// with random accesses at the given memory-level parallelism: one
// cacheline per latency, times mlp outstanding requests.
func (c Config) PerCoreRandomBW(t Tier, mlp int) float64 {
	if mlp < 1 {
		mlp = 1
	}
	lat := c.Tiers[t].LatencyNS * 1e-9
	return float64(c.CacheLine) * float64(mlp) / lat
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("memsim: config %q: cores must be positive, got %d", c.Name, c.Cores)
	}
	if c.ClockHz <= 0 {
		return fmt.Errorf("memsim: config %q: clock must be positive", c.Name)
	}
	if c.CacheLine <= 0 {
		return fmt.Errorf("memsim: config %q: cache line must be positive", c.Name)
	}
	for t := Tier(0); t < numTiers; t++ {
		p := c.Tiers[t]
		if p.Capacity < 0 {
			return fmt.Errorf("memsim: config %q: %v capacity negative", c.Name, t)
		}
		if t == Spill {
			// The spill tier is file-backed: its capacity comes from the
			// attached spill file and no simulated traffic is scheduled on
			// it, so zero-value params (configs written before the tier
			// existed, test machines) stay valid.
			continue
		}
		if p.Bandwidth <= 0 || p.RandomBW <= 0 || p.PerCoreSeq <= 0 {
			return fmt.Errorf("memsim: config %q: %v bandwidth must be positive", c.Name, t)
		}
		if p.LatencyNS <= 0 {
			return fmt.Errorf("memsim: config %q: %v latency must be positive", c.Name, t)
		}
	}
	return nil
}
