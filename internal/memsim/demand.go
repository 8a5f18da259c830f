package memsim

import "fmt"

// Phase is one stage of a task's resource demand. A task executes its
// phases in order: a CPU phase spins one virtual core; a memory phase
// streams or randomly touches bytes on one tier, sharing that tier's
// bandwidth with every other concurrently active memory phase.
type Phase struct {
	// CPUOps is the scalar-equivalent operation count for a pure CPU
	// phase. Exactly one of CPUOps and Bytes should be nonzero.
	CPUOps int64
	// Vector marks the CPU phase as vectorizable (AVX-512 in the paper).
	Vector bool

	// Bytes is the memory traffic of a memory phase.
	Bytes int64
	// Tier is the tier the memory phase touches.
	Tier Tier
	// Pattern is Sequential or Random.
	Pattern Pattern
	// MLP is the memory-level parallelism of a Random phase: the number
	// of independent outstanding misses one core sustains. Ignored for
	// Sequential. Zero means 1 (a fully dependent pointer chase).
	MLP int
}

func (p Phase) isCPU() bool { return p.CPUOps > 0 }

// String renders the phase for debugging.
func (p Phase) String() string {
	if p.isCPU() {
		kind := "cpu"
		if p.Vector {
			kind = "vec"
		}
		return fmt.Sprintf("%s(%d ops)", kind, p.CPUOps)
	}
	return fmt.Sprintf("mem(%d B %v %v mlp=%d)", p.Bytes, p.Tier, p.Pattern, p.MLP)
}

// Demand is an ordered list of phases.
type Demand struct {
	Phases []Phase
}

// CPU appends a scalar compute phase of n operations.
func (d Demand) CPU(ops int64) Demand {
	if ops > 0 {
		d.Phases = append(d.Phases, Phase{CPUOps: ops})
	}
	return d
}

// Vec appends a vectorized compute phase of n operations.
func (d Demand) Vec(ops int64) Demand {
	if ops > 0 {
		d.Phases = append(d.Phases, Phase{CPUOps: ops, Vector: true})
	}
	return d
}

// Seq appends a sequential memory phase.
func (d Demand) Seq(t Tier, bytes int64) Demand {
	if bytes > 0 {
		d.Phases = append(d.Phases, Phase{Bytes: bytes, Tier: t, Pattern: Sequential})
	}
	return d
}

// Rand appends a random memory phase with the given MLP.
func (d Demand) Rand(t Tier, bytes int64, mlp int) Demand {
	if bytes > 0 {
		if mlp < 1 {
			mlp = 1
		}
		d.Phases = append(d.Phases, Phase{Bytes: bytes, Tier: t, Pattern: Random, MLP: mlp})
	}
	return d
}

// TotalBytes reports the memory traffic of the demand per tier.
func (d Demand) TotalBytes() [numTiers]int64 {
	var out [numTiers]int64
	for _, p := range d.Phases {
		if !p.isCPU() {
			out[p.Tier] += p.Bytes
		}
	}
	return out
}

// TotalCPUOps reports the compute work of the demand.
func (d Demand) TotalCPUOps() int64 {
	var ops int64
	for _, p := range d.Phases {
		if p.isCPU() {
			ops += p.CPUOps
		}
	}
	return ops
}

// Empty reports whether the demand has no phases.
func (d Demand) Empty() bool { return len(d.Phases) == 0 }

// --- Demand models for the engine's kernels. -------------------------------
//
// These encode, per primitive, how many bytes move and how much compute
// runs per element. They are deliberately simple; the calibration targets
// are the curve shapes of the paper's Figures 2 and 7-10.

const (
	// PairBytes is the size of one KPA element: 64-bit key + 64-bit ptr.
	PairBytes = 16

	// sortCyclesPerPair is compute per pair per pass of the merge sort
	// (vector ops; stands in for the AVX-512 bitonic kernel plus the
	// engine's per-element bookkeeping).
	sortCyclesPerPair = 20.0
	// hashCyclesPerRec is compute per record for hash insert/probe.
	hashCyclesPerRec = 250.0
	// hashBytesRandom is random traffic per hashed record: bucket
	// cachelines touched on insert and probe, including collision
	// chains at realistic load factors.
	hashBytesRandom = 256
	// hashBytesSeq is the sequential partition-copy traffic per record
	// (read input, write partition) that precedes table insertion.
	hashBytesSeq = 96
	// hashMLP reflects limited overlap of dependent probes.
	hashMLP = 2

	// Per-element engine overheads (scalar cycles per record) for the
	// maintenance and reduction primitives: record handling, bounds
	// checks, task bookkeeping. These dominate real stream engines'
	// per-record budgets and set the compute-bound throughput plateaus
	// of Figures 7-9.
	extractCycles     = 300
	keySwapCycles     = 250
	materializeCycles = 300
	reduceCycles      = 450
	partitionCycles   = 250
	selectCycles      = 200
)

// PartitionCycles and SelectCycles expose the per-element scan costs
// for demand builders outside this package.
const (
	PartitionCycles = partitionCycles
	SelectCycles    = selectCycles
)

// sortEffectivePasses is the effective number of full-data passes a
// chunked merge sort makes. The true count is log2(n/block); over the
// KPA sizes the engine sorts (10^5..10^7 pairs) it ranges 5..12, and a
// fixed effective value keeps demands invariant under specimen scaling
// (which shrinks the real n while representing the same virtual KPA).
const sortEffectivePasses = 8

// sortBytesPerPairPerPass is the traffic one pass moves per pair:
// read + write + scratch-buffer traffic.
const sortBytesPerPairPerPass = 6 * 2 * PairBytes

// SortDemand models sorting n pairs resident on tier t: every pass
// streams the pairs (read+write+scratch) and runs the compare/exchange
// kernel.
func SortDemand(t Tier, n int) Demand {
	if n <= 0 {
		return Demand{}
	}
	bytes := int64(n) * sortBytesPerPairPerPass * sortEffectivePasses
	ops := int64(float64(n) * sortCyclesPerPair * sortEffectivePasses)
	return Demand{}.Vec(ops).Seq(t, bytes)
}

// Radix run formation (algo.RadixSortPairs): LSD over the 64-bit key
// with 8-bit digits. Each pass streams the pairs once (read + scatter
// write; the 256 scatter streams stay effectively sequential on HBM,
// the observation driving radix partitioning in the HBM-analytics
// literature) plus amortized histogram traffic, and the scatter/gather
// kernel vectorizes (AVX-512 scatter on KNL). Unlike merge sort's
// log2(n/block) passes, the pass count is fixed, which is what makes
// run formation bandwidth-proportional.
const (
	radixEffectivePasses = 8
	// Per pass and pair: stream read (16 B) + scatter write, which on a
	// write-allocate cache costs allocate + writeback (32 B), + the
	// histogram pre-pass share (16 B).
	radixBytesPerPairPerPass = 64
	radixCyclesPerPair       = 6.0
)

// RadixSortDemand models first-level run formation over n pairs on
// tier t with the LSD radix kernel: a fixed number of streaming
// scatter passes instead of merge sort's data-dependent pass count. It
// prices the paper's kernel — eight passes whatever the keys — because
// the simulator's figures are the paper's; the native kernel
// (algo.RadixSortPairs) adapts to its keys and scatters a run of hashed
// keys twice, so this demand is an upper bound on what the native
// runtime executes, not a model of it (ROADMAP item 11).
func RadixSortDemand(t Tier, n int) Demand {
	if n <= 0 {
		return Demand{}
	}
	bytes := int64(n) * radixBytesPerPairPerPass * radixEffectivePasses
	ops := int64(float64(n) * radixCyclesPerPair * radixEffectivePasses)
	return Demand{}.Vec(ops).Seq(t, bytes)
}

// PaneDemand models the per-window share of pane-based sliding
// aggregation with the radix run-formation kernel: each record is
// scattered into exactly one non-overlapping pane and the pane run is
// radix-sorted once, then *shared* (by reference) across the `share`
// overlapping windows covering the pane. One window is therefore
// charged 1/share of a single scatter+sort over its n pairs, so the
// total across all windows equals one extraction and one sort — where
// the direct (unshared) path pays RadixSortDemand per window, i.e.
// share× the staging, sort and state traffic. Compare only against
// RadixSortDemand (experiments.FigPanes does): the engine's operator
// path instead scales its own SortDemand model by 1/share, so sharing
// is never conflated with a kernel change.
func PaneDemand(t Tier, n, share int) Demand {
	if share < 1 {
		share = 1
	}
	return RadixSortDemand(t, (n+share-1)/share)
}

// MergeDemand models merging two sorted runs totalling n pairs on tier t:
// one streaming pass reading both inputs and writing the output.
func MergeDemand(t Tier, n int) Demand {
	if n <= 0 {
		return Demand{}
	}
	bytes := int64(n) * PairBytes * 2
	ops := int64(float64(n) * sortCyclesPerPair)
	return Demand{}.Vec(ops).Seq(t, bytes)
}

// Fused window close (kpa.MergeReduceRange): the range-partitioned
// k-way merge folds keyed reduction into the loser-tree visitor, so
// closing a window costs one streaming read of the runs from the KPA
// tier plus the random value-column gather from DRAM — no intermediate
// KPA is written and no separate reduce pass re-streams the data. The
// pairwise baseline instead pays ceil(log2(k)) MergeDemand passes (each
// materializing a full copy) followed by ReduceKeyedDemand.
const (
	// mergeReduceCycles is the scalar per-pair cost of the fused
	// visitor: the pointer dereference through the per-run bundle cache
	// and the aggregator fold. It sits below reduceCycles because the
	// fused pass hoists the per-record bounds checks, task setup and
	// output staging that the separate reduce sweep pays per element.
	mergeReduceCycles = 250
	// loserTreeCyclesPerPairPerLevel is the vector-equivalent replay
	// cost of one loser-tree level: one comparison plus a node store,
	// touching tree nodes rather than run data.
	loserTreeCyclesPerPairPerLevel = 4.0
)

// MergeReduceDemand models the fused merge-reduce over n pairs spread
// across fanIn sorted runs on tier t: one sequential read of the pairs,
// ceil(log2(fanIn)) loser-tree levels of compute per pair, the fold,
// and the value gather from DRAM.
func MergeReduceDemand(t Tier, n, fanIn int) Demand {
	if n <= 0 {
		return Demand{}
	}
	levels := 0
	for 1<<levels < fanIn {
		levels++
	}
	return Demand{}.
		CPU(int64(n)*mergeReduceCycles).
		Vec(int64(float64(n)*loserTreeCyclesPerPairPerLevel*float64(levels))).
		Seq(t, int64(n)*PairBytes).
		Rand(DRAM, int64(n)*8, 4)
}

// JoinDemand models the single-pass scan joining two sorted KPAs with a
// total of n pairs, emitting m output records of recBytes each to DRAM.
func JoinDemand(t Tier, n, m int, recBytes int64) Demand {
	d := Demand{}.Vec(int64(float64(n)*sortCyclesPerPair)).
		Seq(t, int64(n)*PairBytes)
	if m > 0 {
		d = d.Seq(DRAM, int64(m)*recBytes)
	}
	return d
}

// HashGroupDemand models the DRAM-era baseline: partition n records
// sequentially then insert into an open-addressing table with random
// probes, all on tier t.
func HashGroupDemand(t Tier, n int) Demand {
	return Demand{}.
		CPU(int64(float64(n)*hashCyclesPerRec)).
		Seq(t, int64(n)*hashBytesSeq).
		Rand(t, int64(n)*hashBytesRandom, hashMLP)
}

// ExtractDemand models building a KPA from a record bundle: stream the
// key column from the bundle's tier and write pairs to the KPA's tier.
func ExtractDemand(from, to Tier, n int, colBytes int64) Demand {
	return Demand{}.
		CPU(int64(n)*extractCycles).
		Seq(from, int64(n)*colBytes).
		Seq(to, int64(n)*PairBytes)
}

// MaterializeDemand models emitting full records through KPA pointers:
// stream the KPA, randomly load records, stream the output bundle.
func MaterializeDemand(kpaTier Tier, n int, recBytes int64) Demand {
	return Demand{}.
		CPU(int64(n)*materializeCycles).
		Seq(kpaTier, int64(n)*PairBytes).
		Rand(DRAM, int64(n)*recBytes, 4).
		Seq(DRAM, int64(n)*recBytes)
}

// KeySwapDemand models replacing resident keys with another column:
// stream the KPA, randomly gather the nonresident column from DRAM.
func KeySwapDemand(kpaTier Tier, n int) Demand {
	return Demand{}.
		CPU(int64(n)*keySwapCycles).
		Seq(kpaTier, int64(n)*PairBytes).
		Rand(DRAM, int64(n)*8, 4)
}

// ScanDemand models a simple sequential pass over bytes on tier t with
// opsPerByte compute.
func ScanDemand(t Tier, bytes int64, ops int64) Demand {
	return Demand{}.CPU(ops).Seq(t, bytes)
}

// ReduceKeyedDemand models per-key aggregation over a sorted KPA of n
// pairs: stream the KPA, gather value columns randomly from DRAM.
func ReduceKeyedDemand(kpaTier Tier, n int) Demand {
	return Demand{}.
		CPU(int64(n)*reduceCycles).
		Seq(kpaTier, int64(n)*PairBytes).
		Rand(DRAM, int64(n)*8, 4)
}
