package runtime

// spillpath.go is the degradation ladder's muscle: the eviction sweep
// that walks the coldest sealed runs out to the mmap'd spill tier, the
// close-path load that brings them back (or falls back to merging
// straight over the mmap view when the pool cannot host the load), and
// the gauge plumbing that keeps the per-tier window-state accounting
// truthful as runs move. Decision logic lives in controller.go.
//
// Concurrency protocol: every eviction happens inside the window
// table's sweepEvictable — under its lock — and only touches runs of
// quiescent panes — no covering window sealed — so no merge task can
// be reading the pairs it relocates. Loads happen on the close path,
// after the closing window's runs were gathered under the same lock,
// which orders them after any prior eviction of those runs; two
// closes sharing a spilled pane run both call EnsureResident, whose
// per-KPA lock makes the load happen exactly once and publishes the
// loaded pairs to the second caller. A seal reads runs that left the
// table under that lock — when their group's last member landed, or at
// a window's claim — where the sweep cannot reach them, and passes them
// through EnsureResident first like any close; runs evicted between a
// group's filings come back as they left — every run is value-resident
// from birth, so a seal never meets two kinds of pair. The run a seal
// lands is ordinary window state — swept, evicted and loaded like a raw
// run, its partial flag on the KPA.

import (
	"time"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/memsim"
)

// maxEvictRunsPerSweep bounds how many runs one sweep relocates while
// holding the window lock; the controller simply resumes on its next
// tick if pressure persists.
const maxEvictRunsPerSweep = 128

// evictTarget returns the bytes to free to bring every memory tier
// back under the eviction low-water mark.
func (x *exec) evictTarget() int64 {
	var target int64
	for t := memsim.Tier(0); t < memsim.Tier(memsim.MemTiers); t++ {
		capT := x.pool.Capacity(t)
		if capT <= 0 {
			continue
		}
		if used := x.pool.Used(t); used > int64(evictLow*float64(capT)) {
			target += used - int64(evictLow*float64(capT))
		}
	}
	return target
}

// evictColdest relocates the runs of quiescent panes to the spill
// tier, coldest (oldest pane) first, until target bytes have left the
// memory tiers, the per-sweep cap is reached, or the spill file fills.
// It returns the bytes actually freed. Safe to call from the monitor
// goroutine and from the ingest loop's exhaustion path; the window
// table's lock serializes sweeps against each other and against close
// collection.
func (x *exec) evictColdest(target int64) int64 {
	if x.spillFile == nil || target <= 0 {
		return 0
	}
	var freed, evicted int64
	x.table.sweepEvictable(func(r *kpa.KPA) bool {
		if r.Len() == 0 || r.Spilled() || r.Tier() == memsim.Spill {
			// Already out of the memory tiers — either evicted, or
			// allocated straight into the arena by the ladder's last
			// allocation rung.
			return true
		}
		from := r.Tier()
		n, err := r.Evict(x.pool, x.plan.ValCol)
		if err != nil {
			// Spill file full (or an unsealed run slipped in): stop the
			// sweep; backpressure and the exhaustion path take over.
			return false
		}
		if n > 0 {
			x.m.moveState(from, memsim.Spill, n)
			x.m.evictions.Add(1)
			x.m.evictedBytes.Add(n)
			freed += n
			evicted++
		}
		return freed < target && evicted < maxEvictRunsPerSweep
	})
	return freed
}

// loadRuns brings a closing window's spilled runs back into a memory
// tier before the merge. Every run passes through EnsureResident even
// when resident — its per-KPA lock is the publication point for loads
// done by a concurrent close sharing the same pane runs. A load the
// pool cannot host is not an error: the run stays value-resident in
// the mmap'd arena and the fused merge reads it there, bit-identical,
// just slower.
func (x *exec) loadRuns(runs []*kpa.KPA, tag engine.Tag) {
	al := &knobAllocator{x: x, tag: tag, noSpill: true}
	for _, r := range runs {
		t0 := time.Now()
		loaded, err := r.EnsureResident(al)
		switch {
		case loaded:
			x.m.spillLoads.Add(1)
			x.m.spillLoadNanos.Add(time.Since(t0).Nanoseconds())
			x.m.moveState(memsim.Spill, r.Tier(), r.Bytes())
		case err != nil:
			x.m.spillLoadFallbacks.Add(1)
		}
	}
}
