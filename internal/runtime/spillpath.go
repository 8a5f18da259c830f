package runtime

// spillpath.go is the cold rung of the degradation ladder, which runs
// only with a spill tier attached (Config.SpillCapacity > 0): the latch
// that decides when sealed window state leaves for the mmap'd arena, the
// monitor that ticks it, and the sweep that walks the coldest runs out.
// Nothing brings a run back: an evicted run stays in its extent until
// its last reference drops, and every seal and close merges it through
// the mmap view, where it lies — bit-identical to the run that never
// spilled, and without re-taking pool memory at the moment the pool is
// short.
//
// Concurrency protocol: every eviction happens inside the window
// table's sweepEvictable — under its lock — and only touches runs of
// quiescent panes — no covering window sealed — so no merge task can
// be reading the pairs it relocates. A close reads runs it gathered
// under the same lock, which orders the read after any eviction of
// them; a seal reads runs that left the table under that lock — when
// their group's last member landed, or at a window's claim — where the
// sweep cannot reach them. Runs evicted between a group's filings merge
// beside the ones that stayed — every run is value-resident from birth,
// so a seal never meets two kinds of pair. The run a seal lands is
// ordinary window state — swept and evicted like a raw run, its partial
// flag on the KPA.

import (
	"sync"
	"time"

	"streambox/internal/kpa"
	"streambox/internal/memsim"
)

const (
	// evictHigh/evictLow bound the eviction hysteresis over the worst
	// memory-tier utilization: eviction engages above the high water
	// mark and keeps going until occupancy drops below the low water
	// mark. Both sit well under the backpressure (0.95) and shed (0.98)
	// thresholds, so state leaves for the spill tier before ingest ever
	// stalls or connections shed.
	evictHigh = 0.85
	evictLow  = 0.70
	// maxEvictRunsPerSweep bounds how many runs one sweep relocates while
	// holding the window lock; the monitor simply resumes on its next
	// tick if pressure persists.
	maxEvictRunsPerSweep = 128
)

// evictLatch is the eviction hysteresis: on while sealed state should be
// leaving for the spill tier.
type evictLatch bool

// step moves the latch on one reading of the pool's pressure and reports
// whether it flipped.
func (l *evictLatch) step(pressure float64) (flipped bool) {
	was := *l
	if was {
		*l = pressure > evictLow
	} else {
		*l = pressure > evictHigh
	}
	return *l != was
}

// startMonitor ticks the eviction latch on Config.MonitorInterval and,
// while it is on, walks cold sealed state out to the spill tier. It
// returns a stop function.
func (x *exec) startMonitor() func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(x.cfg.MonitorInterval)
		defer ticker.Stop()
		var evicting evictLatch
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if evicting.step(x.pool.Pressure()) {
					x.m.ctrlDecisions.Add(1)
				}
				if evicting {
					x.m.ctrlEvictTicks.Add(1)
					x.evictColdest(x.evictTarget())
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

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
		if r.Len() == 0 || r.Spilled() {
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
			x.m.spillState(from, n)
			x.m.evictions.Add(1)
			x.m.evictedBytes.Add(n)
			freed += n
			evicted++
		}
		return freed < target && evicted < maxEvictRunsPerSweep
	})
	return freed
}
