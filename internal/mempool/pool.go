// Package mempool implements the engine's custom slab allocator over the
// machine's memory tiers (paper §5.1). The two real memory tiers — HBM
// and DRAM — get allocations rounded up to fixed size classes tuned to
// typical KPA, bundle and window sizes; the pool tracks free capacity
// per tier, which feeds the runtime's resource monitor, and keeps a
// small reserved HBM region for Urgent allocations. A third cold tier,
// memsim.Spill, can be attached via AttachSpill: its allocations are
// extents of an mmap'd file (internal/spill) behind the same Allocation
// interface — runs only; column slabs stay on the memory tiers — so a
// request can name the tiers it accepts, in order, and be served by the
// first with room (AllocFirst) — the degradation ladder is one call
// under one lock, and a failure is a request no rung served. The spill
// tier is excluded from Pressure: a full spill file degrades latency, it
// must never shed traffic.
//
// Beyond accounting, the pool is a real recycling allocator for the
// engine's hottest object: the KPA pair array. Allocation.Pairs hands
// out backing []algo.Pair storage for an allocation, and Free returns
// that slab to a per-tier, per-size-class, lock-sharded free list, so
// the steady-state grouping path (extract → radix sort → k-way
// merge-reduce) reuses the same slabs instead of pressuring the Go
// garbage collector.
// The same free lists back transient kernel scratch via ScratchFor.
package mempool

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"streambox/internal/algo"
	"streambox/internal/memsim"
	"streambox/internal/metrics"
	"streambox/internal/spill"
)

// sizeClasses are the slab element sizes in bytes: 4 KiB .. 256 MiB in
// powers of two, covering KPAs (tens of KB .. tens of MB), record bundles
// (MBs) and window state (tens to hundreds of MB).
var sizeClasses = func() []int64 {
	var cs []int64
	for s := int64(4 << 10); s <= 256<<20; s <<= 1 {
		cs = append(cs, s)
	}
	return cs
}()

// slabShards is the number of free-list shards per (tier, class); shard
// locks keep concurrent workers recycling slabs without contending on
// one mutex.
const slabShards = 4

// ErrExhausted is returned when a tier cannot satisfy an allocation.
type ErrExhausted struct {
	Tier memsim.Tier
	Want int64
	Free int64
}

func (e *ErrExhausted) Error() string {
	return fmt.Sprintf("mempool: %v exhausted: want %d bytes, %d free", e.Tier, e.Want, e.Free)
}

// Allocation is a live slab allocation. Free must be called exactly once.
type Allocation struct {
	pool     *Pool
	tier     memsim.Tier
	size     int64 // rounded class size actually charged
	class    int   // size-class index of the slab Pairs took, -1 for jumbo
	urgent   bool
	freed    bool
	pairs    []algo.Pair // backing slab, materialized by Pairs
	spillOff int64       // extent offset for spill-tier allocations
	Request  int64       // the size the caller asked for
}

// Tier returns the tier the allocation lives on.
func (a *Allocation) Tier() memsim.Tier { return a.tier }

// Pairs returns a view of n pairs over the allocation's backing slab,
// materializing the slab on first call — the smallest class that holds n
// pairs, recycled from the pool's free list when one is available,
// freshly allocated otherwise. The slab is sized by n, not by the
// charge: the simulator charges a pair for every virtual record a real
// one stands for (engine.Config.RecordWeight), so its charges run ~100×
// the pairs they hold, while natively the charge is exactly n pairs and
// so is the slab. A later call may ask for no more pairs than the first.
// Recycled slabs hold stale contents:
// callers must write every element before reading it (the engine's
// primitives fill before they read). Pairs and Free are not safe for
// concurrent use on one Allocation; the engine's single-owner KPA
// discipline provides that exclusion.
func (a *Allocation) Pairs(n int) []algo.Pair {
	if a.freed {
		panic("mempool: Pairs on freed allocation")
	}
	if int64(n)*memsim.PairBytes > a.size {
		panic(fmt.Sprintf("mempool: Pairs(%d) exceeds %d-byte allocation", n, a.size))
	}
	if a.tier == memsim.Spill {
		return a.pool.spill.Pairs(a.spillOff, n)
	}
	if a.pairs == nil {
		a.pairs, a.class = a.pool.takePairs(a.tier, n)
	}
	return a.pairs[:n]
}

// Free returns the allocation to its pool — both the capacity
// accounting and, when Pairs materialized a slab, the backing array,
// which joins the tier's free list for reuse. Freeing twice panics: the
// engine's reference counting must never double-free a bundle or KPA.
func (a *Allocation) Free() {
	if a == nil {
		return
	}
	a.pool.mu.Lock()
	if a.freed {
		a.pool.mu.Unlock()
		panic("mempool: double free")
	}
	a.freed = true
	if a.urgent {
		a.pool.usedReserved -= a.size
	} else {
		a.pool.used[a.tier] -= a.size
	}
	a.pool.frees++
	a.pool.mu.Unlock()
	if a.tier == memsim.Spill {
		a.pool.spill.Free(a.spillOff, a.size)
		return
	}
	if a.pairs != nil {
		a.pool.putSlab(a.tier, a.class, a.pairs)
		a.pairs = nil
	}
}

// Stats summarises pool activity.
type Stats struct {
	Allocs   int64
	Frees    int64
	Failures int64
	// Recycled counts slab requests served from a free list instead of
	// the Go heap.
	Recycled int64
	// ColRecycled counts column-slab requests served from a free list.
	ColRecycled int64
	// ColsOut is the column slabs taken and not yet put back: the
	// ownership ledger, zero whenever no batch, bundle or decoder holds
	// one.
	ColsOut  int64
	PeakUsed [memsim.NumTiers]int64
}

// freeList is one tier's free lists for slabs of one element type — pair
// slabs behind KPAs and kernel scratch, []uint64 column slabs behind
// ingest batches and the bundles that adopt them — one stack per
// (size class, shard).
type freeList[T any] [][slabShards]freeShard[T]

type freeShard[T any] struct {
	mu    sync.Mutex
	slabs [][]T
}

// take pops a slab of the class from the first non-empty shard, walking
// the shards from start.
func (l freeList[T]) take(class int, start uint32) ([]T, bool) {
	for i := uint32(0); i < slabShards; i++ {
		sh := &l[class][(start+i)%slabShards]
		sh.mu.Lock()
		if k := len(sh.slabs); k > 0 {
			slab := sh.slabs[k-1]
			sh.slabs[k-1] = nil
			sh.slabs = sh.slabs[:k-1]
			sh.mu.Unlock()
			return slab, true
		}
		sh.mu.Unlock()
	}
	return nil, false
}

// put pushes a slab of the class onto one shard.
func (l freeList[T]) put(class int, shard uint32, slab []T) {
	sh := &l[class][shard%slabShards]
	sh.mu.Lock()
	sh.slabs = append(sh.slabs, slab)
	sh.mu.Unlock()
}

// Pool is a tiered slab allocator with capacity accounting and
// per-size-class slab recycling over the memory tiers, plus an
// optional attached spill arena for the cold tier.
type Pool struct {
	mu           sync.Mutex
	cap          [memsim.NumTiers]int64
	used         [memsim.NumTiers]int64
	reserved     int64 // HBM set aside for Urgent allocations
	usedReserved int64
	peak         [memsim.NumTiers]int64
	allocs       int64
	frees        int64
	failures     int64

	// spill backs memsim.Spill allocations; nil when the cold tier is
	// disabled. Set once by AttachSpill before concurrent use.
	spill *spill.File

	shardRR atomic.Uint32
	free    [memsim.NumTiers]freeList[algo.Pair]
	colFree [memsim.NumTiers]freeList[uint64]

	// set is the pool's /metrics series: everything guarded by mu comes
	// from one Snapshot per scrape, the free-list counters are declared
	// in New.
	set            metrics.Set
	recycled       *metrics.Counter // slab requests served from a free list
	colCached      *metrics.Counter // column slabs sitting in free lists
	colCachedBytes *metrics.Counter // their total capacity in bytes
	colRecycled    *metrics.Counter // column requests served from a free list
	colsOut        *metrics.Counter // column slabs taken and not yet put back
}

// New creates a pool with tier capacities from cfg. reservedHBM bytes of
// HBM are carved out for Urgent allocations (paper §5: "Urgent tasks
// always allocate KPAs from a small reserved pool of HBM").
func New(cfg memsim.Config, reservedHBM int64) *Pool {
	if reservedHBM < 0 {
		panic("mempool: negative reservation")
	}
	hbm := cfg.Tier(memsim.HBM).Capacity
	if reservedHBM > hbm {
		reservedHBM = hbm
	}
	p := &Pool{reserved: reservedHBM}
	p.cap[memsim.HBM] = hbm - reservedHBM
	p.cap[memsim.DRAM] = cfg.Tier(memsim.DRAM).Capacity
	var used, capacity, utilization [memsim.NumTiers]string
	for t := range used {
		tier := `{tier="` + strings.ToLower(memsim.Tier(t).String()) + `"}`
		used[t] = "streambox_mempool_used_bytes" + tier
		capacity[t] = "streambox_mempool_capacity_bytes" + tier
		utilization[t] = "streambox_mempool_utilization" + tier
	}
	p.set.Collect(func(e *metrics.Emitter) {
		snap := p.Snapshot() // every tier under one lock acquisition
		for t, tier := range snap.Tiers {
			e.Int(used[t], tier.Used)
			e.Int(capacity[t], tier.Capacity)
			e.Float(utilization[t], tier.Utilization)
		}
		e.Int("streambox_mempool_allocs_total", snap.Allocs)
		e.Int("streambox_mempool_frees_total", snap.Frees)
		e.Int("streambox_mempool_alloc_failures_total", snap.Failures)
	})
	p.recycled = p.set.Counter("streambox_mempool_slabs_recycled_total")
	p.colCached = p.set.Counter("streambox_mempool_colslabs_cached")
	p.colCachedBytes = p.set.Counter("streambox_mempool_colslab_cached_bytes")
	p.colRecycled = p.set.Counter("streambox_mempool_colslabs_recycled_total")
	p.colsOut = p.set.Counter("streambox_mempool_colslabs_out")
	// Spill capacity stays zero until AttachSpill hands over a file.
	for t := 0; t < memsim.NumTiers; t++ {
		p.free[t] = make(freeList[algo.Pair], len(sizeClasses))
		p.colFree[t] = make(freeList[uint64], len(sizeClasses))
	}
	return p
}

// Metrics returns the pool's series for /metrics.
func (p *Pool) Metrics() *metrics.Set { return &p.set }

// AttachSpill connects an mmap'd spill arena as the cold tier. Must be
// called before the pool sees concurrent use (the runtime attaches it
// during Start, before workers run); attaching twice panics.
func (p *Pool) AttachSpill(f *spill.File) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.spill != nil {
		panic("mempool: spill already attached")
	}
	p.spill = f
	p.cap[memsim.Spill] = f.Capacity()
}

// classIndex returns the index of the smallest class >= n, or -1 for
// jumbo allocations beyond the largest class.
func classIndex(n int64) int {
	for i, c := range sizeClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// roundUp returns the smallest size class >= n, or n itself for jumbo
// allocations beyond the largest class.
func roundUp(n int64) int64 {
	if i := classIndex(n); i >= 0 {
		return sizeClasses[i]
	}
	return n
}

// classFloorIndex returns the index of the largest class <= n bytes, or
// -1 when n is below the smallest class.
func classFloorIndex(n int64) int {
	idx := -1
	for i, c := range sizeClasses {
		if c > n {
			break
		}
		idx = i
	}
	return idx
}

// PoisonCols is a test mode: PutCol overwrites every slab it takes back,
// so a bundle or batch read after its columns were returned yields
// poison — a digest mismatch — instead of rows that happen to be intact
// still. Tests set it from TestMain, before any pool exists.
var PoisonCols atomic.Bool

// colPoison is what a poisoned slab holds: as a timestamp it lies far
// past any window, as a key it matches no generated one.
const colPoison = 0xDEAD_C015_DEAD_C015

// TakeCol returns a []uint64 column slab of length rows for tier t,
// recycled from the column free lists when a slab of the right class is
// available, freshly allocated otherwise. Capacity is class-rounded so
// the slab can be trimmed and reused across frame sizes. The taker owns
// the slab until it — or the bundle it hands the slab to — calls PutCol;
// ColsOut counts the slabs in between. Like scratch buffers, column
// slabs bypass capacity accounting on their own: a batch queued on the
// wire side is transient staging, and the runtime charges it (Alloc,
// records x record bytes) when a bundle adopts it — charging the staging
// too would double-count every record into spurious backpressure.
// That charge is the rows, not the slab: the class rounding is resident
// but uncharged (a 10 000-row column is 80 KB in a 128 KiB slab, so up
// to 2x the charged bytes just past a class boundary; a network feed
// takes one slab for all the columns of a frame, so a 4 096-row frame of
// the three columns a keyed sum reads is 96 KiB in a 128 KiB slab, where
// its three 32 KiB columns each filled a class exactly), and the column
// free lists have no cap — they keep the high-water mark of slabs for
// the life of the pool
// (streambox_mempool_colslab_cached_bytes) where heap columns would have
// been garbage-collected.
// Recycled slabs hold stale contents — the taker overwrites every
// element before reading (columnar frames by io.ReadFull, row decoders
// by index, generators by append).
func (p *Pool) TakeCol(t memsim.Tier, rows int) []uint64 {
	p.colsOut.Add(1)
	bytes := int64(rows) * 8
	class := classIndex(bytes)
	if class >= 0 {
		if slab, ok := p.colFree[t].take(class, p.shardRR.Add(1)); ok {
			p.colRecycled.Add(1)
			p.colCached.Add(-1)
			p.colCachedBytes.Add(-int64(cap(slab)) * 8)
			return slab[:rows]
		}
	}
	words := int64(rows)
	if class >= 0 {
		words = sizeClasses[class] / 8
	}
	return make([]uint64, words)[:rows]
}

// PutCol returns a column slab to tier t's free lists. Any capacity is
// accepted: the slab is trimmed down to the largest class its capacity
// holds (append-grown buffers land on a class boundary again instead of
// being thrown away); capacities below the smallest class go back to
// the garbage collector.
func (p *Pool) PutCol(t memsim.Tier, col []uint64) {
	p.colsOut.Add(-1)
	if PoisonCols.Load() {
		col = col[:cap(col)]
		for i := range col {
			col[i] = colPoison
		}
	}
	class := classFloorIndex(int64(cap(col)) * 8)
	if class < 0 {
		return
	}
	words := sizeClasses[class] / 8
	p.colFree[t].put(class, p.shardRR.Add(1), col[:0:words])
	p.colCached.Add(1)
	p.colCachedBytes.Add(words * 8)
}

// takePairs returns a pair slab of tier t holding at least n pairs, and
// its class: the smallest class that holds them, recycled when a
// free-list shard of that class has one, fresh otherwise; beyond the
// largest class (-1) exactly n pairs from the heap. The returned slice
// has full slab length.
func (p *Pool) takePairs(t memsim.Tier, n int) ([]algo.Pair, int) {
	class := classIndex(int64(n) * memsim.PairBytes)
	if class < 0 {
		return make([]algo.Pair, n), class
	}
	if slab, ok := p.free[t].take(class, p.shardRR.Add(1)); ok {
		p.recycled.Add(1)
		return slab, class
	}
	return make([]algo.Pair, sizeClasses[class]/memsim.PairBytes), class
}

// putSlab returns a class-sized slab to its free list (jumbos and
// foreign capacities go back to the garbage collector).
func (p *Pool) putSlab(t memsim.Tier, class int, slab []algo.Pair) {
	if class < 0 {
		return
	}
	if int64(cap(slab))*memsim.PairBytes != sizeClasses[class] {
		return // not a slab this class owns
	}
	p.free[t].put(class, p.shardRR.Add(1), slab[:cap(slab)])
}

// ScratchFor returns an algo.Scratch drawing transient kernel buffers
// (radix scatter targets, staged seal outputs) from tier t's slab
// free lists. Scratch buffers bypass capacity accounting: they reuse
// slabs the accounting has already released, and charging them would
// turn short-lived sort scratch into spurious backpressure.
func (p *Pool) ScratchFor(t memsim.Tier) *algo.Scratch {
	return &algo.Scratch{
		Get: func(n int) []algo.Pair {
			slab, _ := p.takePairs(t, n)
			return slab
		},
		Put: func(b []algo.Pair) {
			p.putSlab(t, classIndex(int64(cap(b))*memsim.PairBytes), b)
		},
	}
}

// Alloc carves size bytes from tier t: class-rounded slabs on the
// memory tiers, extent-rounded mmap regions on the spill tier.
func (p *Pool) Alloc(t memsim.Tier, size int64) (*Allocation, error) {
	return p.AllocFirst(size, t)
}

// AllocFirst carves size bytes from the first tier of order that has
// room, walking the rungs under one lock. A rung that is full — or, for
// the spill tier, detached — is passed over, not failed: the request
// fails only when no rung serves it, with one ErrExhausted naming the
// first rung and one count in Stats.Failures.
func (p *Pool) AllocFirst(size int64, order ...memsim.Tier) (*Allocation, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mempool: invalid allocation size %d", size)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walk(size, order)
}

// AllocUrgent carves from the reserved HBM region and, once the reserve
// is spent, from the first tier of order with room, as AllocFirst does
// — all under one lock. A request nothing serves fails naming the
// reserve's tier, HBM, when order is empty.
func (p *Pool) AllocUrgent(size int64, order ...memsim.Tier) (*Allocation, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mempool: invalid allocation size %d", size)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := roundUp(size); p.usedReserved+n <= p.reserved {
		p.usedReserved += n
		p.allocs++
		return &Allocation{pool: p, tier: memsim.HBM, size: n, urgent: true, Request: size}, nil
	}
	return p.walk(size, order)
}

// walk serves one request from the first tier of order with room. The
// caller holds mu.
func (p *Pool) walk(size int64, order []memsim.Tier) (*Allocation, error) {
	slab := roundUp(size)
	// Extents are rounded to the arena's 64-byte granularity, not the slab
	// classes: runs are variable-sized and class rounding would waste up
	// to half the file.
	extent := spill.RoundUp(size)
	for _, t := range order {
		n, off := slab, int64(0)
		if t == memsim.Spill {
			if p.spill == nil {
				continue
			}
			var err error
			if off, err = p.spill.Alloc(size); err != nil {
				continue
			}
			n = extent
		} else if p.used[t]+n > p.cap[t] {
			continue
		}
		p.used[t] += n
		if p.used[t] > p.peak[t] {
			p.peak[t] = p.used[t]
		}
		p.allocs++
		return &Allocation{pool: p, tier: t, size: n, spillOff: off, Request: size}, nil
	}
	p.failures++
	t, want := memsim.HBM, slab
	if len(order) > 0 {
		t = order[0]
	}
	if t == memsim.Spill {
		want = extent
	}
	return nil, &ErrExhausted{Tier: t, Want: want, Free: p.cap[t] - p.used[t]}
}

// Used returns the bytes in use on tier t (excluding the reserved pool).
func (p *Pool) Used(t memsim.Tier) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.used[t]
	if t == memsim.HBM {
		u += p.usedReserved
	}
	return u
}

// Capacity returns the allocatable bytes on tier t (the reserved HBM
// region counts towards HBM capacity).
func (p *Pool) Capacity(t memsim.Tier) int64 {
	c := p.cap[t]
	if t == memsim.HBM {
		c += p.reserved
	}
	return c
}

// Utilization returns Used/Capacity on tier t in [0,1]. A zero-capacity
// memory tier reads as fully utilized (X56 has no HBM: allocations must
// go elsewhere), but a detached spill tier reads as empty — "no cold
// tier" must not look like "cold tier full" on the ladder gauges.
func (p *Pool) Utilization(t memsim.Tier) float64 {
	c := p.Capacity(t)
	if c == 0 {
		if t == memsim.Spill {
			return 0
		}
		return 1
	}
	return float64(p.Used(t)) / float64(c)
}

// Pressure is the pool's overall memory pressure: the worst utilization
// across the real memory tiers. It is the admission-control signal — a
// server sheds new connections when HBM or DRAM is nearly exhausted,
// since a fresh stream would only deepen the deficit. The spill tier is
// excluded: filling the cold tier degrades latency, never admission.
func (p *Pool) Pressure() float64 {
	max := 0.0
	for t := memsim.Tier(0); t < memsim.Tier(memsim.MemTiers); t++ {
		if u := p.Utilization(t); u > max {
			max = u
		}
	}
	return max
}

// Stats returns a snapshot of allocator counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Allocs:      p.allocs,
		Frees:       p.frees,
		Failures:    p.failures,
		Recycled:    p.recycled.Load(),
		ColRecycled: p.colRecycled.Load(),
		ColsOut:     p.colsOut.Load(),
		PeakUsed:    p.peak,
	}
}

// TierSnapshot is one tier's live view for metrics exposition.
type TierSnapshot struct {
	Used, Capacity, Peak int64
	Utilization          float64
}

// Snapshot is a consistent one-scrape view of the whole pool, taken
// under a single lock acquisition (the per-field getters can tear
// between tiers while allocations race).
type Snapshot struct {
	Tiers                  [memsim.NumTiers]TierSnapshot // indexed by memsim.Tier
	Reserved, UsedReserved int64
	Allocs, Frees          int64
	Failures               int64
	Recycled               int64
	// Column-slab pool occupancy: slabs (and their bytes) sitting in
	// the []uint64 free lists, and requests served from them.
	ColSlabsCached    int64
	ColSlabBytesCache int64
	ColSlabsRecycled  int64
}

// Snapshot returns a consistent view of capacities, usage and counters.
func (p *Pool) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s Snapshot
	for t := memsim.Tier(0); t < memsim.Tier(memsim.NumTiers); t++ {
		used, capa := p.used[t], p.cap[t]
		if t == memsim.HBM {
			used += p.usedReserved
			capa += p.reserved
		}
		ts := TierSnapshot{Used: used, Capacity: capa, Peak: p.peak[t]}
		switch {
		case capa > 0:
			ts.Utilization = float64(used) / float64(capa)
		case t == memsim.Spill:
			ts.Utilization = 0 // cold tier disabled, not full
		default:
			ts.Utilization = 1
		}
		s.Tiers[t] = ts
	}
	s.Reserved, s.UsedReserved = p.reserved, p.usedReserved
	s.Allocs, s.Frees, s.Failures = p.allocs, p.frees, p.failures
	s.Recycled = p.recycled.Load()
	s.ColSlabsCached = p.colCached.Load()
	s.ColSlabBytesCache = p.colCachedBytes.Load()
	s.ColSlabsRecycled = p.colRecycled.Load()
	return s
}
