package netio

import (
	"sync"
	"time"

	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
)

// colTier is the memory tier ingest column batches live on, queued and
// adopted by a bundle alike; HBM stays dedicated to the compute-side
// KPAs.
const colTier = memsim.DRAM

// batch is one decoded frame flowing from a connection handler to the
// runtime, or a sentinel retiring a connection's watermark cursor.
type batch struct {
	conn   int64
	cols   [][]uint64
	maxTs  uint64
	retire bool
}

// feedCursor is one source's watermark state. A parked cursor belongs
// to a session whose connection has been gone past the cursor grace
// period: its timestamp still advances if late batches drain through,
// but it no longer holds the feed watermark down — window closes
// proceed without it until a resume unparks it.
type feedCursor struct {
	ts     uint64
	parked bool
}

// Feed buffers decoded record batches between the ingest server and the
// native runtime, implementing runtime.ExternalFeed. It also tracks the
// stream's event-time watermark the way a multi-source streaming system
// must: each connection is a source with its own cursor (the highest
// timestamp among batches *delivered* to the runtime — not merely
// received, so the watermark can never overtake data still buffered
// here), and the feed watermark is the minimum cursor over live
// connections. A window therefore closes only once every connection has
// delivered all its records for that window, which makes multi-client
// runs produce exactly the results of the equivalent single-generator
// run.
//
// Column memory comes from a mempool — the feed's own from NewFeed on,
// the engine's once UsePool attaches it — one slab per batch, and every
// slab has one holder at a time: the handler that borrowed it
// (borrowCols) until deliver pushes the batch; the feed while the batch
// is queued — uncharged, the queue is bounded; then the bundle the
// runtime seals over the batch, never copying it — charged to the DRAM
// tier at that adoption — until the bundle's last Release calls
// Recycle. Whoever drops a batch instead (a damaged frame, a superseded
// connection, a push refused by shutdown, a batch the runtime rejects)
// calls Recycle itself, so the pool's ColsOut returns to zero whenever
// nothing is in flight. Only the [][]uint64 headers cycle through a
// sync.Pool.
type Feed struct {
	schema bundle.Schema
	ch     chan batch
	stop   chan struct{} // closed when the server begins shutdown

	mu      sync.Mutex
	cursors map[int64]*feedCursor
	highTs  uint64 // max delivered timestamp ever (watermark once all conns retire)

	// pool owns the column slabs behind every batch: a pool of the
	// feed's own until UsePool replaces it.
	pool *mempool.Pool

	// headers recycles the [][]uint64 batch headers only — never column
	// memory, which the mempool owns.
	headers sync.Pool
}

// NewFeed creates a feed buffering up to buffer batches (0 picks 64),
// drawing its columns from a pool of its own.
func NewFeed(schema bundle.Schema, buffer int) *Feed {
	if buffer <= 0 {
		buffer = 64
	}
	return &Feed{
		schema:  schema,
		ch:      make(chan batch, buffer),
		stop:    make(chan struct{}),
		cursors: make(map[int64]*feedCursor),
		pool:    mempool.New(memsim.KNLConfig(), 0),
	}
}

// UsePool replaces the feed's own pool with the engine's slab allocator
// as the owner of all column memory. Call before ingest traffic starts
// (Serve attaches the runtime's pool between starting the execution and
// opening the listener).
func (f *Feed) UsePool(p *mempool.Pool) { f.pool = p }

// Schema implements runtime.ExternalFeed.
func (f *Feed) Schema() bundle.Schema { return f.schema }

// register adds a connection's watermark cursor at zero, holding the
// feed watermark until the connection's data starts flowing.
func (f *Feed) register(conn int64) {
	f.mu.Lock()
	f.cursors[conn] = &feedCursor{}
	f.mu.Unlock()
}

// park marks a cursor as no longer holding the feed watermark — the
// stale-cursor expiry for a session whose connection has been gone past
// the grace period. Idempotent; a missing cursor is a no-op.
func (f *Feed) park(conn int64) {
	f.mu.Lock()
	if c, ok := f.cursors[conn]; ok {
		c.parked = true
	}
	f.mu.Unlock()
}

// unpark restores a parked cursor into the watermark minimum — a
// session resumed. Idempotent; a missing cursor is a no-op.
func (f *Feed) unpark(conn int64) {
	f.mu.Lock()
	if c, ok := f.cursors[conn]; ok {
		c.parked = false
	}
	f.mu.Unlock()
}

// Restore re-registers a recovered session's watermark cursor as st
// says — recovery restores every checkpointed session (and a fresh
// state per session first seen in the log) before replaying the log
// through Inject.
func (f *Feed) Restore(st SessionState) {
	f.mu.Lock()
	f.cursors[st.Conn] = &feedCursor{ts: st.CursorTs, parked: st.Parked}
	f.mu.Unlock()
}

// SeedHighTs raises the feed's high-water timestamp — recovery restores
// the checkpoint's value so retired pre-crash connections keep counting
// toward the all-retired watermark.
func (f *Feed) SeedHighTs(ts uint64) {
	f.mu.Lock()
	if ts > f.highTs {
		f.highTs = ts
	}
	f.mu.Unlock()
}

// Inject delivers a recovered batch under conn's cursor through the
// normal delivery path (blocking on feed backpressure); it reports
// false once shutdown has begun, having recycled the batch. cols must
// come from BorrowCols so recycling returns them to the pool.
func (f *Feed) Inject(conn int64, cols [][]uint64, maxTs uint64) bool {
	return f.push(batch{conn: conn, cols: cols, maxTs: maxTs})
}

// BorrowCols exposes the receive path's slab borrowing for recovery
// replay: exact-length columns the caller must fill entirely.
func (f *Feed) BorrowCols(rows int) [][]uint64 { return f.borrowCols(rows) }

// Retire removes conn's cursor after any batches already injected for
// it: the sentinel rides the channel behind the data, falling back to
// direct removal during shutdown.
func (f *Feed) Retire(conn int64) {
	if !f.push(batch{conn: conn, retire: true}) {
		f.retire(conn)
	}
}

// fillCursors completes session states with their cursors' half:
// CursorTs and Parked, left zero for a session whose cursor is gone.
func (f *Feed) fillCursors(states []SessionState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range states {
		if c, ok := f.cursors[states[i].Conn]; ok {
			states[i].CursorTs, states[i].Parked = c.ts, c.parked
		}
	}
}

// HighTs returns the highest delivered timestamp (checkpointing).
func (f *Feed) HighTs() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.highTs
}

// liveCursors returns the number of registered cursors and how many of
// them are parked (for tests and leak checks).
func (f *Feed) liveCursors() (total, parked int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.cursors {
		if c.parked {
			parked++
		}
	}
	return len(f.cursors), parked
}

// push delivers a batch, blocking while the buffer is full. It returns
// false — and drops the batch, its columns recycled — once shutdown has
// begun.
func (f *Feed) push(b batch) bool {
	select {
	case <-f.stop:
	default:
		select {
		case f.ch <- b:
			return true
		case <-f.stop:
		}
	}
	if b.cols != nil {
		f.Recycle(b.cols)
	}
	return false
}

// offer delivers a batch only if the buffer has room now: false, with b
// still the caller's, when the push would block or shutdown has begun.
// The frame loop offers first so it can settle its owed credit before
// it waits (Server.deliver).
func (f *Feed) offer(b batch) bool {
	select {
	case <-f.stop:
		return false
	default:
	}
	select {
	case f.ch <- b:
		return true
	default:
		return false
	}
}

// retire removes a connection's cursor directly, for handlers whose
// sentinel could not be delivered during shutdown.
func (f *Feed) retire(conn int64) {
	f.mu.Lock()
	f.retireLocked(conn)
	f.mu.Unlock()
}

func (f *Feed) retireLocked(conn int64) {
	if c, ok := f.cursors[conn]; ok {
		delete(f.cursors, conn)
		if c.ts > f.highTs {
			f.highTs = c.ts
		}
	}
}

// beginShutdown unblocks pushers; no push succeeds afterwards.
func (f *Feed) beginShutdown() { close(f.stop) }

// closeSend closes the batch channel. Only the server may call it, after
// every connection handler has exited (no concurrent pushers).
func (f *Feed) closeSend() { close(f.ch) }

// Reclaim recycles every batch still queued. The runtime normally
// drains the closed feed itself; a run that died early leaves batches
// behind, and whoever waited for it to exit calls Reclaim so their slabs
// go back to the pool. Call only after the feed is closed and its
// consumer gone: before that, queued batches are acked data the runtime
// has yet to ingest.
func (f *Feed) Reclaim() {
	for b := range f.ch {
		if b.cols != nil {
			f.Recycle(b.cols)
		}
	}
}

// Close shuts down a feed no server owns (error paths before Listen
// succeeds), releasing a runtime blocked in Recv. With a server
// attached, Server.Close performs the ordered shutdown instead.
func (f *Feed) Close() {
	f.beginShutdown()
	f.closeSend()
}

// Recv implements runtime.ExternalFeed: it blocks up to maxWait
// (forever when <= 0) for the next batch, advancing the owning
// connection's watermark cursor as the batch is handed over. ok is
// false when the feed is closed and drained; idle is true when maxWait
// elapsed with no batch.
func (f *Feed) Recv(maxWait time.Duration) ([][]uint64, bool, bool) {
	var timeout <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		var b batch
		var ok bool
		select {
		case b, ok = <-f.ch:
		case <-timeout:
			return nil, true, true
		}
		if !ok {
			return nil, false, false
		}
		f.mu.Lock()
		if b.retire {
			f.retireLocked(b.conn)
			f.mu.Unlock()
			continue
		}
		if cur, live := f.cursors[b.conn]; live && b.maxTs > cur.ts {
			cur.ts = b.maxTs
		}
		if b.maxTs > f.highTs {
			f.highTs = b.maxTs
		}
		f.mu.Unlock()
		return b.cols, true, false
	}
}

// Recycle implements runtime.ExternalFeed: it ends a batch's life —
// the release hook of the bundle sealed over it, called from whichever
// goroutine drops that bundle's last reference, and the one call every
// path that drops a batch short of a bundle makes. Nothing may read cols
// afterwards. The batch's one slab returns to the pool's column free
// lists through its first column, which kept the slab's capacity; the
// bare header joins the header pool.
func (f *Feed) Recycle(cols [][]uint64) {
	if len(cols) != f.schema.NumCols {
		return
	}
	f.pool.PutCol(colTier, cols[0])
	clear(cols)
	f.headers.Put(&cols)
}

// borrowCols returns a batch of exact-length columns, the one way a
// decode step gets storage: columnar frames read their data section
// straight into it, PB frames are transposed into it. The batch is one
// pooled slab of NumCols × rows words, its columns consecutive views in
// schema order — the layout of a columnar frame's data section, so one
// read fills them all. Every column but the first is capped at rows; the
// first keeps the slab's capacity so Recycle can hand the whole slab
// back. Recycled slabs hold stale contents; the caller overwrites every
// element.
func (f *Feed) borrowCols(rows int) [][]uint64 {
	cols := f.getHeader()
	slab := f.pool.TakeCol(colTier, len(cols)*rows)
	cols[0] = slab[:rows]
	for i := 1; i < len(cols); i++ {
		cols[i] = slab[i*rows : (i+1)*rows : (i+1)*rows]
	}
	return cols
}

// getHeader returns a schema-width batch header.
func (f *Feed) getHeader() [][]uint64 {
	if v := f.headers.Get(); v != nil {
		return *v.(*[][]uint64)
	}
	return make([][]uint64, f.schema.NumCols)
}

// Watermark implements runtime.ExternalFeed: the minimum cursor over
// live, unparked connections — or the highest delivered timestamp once
// none remain (all retired, or every survivor parked past its grace
// period). Parked cursors deliberately drop out of the minimum so one
// silent session cannot stall every window close.
func (f *Feed) Watermark() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	first := true
	var min uint64
	for _, c := range f.cursors {
		if c.parked {
			continue
		}
		if first || c.ts < min {
			min = c.ts
			first = false
		}
	}
	if first {
		return f.highTs
	}
	return min
}
