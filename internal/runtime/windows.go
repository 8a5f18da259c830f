package runtime

// windows.go is the window/pane registry: which windows are open, how
// many extractions each still waits on, and the sorted runs filed under
// each pane. Its methods are the only code that takes the registry
// lock, so the sealing invariant lives here and nowhere else:
//
//   - A window is sealed once the target watermark reaches its end
//     (advance marks it close-requested in the same critical section
//     that raises the target). register never admits a bundle to a
//     sealed window, so a sealed window's pending count only falls. Its
//     close is offered by whichever event makes it ready (ready) —
//     advance, the fileRuns that lands the last extraction, the claim
//     of the window before it — always oldest window first, and claim
//     takes it exactly once: an offer that finds the window not ready,
//     already claimed or retired is dropped. It publishes exactly once.
//   - A pane run is visible to the covering windows that were open when
//     its bundle registered (paneRun.from onward) and carries one KPA
//     reference for each that has not released it; a sealed window that
//     has not claimed yet never sees a run filed by a bundle that
//     arrived too late for it.
//   - When closes seal panes (seals), windows that share a pane claim
//     in ascending order: a window is not ready while an earlier window
//     overlapping it has yet to claim. So when a window claims, no
//     earlier window can still want the raw runs it sees and every later
//     covering window will read what it leaves: it takes those raw runs
//     out of the table to seal them, and it and the later windows each
//     owe one seal (sealsDue) until paneSealed puts the partial run in
//     their place. A window gathers the runs it merges only once it has
//     claimed and owes no seal, so no window ever sees a pane half
//     swapped, while a later window's claim — and its own seals — need
//     not wait for an earlier window's seal to land. The sealing task
//     drops the raw runs' references for its window and every waiter,
//     exactly once.
//   - The sealed watermark is monotone: windows ending at or before the
//     target can only leave the table.
//
// register and advance run on the ingest goroutine, so which windows a
// bundle is late for is a deterministic function of the stream.

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/kpa"
	"streambox/internal/wm"
)

// winEntry tracks one open window: the extraction tasks still due to
// contribute to it (pending), whether a watermark has asked it to
// close, whether its close has been claimed, and the pane seals that
// must land before it merges (sealsDue). The claim defers until pending
// falls to zero, the merge until sealsDue does. Its runs live in the
// pane entries it covers.
type winEntry struct {
	pending        int
	sealsDue       int
	closeRequested bool
	claimed        bool
	// closeT0 stamps the close request for the close-latency samples.
	closeT0 time.Time
}

// paneRun is one sorted run filed under a pane, shared by every
// covering window from `from` onward: a raw run from an extraction, or
// the partial run a window sealed the pane's raw runs into (k.Partial).
type paneRun struct {
	k    *kpa.KPA
	from wm.Time
	// pinned marks a raw run whose seal could not allocate: it stays raw
	// for every window it is visible to. A window that claimed before
	// the seal failed gathers later, and must still find it.
	pinned bool
}

// paneEntry holds one pane's sorted shared runs. refs counts the
// covering windows from `from` onward that have not retired; the entry
// is dropped when the last one does. Entries are created at
// registration, so `from` is the first window that was open when the
// pane first received a bundle — later bundles can only be late for
// more windows, never fewer.
type paneEntry struct {
	runs []paneRun
	from wm.Time
	refs int
}

// filedRun is a freshly sorted pane run on its way into the table.
type filedRun struct {
	paneRun
	pane wm.Time
}

// paneSeal is one pane a claiming window seals: the raw runs it reduces
// to a partial run, out of the table until paneSealed, and the later
// covering windows that will read the partial. The claiming window and
// each waiter owe the seal until it lands.
type paneSeal struct {
	pane    wm.Time
	raw     []paneRun
	waiters []wm.Time
}

// claim is what a window's close is handed when it is claimed: the pane
// seals to run, the later windows the claim made ready, ascending, and
// — when no seal is owed — the runs to merge now.
type claim struct {
	seals []paneSeal
	next  []wm.Time
	merge bool
	runs  []*kpa.KPA
}

type windowTable struct {
	win   wm.Windowing
	panes wm.Panes
	slide wm.Time
	// seals says closes reduce a pane's raw runs to a partial run for
	// the later windows covering it: the plan's aggregator combines.
	seals bool

	// target is the target watermark. advance raises it under wmu;
	// task tagging reads it lock-free.
	target atomic.Uint64

	wmu     sync.Mutex
	windows map[wm.Time]*winEntry
	entries map[wm.Time]*paneEntry
	// finishing holds retired windows whose WindowSink publication has
	// not returned yet, so sealedWatermark never claims a window sealed
	// while its rows are still in flight to the sink.
	finishing map[wm.Time]struct{}
	closed    int
}

func newWindowTable(win wm.Windowing, seals bool) *windowTable {
	slide := win.Slide
	if slide == 0 {
		slide = win.Size
	}
	return &windowTable{
		win:       win,
		panes:     win.Panes(),
		slide:     slide,
		seals:     seals,
		windows:   make(map[wm.Time]*winEntry),
		entries:   make(map[wm.Time]*paneEntry),
		finishing: make(map[wm.Time]struct{}),
	}
}

// register admits a bundle whose window-column values span
// [minTs, maxTs]: every still-open window overlapping the range gains
// a pending extraction, so a racing watermark defers its close until
// fileRuns, and every pane the bundle can reach gets its entry. It
// returns the open windows, ascending; windows the target watermark has
// already sealed are left out, and rows before the first returned
// window (all rows, when none is returned) are late.
func (t *windowTable) register(minTs, maxTs wm.Time) []wm.Time {
	wins := windowsInRange(t.win, minTs, maxTs)
	t.wmu.Lock()
	defer t.wmu.Unlock()
	target := t.target.Load()
	for len(wins) > 0 && t.win.End(wins[0]) <= target {
		wins = wins[1:]
	}
	if len(wins) == 0 {
		return nil
	}
	for _, w := range wins {
		e := t.windows[w]
		if e == nil {
			e = &winEntry{}
			t.windows[w] = e
		}
		e.pending++
	}
	for p := t.panes.Start(t.panes.Index(max(minTs, wins[0]))); p <= maxTs; p = t.panes.End(p) {
		if t.entries[p] == nil {
			from, n := t.openCovering(p, wins[0])
			t.entries[p] = &paneEntry{from: from, refs: n}
		}
	}
	return wins
}

// openCovering returns the first window covering pane that is at or
// after firstOpen, and how many covering windows there are from it on.
// pane must not start before firstOpen.
func (t *windowTable) openCovering(pane, firstOpen wm.Time) (from wm.Time, n int) {
	first, last := t.panes.Covering(pane)
	from = max(first, firstOpen)
	return from, int((last-from)/t.slide) + 1
}

// fileRuns files an extraction's sorted pane runs and retires the
// extraction from the windows register returned for it. It returns the
// windows whose deferred close can now start, ascending (wins is).
func (t *windowTable) fileRuns(wins []wm.Time, runs []filedRun) (toClose []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for _, r := range runs {
		pe := t.entries[r.pane]
		pe.runs = append(pe.runs, r.paneRun)
	}
	for _, w := range wins {
		e := t.windows[w]
		e.pending--
		if t.ready(w, e) {
			toClose = append(toClose, w)
		}
	}
	return toClose
}

// ready reports whether window w's close can be claimed: sealed,
// nothing pending, not claimed yet and — when closes seal panes — no
// earlier window sharing a pane with it still to claim. Caller holds
// wmu.
func (t *windowTable) ready(w wm.Time, e *winEntry) bool {
	if !e.closeRequested || e.pending > 0 || e.claimed {
		return false
	}
	for s := w; t.seals && s >= t.slide && s-t.slide+t.win.Size > w; {
		s -= t.slide
		if x := t.windows[s]; x != nil && !x.claimed {
			return false
		}
	}
	return true
}

// advance raises the target watermark to w (it never falls) and seals
// every window now entirely behind it. It returns the sealed windows
// that are ready, whose close can start at once, ascending: the oldest
// window claims, seals its panes and merges first.
func (t *windowTable) advance(w wm.Time) (toClose []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if w <= t.target.Load() {
		return nil
	}
	t.target.Store(w)
	now := time.Now()
	for start, e := range t.windows {
		if e.closeRequested || t.win.End(start) > w {
			continue
		}
		e.closeRequested = true
		e.closeT0 = now
		toClose = append(toClose, start)
	}
	toClose = slices.DeleteFunc(toClose, func(start wm.Time) bool {
		return !t.ready(start, t.windows[start])
	})
	slices.Sort(toClose)
	return toClose
}

// claim takes the close of a ready window. ok is false when there is
// nothing to take — the window is not ready (the event that makes it
// ready offers it again), or a concurrent offer already claimed it.
//
// When closes seal panes, the raw runs the window sees in each pane a
// later window also covers leave the table as seals: the close reduces
// each to a partial run and hands it to paneSealed. A window that owes
// no seal — always, when closes do not seal — gathers its runs in the
// same critical section.
func (t *windowTable) claim(start wm.Time) (c claim, ok bool) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	e := t.windows[start]
	if e == nil || !t.ready(start, e) {
		return claim{}, false
	}
	e.claimed = true
	for p := start; t.seals && p < t.win.End(start); p = t.panes.End(p) {
		pe := t.entries[p]
		waiters := t.laterCovering(p, start)
		if pe == nil || len(waiters) == 0 {
			continue
		}
		var raw []paneRun
		pe.runs = slices.DeleteFunc(pe.runs, func(r paneRun) bool {
			if r.from > start || r.pinned || r.k.Partial() {
				return false
			}
			raw = append(raw, r)
			return true
		})
		if len(raw) == 0 {
			continue
		}
		e.sealsDue++
		for _, w := range waiters {
			t.windows[w].sealsDue++
		}
		c.seals = append(c.seals, paneSeal{p, raw, waiters})
	}
	for w := start + t.slide; t.seals && w < t.win.End(start); w += t.slide {
		if x := t.windows[w]; x != nil && t.ready(w, x) {
			c.next = append(c.next, w)
		}
	}
	if e.sealsDue == 0 {
		c.merge, c.runs = true, t.visible(start)
	}
	return c, true
}

// laterCovering returns the open windows covering pane after start —
// the readers a partial run sealed by start is for; none when start is
// the pane's last reader. They have all yet to claim, because start
// claims before any later window it shares a pane with. Caller holds
// wmu.
func (t *windowTable) laterCovering(pane, start wm.Time) (later []wm.Time) {
	_, last := t.panes.Covering(pane)
	for s := start + t.slide; s <= last; s += t.slide {
		if t.windows[s] != nil {
			later = append(later, s)
		}
	}
	return later
}

// paneSealed lands a seal taken by window start's claim: partial — or,
// when the seal could not allocate one (nil), the raw runs themselves,
// pinned — goes into the pane's entry, and start and the waiters each
// owe one seal less. It returns the claimed windows that now owe none, start
// first, for the caller to gather and merge, and then to release the
// raw runs' references when a partial replaced them.
func (t *windowTable) paneSealed(start wm.Time, s paneSeal, partial *kpa.KPA) (toMerge []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	pe := t.entries[s.pane]
	if partial != nil {
		pe.runs = append(pe.runs, paneRun{k: partial, from: start})
	} else {
		for _, r := range s.raw {
			r.pinned = true
			pe.runs = append(pe.runs, r)
		}
	}
	for _, w := range append([]wm.Time{start}, s.waiters...) {
		e := t.windows[w]
		if e.sealsDue--; e.claimed && e.sealsDue == 0 {
			toMerge = append(toMerge, w)
		}
	}
	return toMerge
}

// gather returns the runs a claimed window that owes no seal merges:
// every run of every pane it covers that was filed for it, each
// carrying one KPA reference for this window, released by the close.
func (t *windowTable) gather(start wm.Time) []*kpa.KPA {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.visible(start)
}

// visible lists the runs filed for window start. Caller holds wmu.
func (t *windowTable) visible(start wm.Time) (runs []*kpa.KPA) {
	for p := start; p < t.win.End(start); p = t.panes.End(p) {
		if pe := t.entries[p]; pe != nil {
			for _, r := range pe.runs {
				if r.from <= start {
					runs = append(runs, r.k)
				}
			}
		}
	}
	return runs
}

// retire removes a closed window and releases its claim on each pane it
// covered — the entry goes with its last covering window; the runs
// themselves were already released, one reference each, by the close.
// The window stays in finishing until published. It returns the time
// since the close request.
func (t *windowTable) retire(start wm.Time) time.Duration {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	var d time.Duration
	if e := t.windows[start]; e != nil && !e.closeT0.IsZero() {
		d = time.Since(e.closeT0)
	}
	for p := start; p < t.win.End(start); p = t.panes.End(p) {
		if pe := t.entries[p]; pe != nil && pe.from <= start {
			if pe.refs--; pe.refs == 0 {
				delete(t.entries, p)
			}
		}
	}
	delete(t.windows, start)
	t.closed++
	t.finishing[start] = struct{}{}
	return d
}

// published marks a retired window's rows as delivered to the sink.
func (t *windowTable) published(start wm.Time) {
	t.wmu.Lock()
	delete(t.finishing, start)
	t.wmu.Unlock()
}

// sweepEvictable calls evict on the runs of quiescent panes — no
// covering window sealed, so no merge task can be reading them —
// coldest (oldest pane) first, until evict returns false. The lock is
// held throughout, which orders each relocation before any later
// gather of the same run.
func (t *windowTable) sweepEvictable(evict func(*kpa.KPA) bool) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	starts := make([]wm.Time, 0, len(t.entries))
	for p := range t.entries {
		starts = append(starts, p)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, p := range starts {
		if !t.quiescent(p) {
			continue
		}
		for _, r := range t.entries[p].runs {
			if !evict(r.k) {
				return
			}
		}
	}
}

// quiescent reports whether no window covering pane p is sealed.
// Covering windows absent from the table are either future (nothing
// gathered yet) or retired; both are safe. Caller holds wmu.
func (t *windowTable) quiescent(p wm.Time) bool {
	first, last := t.panes.Covering(p)
	for s := first; s <= last; s += t.slide {
		if e := t.windows[s]; e != nil && e.closeRequested {
			return false
		}
	}
	return true
}

// sealedWatermark returns the watermark through which every window has
// fully externalized: the target, held back to just below the end of
// any sealed window still closing or still publishing.
func (t *windowTable) sealedWatermark() wm.Time {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	w := t.target.Load()
	for start := range t.windows {
		if end := t.win.End(start); end <= w {
			w = end - 1
		}
	}
	for start := range t.finishing {
		if end := t.win.End(start); end <= w {
			w = end - 1
		}
	}
	return w
}

// closedWindows returns how many windows have retired.
func (t *windowTable) closedWindows() int {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.closed
}

// windowsInRange lists every window start overlapping [lo, hi],
// ascending. Window starts are the multiples s of the slide with
// s <= hi and s+Size > lo, computed in closed form rather than by
// stepping from the windows of lo — stepping is only sound when lo's
// own window set is non-empty and ends at WindowOf(lo), which the
// closed form does not need to assume.
func windowsInRange(w wm.Windowing, lo, hi wm.Time) []wm.Time {
	slide := w.Slide
	if slide == 0 {
		slide = w.Size
	}
	// First overlapping start: the smallest multiple of slide whose
	// window [s, s+Size) reaches past lo.
	var first wm.Time
	if lo >= w.Size {
		first = (lo-w.Size)/slide*slide + slide
	}
	last := hi / slide * slide
	if last < first {
		return nil
	}
	out := make([]wm.Time, 0, (last-first)/slide+1)
	for s := first; s <= last; s += slide {
		out = append(out, s)
	}
	return out
}
