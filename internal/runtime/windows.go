package runtime

// windows.go is the window/pane registry: which windows are open, how
// many extractions each still waits on, and the sorted runs filed under
// each pane. Its methods are the only code that takes the registry
// lock, so the sealing invariant lives here and nowhere else:
//
//   - A window is sealed once the target watermark reaches its end
//     (advance marks it close-requested in the same critical section
//     that raises the target). register never admits a bundle to a
//     sealed window, so a sealed window's pending count only falls, its
//     close starts exactly once — from advance when nothing is pending,
//     otherwise from the fileRuns that lands the last extraction — and
//     it publishes exactly once.
//   - A pane run is visible to the covering windows that were open when
//     its bundle registered (paneRun.from onward) and carries one KPA
//     reference for each; a sealed window that has not collected yet
//     never sees a run filed by a bundle that arrived too late for it.
//   - The sealed watermark is monotone: windows ending at or before the
//     target can only leave the table.
//
// register and advance run on the ingest goroutine, so which windows a
// bundle is late for is a deterministic function of the stream.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/kpa"
	"streambox/internal/wm"
)

// winEntry tracks one open window: the extraction tasks still due to
// contribute to it and whether a watermark has asked it to close. The
// close defers until the last pending extraction lands. Its runs live
// in the pane entries it covers.
type winEntry struct {
	pending        int
	closeRequested bool
	// closeT0 stamps the close request for the close-latency samples.
	closeT0 time.Time
}

// paneRun is one sorted run filed under a pane, shared by every
// covering window from `from` onward.
type paneRun struct {
	k    *kpa.KPA
	from wm.Time
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

type windowTable struct {
	win   wm.Windowing
	panes wm.Panes
	slide wm.Time

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

func newWindowTable(win wm.Windowing) *windowTable {
	slide := win.Slide
	if slide == 0 {
		slide = win.Size
	}
	return &windowTable{
		win:       win,
		panes:     win.Panes(),
		slide:     slide,
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
// windows whose deferred close can now start.
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
		if e.closeRequested && e.pending == 0 {
			toClose = append(toClose, w)
		}
	}
	return toClose
}

// advance raises the target watermark to w (it never falls) and seals
// every window now entirely behind it. It returns the sealed windows
// with nothing pending, whose close can start at once.
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
		if e.pending == 0 {
			toClose = append(toClose, start)
		}
	}
	return toClose
}

// collect returns the runs a closing window merges: every run of every
// pane it covers that was filed for it. Each carries one KPA reference
// for this window, released by the close.
func (t *windowTable) collect(start wm.Time) []*kpa.KPA {
	var runs []*kpa.KPA
	t.wmu.Lock()
	defer t.wmu.Unlock()
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
// collect of the same run.
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
// collected yet) or retired; both are safe. Caller holds wmu.
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
