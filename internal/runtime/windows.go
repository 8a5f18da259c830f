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
//   - Panes compact while they fill. register gives each bundle×pane
//     the next slot in the pane's current group: mergeFanIn consecutive
//     bundles that share a `from`. When the last member of a group files
//     — a bundle that filed nothing for the pane counts — the group's
//     runs leave the table as a seal: a task merges them into one run
//     (sealPane) and paneSealed puts it in their place, one level up,
//     where mergeFanIn such runs form a group in turn. So a pane at rest
//     holds fewer than mergeFanIn grouped runs per level and `from`, and
//     no pair is re-read more than log(runs)/log(mergeFanIn) times. Slots
//     are handed out on the ingest goroutine, so what merges with what is
//     a function of the stream alone.
//   - A pane one window reads seals a level-0 group only if the seal at
//     least halves it. For such a pane a seal saves the close nothing —
//     it reads `in` pairs to spare the close `in − out` — and buys only
//     capacity. complete decides when the group completes, from the
//     group's own runs: it seals iff the aggregator is a word fold and
//     twice its key bound — the lesser of its runs' distinct keys summed
//     and its key span — is at most its pairs. The bound never
//     undercounts the keys the seal keeps, so every such seal at least
//     halves; a verbatim copy never halves, so it never seals here. A
//     group that does not seal stays in the table raw, outside any
//     group, for the close to merge, and lands in the group above with
//     no run, so the members that did seal still seal there. No decision waits on another seal, and each is a
//     function of the stream alone. A pane more than one window reads
//     seals every group it completes.
//   - Windows that share a pane claim in ascending order: a window is
//     not ready while an earlier window overlapping it has yet to claim.
//     So when a window claims, no earlier window can still want the
//     level-0 runs it sees — the pane's last, unfilled group — and every
//     later covering window will read what it leaves: they leave the
//     table as a seal too.
//   - Every open window covering the pane from the seal's `from` owes
//     the seal (sealsDue) until paneSealed lands it, and gathers the
//     runs it merges only once it has claimed and owes none: no window
//     sees a pane half swapped, yet no claim waits for a seal. None of
//     them can have gathered already — each was registered by the
//     group's members and owed the seal of the member that completed it
//     — so the sealing task drops the sealed runs' references for every
//     ower, exactly once. A seal that could not allocate puts its runs
//     back outside any group, as they were (and strands the group above).
//   - The sealed watermark is monotone: windows ending at or before the
//     target can only leave the table.
//
// register and advance run on the ingest goroutine, so which windows a
// bundle is late for is a deterministic function of the stream.

import (
	"slices"
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
// the run a seal merged others into. group is the group it will be
// sealed with; nil for a run no seal takes again — the output of a
// claim's seal, or a run whose seal could not allocate (a window that
// claimed before the seal failed gathers later, and must still find it).
type paneRun struct {
	k     *kpa.KPA
	from  wm.Time
	group *runGroup
}

// runGroup is up to mergeFanIn consecutive members of one pane that
// share a `from` and seal into one run: bundles at level 0, sealed
// groups of the level below above that. register hands out the slots;
// a member lands when its bundle files (level 0) or its seal does. A
// group that fills gets its own slot one level up (parent), and seals
// when all mergeFanIn members have landed. pairs, keys, lo and hi sum
// up the level-0 runs filed for it — their pairs, their distinct keys
// and their least and greatest key —, what its seal rule reads
// (compacts).
type runGroup struct {
	pane, from wm.Time
	level      int
	slots      int
	landed     int
	parent     *runGroup
	pairs      int
	keys       int
	lo, hi     uint64
}

// file counts a level-0 run filed for g into g's key bound.
func (g *runGroup) file(r filedRun) {
	if g.pairs == 0 {
		g.lo, g.hi = r.lo, r.hi
	}
	g.lo, g.hi = min(g.lo, r.lo), max(g.hi, r.hi)
	g.pairs += r.k.Len()
	g.keys += r.keys
}

// compacts reports whether a word fold of g's runs at least halves
// their pairs, by a bound that never undercounts the keys it keeps: the
// lesser of the runs' distinct keys summed and the group's key span.
func (g *runGroup) compacts() bool {
	keys := g.keys
	if span := g.hi - g.lo; span < uint64(keys) {
		keys = int(span) + 1
	}
	return 2*keys <= g.pairs
}

// paneEntry holds one pane's sorted shared runs. refs counts the
// covering windows from `from` onward that have not retired; the entry
// is dropped when the last one does. Entries are created at
// registration, so `from` is the first window that was open when the
// pane first received a bundle — later bundles can only be late for
// more windows, never fewer. filling is the group taking new members at
// each level.
type paneEntry struct {
	runs    []paneRun
	from    wm.Time
	refs    int
	filling []*runGroup
}

// registration is what register hands a bundle's extraction: the open
// windows it contributes to, ascending, and its group in each pane it
// can reach, ascending from the pane of its first row that is not late.
type registration struct {
	wins   []wm.Time
	groups []*runGroup
}

// filedRun is a freshly sorted pane run on its way into the table, with
// its distinct keys (counted only for a word fold) and its least and
// greatest key.
type filedRun struct {
	paneRun
	pane   wm.Time
	keys   int
	lo, hi uint64
}

// paneSeal is a set of one pane's runs, out of the table until
// paneSealed, on their way to becoming one run: a group whose last
// member landed, or the level-0 runs a claiming window found. owers are
// the open windows covering the pane from `from` on, ascending — each
// holds one reference on every run — and into is the group the merged
// run joins (nil after a claim's seal).
type paneSeal struct {
	pane, from wm.Time
	raw        []paneRun
	owers      []wm.Time
	into       *runGroup
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
	// folds is whether the aggregator is a word fold, whose seals can
	// compact a pane one window reads.
	folds bool

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
	// skipped counts the level-0 groups left raw.
	skipped int
}

func newWindowTable(win wm.Windowing, folds bool) *windowTable {
	slide := win.Slide
	if slide == 0 {
		slide = win.Size
	}
	return &windowTable{
		win:       win,
		panes:     win.Panes(),
		slide:     slide,
		folds:     folds,
		windows:   make(map[wm.Time]*winEntry),
		entries:   make(map[wm.Time]*paneEntry),
		finishing: make(map[wm.Time]struct{}),
	}
}

// register admits a bundle whose window-column values span
// [minTs, maxTs]: every still-open window overlapping the range gains
// a pending extraction, so a racing watermark defers its close until
// fileRuns, and the bundle takes a slot in the filling group of every
// pane it can reach. Windows the target watermark has already sealed
// are left out, and rows before the first open window (all rows, when
// there is none) are late.
func (t *windowTable) register(minTs, maxTs wm.Time) (reg registration) {
	wins := windowsInRange(t.win, minTs, maxTs)
	t.wmu.Lock()
	defer t.wmu.Unlock()
	target := t.target.Load()
	for len(wins) > 0 && t.win.End(wins[0]) <= target {
		wins = wins[1:]
	}
	if len(wins) == 0 {
		return reg
	}
	reg.wins = wins
	for _, w := range wins {
		e := t.windows[w]
		if e == nil {
			e = &winEntry{}
			t.windows[w] = e
		}
		e.pending++
	}
	for p := t.panes.Start(t.panes.Index(max(minTs, wins[0]))); p <= maxTs; p = t.panes.End(p) {
		from, n := t.openCovering(p, wins[0])
		pe := t.entries[p]
		if pe == nil {
			pe = &paneEntry{from: from, refs: n}
			t.entries[p] = pe
		}
		reg.groups = append(reg.groups, pe.slot(p, from, 0))
	}
	return reg
}

// slot takes the next slot of the pane's filling group at level: a new
// group when there is none, it is full, or `from` has moved on since it
// began (a bundle late for more windows starts over). The member that
// fills a group takes the group's slot one level up.
func (pe *paneEntry) slot(pane, from wm.Time, level int) *runGroup {
	if level == len(pe.filling) {
		pe.filling = append(pe.filling, nil)
	}
	g := pe.filling[level]
	if g == nil || g.from != from || g.slots == mergeFanIn {
		g = &runGroup{pane: pane, from: from, level: level}
		pe.filling[level] = g
	}
	if g.slots++; g.slots == mergeFanIn {
		g.parent = pe.slot(pane, from, level+1)
	}
	return g
}

// openCovering returns the first window covering pane that is at or
// after firstOpen, and how many covering windows there are from it on.
// pane must not start before firstOpen.
func (t *windowTable) openCovering(pane, firstOpen wm.Time) (from wm.Time, n int) {
	first, last := t.panes.Covering(pane)
	from = max(first, firstOpen)
	return from, int((last-from)/t.slide) + 1
}

// fileRuns files an extraction's sorted pane runs, lands the bundle in
// each of its groups and retires the extraction from its windows. It
// returns the seals of the groups this completed and the windows whose
// deferred close can now start, ascending.
func (t *windowTable) fileRuns(reg registration, runs []filedRun) (seals []paneSeal, toClose []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for _, r := range runs {
		pe := t.entries[r.pane]
		pe.runs = append(pe.runs, r.paneRun)
		r.group.file(r)
	}
	// Groups land before pending falls: every window from a group's
	// `from` still waits on this bundle, so none of them has claimed.
	for _, g := range reg.groups {
		seals = append(seals, t.landed(g)...)
	}
	for _, w := range reg.wins {
		e := t.windows[w]
		e.pending--
		if t.ready(w, e) {
			toClose = append(toClose, w)
		}
	}
	return seals, toClose
}

// landed counts one more member of g in; the member that completes g
// completes it. Caller holds wmu.
func (t *windowTable) landed(g *runGroup) []paneSeal {
	if g == nil {
		return nil
	}
	if g.landed++; g.landed < mergeFanIn {
		return nil
	}
	return t.complete(g)
}

// complete settles a complete group. A level-0 group of a pane one
// window reads — the pane's first covering window, pe.from, is its last
// — seals only if the aggregator is a word fold and the seal compacts;
// otherwise it stays in the table raw, outside any group. Any
// other group takes its runs out of the table as a seal. A group left
// raw, or with no run to its name (its bundles filed nothing), lands in
// its parent at once. It returns the seals this started. Caller holds
// wmu.
func (t *windowTable) complete(g *runGroup) []paneSeal {
	pe := t.entries[g.pane]
	if _, last := t.panes.Covering(g.pane); g.level == 0 && pe.from == last && !(t.folds && g.compacts()) {
		for i := range pe.runs {
			if pe.runs[i].group == g {
				pe.runs[i].group = nil
			}
		}
		t.skipped++
		return t.landed(g.parent)
	}
	if raw := t.take(g.pane, func(r paneRun) bool { return r.group == g }); len(raw) > 0 {
		return []paneSeal{t.owe(paneSeal{pane: g.pane, from: g.from, raw: raw, into: g.parent})}
	}
	return t.landed(g.parent)
}

// take removes the pane's runs that match and returns them. Caller
// holds wmu.
func (t *windowTable) take(pane wm.Time, match func(paneRun) bool) (taken []paneRun) {
	pe := t.entries[pane]
	pe.runs = slices.DeleteFunc(pe.runs, func(r paneRun) bool {
		if !match(r) {
			return false
		}
		taken = append(taken, r)
		return true
	})
	return taken
}

// owe makes every open window covering the seal's pane from its `from`
// on owe the seal. Caller holds wmu.
func (t *windowTable) owe(s paneSeal) paneSeal {
	_, last := t.panes.Covering(s.pane)
	for w := s.from; w <= last; w += t.slide {
		if e := t.windows[w]; e != nil {
			e.sealsDue++
			s.owers = append(s.owers, w)
		}
	}
	return s
}

// ready reports whether window w's close can be claimed: sealed,
// nothing pending, not claimed yet and no earlier window sharing a pane
// with it still to claim. Caller holds wmu.
func (t *windowTable) ready(w wm.Time, e *winEntry) bool {
	if !e.closeRequested || e.pending > 0 || e.claimed {
		return false
	}
	for s := w; s >= t.slide && s-t.slide+t.win.Size > w; {
		s -= t.slide
		if x := t.windows[s]; x != nil && !x.claimed {
			return false
		}
	}
	return true
}

// advance raises the target watermark to w (it never falls) and seals
// every window now entirely behind it, stamping its close request at
// now. It returns the sealed windows that are ready, whose close can
// start at once, ascending: the oldest window claims, seals its panes
// and merges first.
func (t *windowTable) advance(w wm.Time, now time.Time) (toClose []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if w <= t.target.Load() {
		return nil
	}
	t.target.Store(w)
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
// In each pane a later window also covers, the level-0 runs the window
// sees — the pane's last group, which will never fill now — leave the
// table as a seal, so the later windows read one run in their place. A
// window that owes no seal gathers its runs in the same critical
// section.
func (t *windowTable) claim(start wm.Time) (c claim, ok bool) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	e := t.windows[start]
	if e == nil || !t.ready(start, e) {
		return claim{}, false
	}
	e.claimed = true
	for p := start; p < t.win.End(start); p = t.panes.End(p) {
		if _, last := t.panes.Covering(p); t.entries[p] == nil || last == start {
			continue
		}
		raw := t.take(p, func(r paneRun) bool {
			return r.from <= start && r.group != nil && r.group.level == 0
		})
		if len(raw) > 0 {
			c.seals = append(c.seals, t.owe(paneSeal{pane: p, from: start, raw: raw}))
		}
	}
	for w := start + t.slide; w < t.win.End(start); w += t.slide {
		if x := t.windows[w]; x != nil && t.ready(w, x) {
			c.next = append(c.next, w)
		}
	}
	if e.sealsDue == 0 {
		c.merge, c.runs = true, t.visible(start)
	}
	return c, true
}

// paneSealed lands a seal: merged — or, when the seal could not allocate
// it (nil), the runs themselves, outside any group — goes into the
// pane's entry, and the owers each owe one less. It returns the seals
// this started — of the group merged completed — and the claimed
// windows that now owe none, ascending, for the caller to gather and
// merge — and then to release the sealed runs' references when merged
// replaced them.
func (t *windowTable) paneSealed(s paneSeal, merged *kpa.KPA) (seals []paneSeal, toMerge []wm.Time) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	pe := t.entries[s.pane]
	if merged != nil {
		pe.runs = append(pe.runs, paneRun{k: merged, from: s.from, group: s.into})
		// Before the owers owe less: a window that owes cannot gather.
		seals = t.landed(s.into)
	}
	if merged == nil {
		for _, r := range s.raw {
			r.group = nil
			pe.runs = append(pe.runs, r)
		}
	}
	for _, w := range s.owers {
		e := t.windows[w]
		if e.sealsDue--; e.claimed && e.sealsDue == 0 {
			toMerge = append(toMerge, w)
		}
	}
	return seals, toMerge
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
// from the close request to now.
func (t *windowTable) retire(start wm.Time, now time.Time) time.Duration {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	var d time.Duration
	if e := t.windows[start]; e != nil && !e.closeT0.IsZero() {
		d = now.Sub(e.closeT0)
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

// sealsSkipped returns how many level-0 groups were left raw.
func (t *windowTable) sealsSkipped() int {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.skipped
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
