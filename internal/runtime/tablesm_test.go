package runtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"streambox/internal/kpa"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// TestWindowTableStateMachine drives the window table single-threaded
// from a seeded operation generator — the interleavings the worker pool
// could produce, chosen by a random number generator instead of a
// scheduler — and checks its invariants after every step. The
// operations are the table's whole surface: register (in order, behind
// the stream, behind the watermark), fileRuns in any order, with panes
// left empty and runs whose keys make a level-0 group's seal compact or
// not, advance, claim of offered and of arbitrary windows, paneSealed
// landing a seal or failing it, gather, retire and published. What a
// window gathers is checked against the map oracle of panes_test.go:
// one record per filed run, folded into every window containing it that
// was open when its bundle registered. Every complete level-0 group of
// a pane one window reads must have sealed iff the seal rule, computed
// here from the runs filed for it, says so. The table runs on a virtual
// clock, and retire must return exactly the time since the watermark
// that requested the window's close.
//
// Each run of the test covers the next smSeedsPerRound seeds, so
// -count=N explores N rounds (CI runs many). A failure names its seed
// and the command that replays it.
func TestWindowTableStateMachine(t *testing.T) {
	round := smRound
	smRound++
	var eager, ruled [2]int
	defer func() {
		// The first round's seeds are fixed: they must reach a group of
		// groups sealing, not only groups of bundles, and, in panes one
		// window reads, groups the rule seals and groups it leaves raw.
		if round == 0 && !t.Failed() && (eager[0] == 0 || eager[1] == 0) {
			t.Fatalf("seeds 1-%d sealed %d groups of bundles and %d groups of groups; want both", smSeedsPerRound, eager[0], eager[1])
		}
		if round == 0 && !t.Failed() && (ruled[0] == 0 || ruled[1] == 0) {
			t.Fatalf("seeds 1-%d left %d groups of one-reader panes raw and sealed %d; want some of each", smSeedsPerRound, ruled[0], ruled[1])
		}
	}()
	for i := 1; i <= smSeedsPerRound; i++ {
		seed := int64(round*smSeedsPerRound + i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test ./internal/runtime -run 'TestWindowTableStateMachine/seed=%d$' -count=%d", seed, round+1)
				}
			}()
			m := newTableSM(t, seed)
			m.run()
			eager[0], eager[1] = eager[0]+m.eager[0], eager[1]+m.eager[1]
			ruled[0], ruled[1] = ruled[0]+m.ruled[0], ruled[1]+m.ruled[1]
			t.Logf("%+v, word fold %v, stream moves once in %d bundles, 1 seal in %d fails, 1 filing in %d empty, 1 run in %d wide: %d windows, %d runs filed, %d+%d groups sealed, in one-reader panes %d ruled raw and %d sealed",
				m.win, m.tab.folds, m.drift, m.failOdds, m.emptyOdd, m.wideOdd, len(m.want), len(m.recs), m.eager[0], m.eager[1],
				m.ruled[0], m.ruled[1])
		})
	}
}

const smSeedsPerRound = 8

// smRound counts the runs of the test in this process (-count).
var smRound int

// smBundle is a registered bundle that has yet to file.
type smBundle struct {
	reg registration
}

// tableSM is the model beside the table: who holds which run, what each
// run stands for, and what each window must end up merging.
type tableSM struct {
	t        *testing.T
	rng      *rand.Rand
	ticks    *rand.Rand // the virtual clock's steps: apart, so rng's operations stay the seed's
	now      time.Time  // the virtual clock
	win      wm.Windowing
	tab      *windowTable
	pos      wm.Time // where the stream is
	drift    int     // the stream moves on once in drift registrations
	failOdds int     // a seal fails once in failOdds (0: never)
	emptyOdd int     // a bundle files nothing for a pane once in emptyOdd
	wideOdd  int     // a run of an odd pane has keys far apart once in wideOdd (0: never)

	unfiled []smBundle
	offers  []wm.Time
	seals   []paneSeal
	merging map[wm.Time][]*kpa.KPA
	retired []wm.Time

	nextID    uint64
	ids       map[*kpa.KPA][]uint64 // the filed runs a run stands for
	taken     map[*kpa.KPA]bool     // out of the table, in a seal
	all       []*kpa.KPA
	recs      []rec              // one record per filed run, for the oracle
	firstOpen map[uint64]wm.Time // per record: first window open at registration
	want      map[wm.Time]map[uint64]bool
	gathered  map[wm.Time]map[uint64]bool
	published map[wm.Time]int
	busy      map[wm.Time]int  // per pane: bundles yet to file + seals in flight
	failed    map[wm.Time]bool // per pane: a seal failed
	sealedWM  wm.Time
	eager     [2]int // seals of complete groups seen, by level (0, higher)

	target    wm.Time
	requested map[wm.Time]time.Time // per window: when the watermark asked it to close
	paneFrom  map[wm.Time]wm.Time   // per pane: the `from` of its first bundle
	groups    map[*runGroup]*smGroup
	skips     int    // level-0 groups the rule left raw
	ruled     [2]int // complete level-0 groups of one-reader panes, by decision (raw, sealed)
}

// smGroup is the model's account of a level-0 group: its members filed
// and what the seal rule reads of their runs.
type smGroup struct {
	filed       int
	pairs, keys int
	lo, hi      uint64
}

func newTableSM(t *testing.T, seed int64) *tableSM {
	rng := rand.New(rand.NewSource(seed))
	shapes := []wm.Windowing{
		wm.Fixed(100), wm.Sliding(100, 50), wm.Sliding(100, 25), wm.Sliding(70, 20), wm.Sliding(120, 10),
	}
	win := shapes[rng.Intn(len(shapes))]
	return &tableSM{
		t: t, rng: rng, ticks: rand.New(rand.NewSource(^seed)), now: time.Unix(1e9, 0), win: win,
		drift:     []int{3, 12, 60, 400}[rng.Intn(4)],
		failOdds:  []int{0, 50, 6}[rng.Intn(3)],
		emptyOdd:  []int{3, 10, 100}[rng.Intn(3)],
		wideOdd:   []int{0, 4, 40}[rng.Intn(3)],
		tab:       newWindowTable(win, rng.Intn(4) != 0),
		merging:   make(map[wm.Time][]*kpa.KPA),
		ids:       make(map[*kpa.KPA][]uint64),
		taken:     make(map[*kpa.KPA]bool),
		firstOpen: make(map[uint64]wm.Time),
		want:      make(map[wm.Time]map[uint64]bool),
		gathered:  make(map[wm.Time]map[uint64]bool),
		published: make(map[wm.Time]int),
		busy:      make(map[wm.Time]int),
		failed:    make(map[wm.Time]bool),
		requested: make(map[wm.Time]time.Time),
		paneFrom:  make(map[wm.Time]wm.Time),
		groups:    make(map[*runGroup]*smGroup),
	}
}

func (m *tableSM) run() {
	steps := 4000 * (1 + m.rng.Intn(4))
	for i := 0; i < steps; i++ {
		m.step()
		m.check(fmt.Sprintf("step %d", i))
	}
	// Drain: everything files, the watermark passes everything, and every
	// hand-off runs to completion in random order.
	for len(m.unfiled) > 0 {
		m.file()
	}
	m.advanceTo(^wm.Time(0) - m.win.Size)
	for i := 0; len(m.offers)+len(m.seals)+len(m.merging)+len(m.retired) > 0; i++ {
		if i == 1<<20 {
			m.t.Fatalf("drain stuck: %d offers, %d seals, %d merging, %d retired, %d windows in the table",
				len(m.offers), len(m.seals), len(m.merging), len(m.retired), len(m.tab.windows))
		}
		switch m.rng.Intn(4) {
		case 0:
			m.claim()
		case 1:
			m.land()
		case 2:
			m.retire()
		default:
			m.publish()
		}
		m.check("drain")
	}
	if len(m.tab.windows) != 0 || len(m.tab.entries) != 0 {
		m.t.Fatalf("drained with %d windows and %d panes left in the table", len(m.tab.windows), len(m.tab.entries))
	}
	for _, k := range m.all {
		if k.Refs() > 0 {
			m.t.Fatalf("run %v (records %v) still holds %d references", k, m.ids[k], k.Refs())
		}
	}
	// The oracle, end to end: every window merged exactly the records the
	// reference folds into it, less those that arrived after it sealed.
	ref, _ := reference(m.win, ops.Count(), m.recs)
	for w, keys := range ref {
		for id := range keys {
			if m.firstOpen[id] <= w && !m.gathered[w][id] {
				m.t.Fatalf("window %d never merged record %d", w, id)
			}
		}
	}
	for w, got := range m.gathered {
		for id := range got {
			if _, ok := ref[w][id]; !ok || m.firstOpen[id] > w {
				m.t.Fatalf("window %d merged record %d, which the reference does not give it", w, id)
			}
		}
		if m.published[w] != 1 {
			m.t.Fatalf("window %d published %d times", w, m.published[w])
		}
	}
	for w := range m.want {
		if m.published[w] != 1 {
			m.t.Fatalf("window %d published %d times", w, m.published[w])
		}
	}
}

func (m *tableSM) step() {
	m.now = m.now.Add(time.Duration(m.ticks.Intn(1000)) * time.Microsecond)
	switch n := m.rng.Intn(96); {
	case n < 34:
		m.register()
	case n < 64:
		m.file()
	case n < 68:
		m.advance()
	case n < 76:
		m.claim()
	case n < 86:
		m.land()
	case n < 91:
		m.retire()
	default:
		m.publish()
	}
}

func (m *tableSM) register() {
	lo := m.pos
	if m.rng.Intn(5) == 0 && lo > 0 { // behind the stream, perhaps behind the watermark
		lo -= min(lo, wm.Time(m.rng.Intn(150)))
	}
	hi := lo + wm.Time(m.rng.Intn(30))
	if m.rng.Intn(m.drift) == 0 {
		m.pos += wm.Time(1 + m.rng.Intn(8))
	}
	reg := m.tab.register(lo, hi)
	if len(reg.wins) == 0 {
		if reg.groups != nil {
			m.t.Fatalf("late bundle [%d,%d] took slots %v", lo, hi, reg.groups)
		}
		return
	}
	for _, w := range reg.wins {
		if m.published[w] > 0 || m.gathered[w] != nil {
			m.t.Fatalf("bundle [%d,%d] registered with window %d, which has merged", lo, hi, w)
		}
		if m.want[w] == nil {
			m.want[w] = make(map[uint64]bool)
		}
	}
	for _, g := range reg.groups {
		m.busy[g.pane]++
		if _, ok := m.paneFrom[g.pane]; !ok {
			m.paneFrom[g.pane] = g.from
		}
		if m.groups[g] == nil {
			m.groups[g] = &smGroup{}
		}
	}
	m.unfiled = append(m.unfiled, smBundle{reg})
}

// newRun is a run of n pairs standing for the filed runs ids.
func (m *tableSM) newRun(refs, n int, ids []uint64) *kpa.KPA {
	k := sizedRun(m.t, n)
	k.Retain(refs - 1)
	m.ids[k] = ids
	m.all = append(m.all, k)
	return k
}

// file lands a registered bundle, any of them: extractions finish in any
// order. Each run draws its pairs, distinct keys and key range, and each
// level-0 group the filing completes is decided by the rule on them.
func (m *tableSM) file() {
	if len(m.unfiled) == 0 {
		return
	}
	i := m.rng.Intn(len(m.unfiled))
	b := m.unfiled[i]
	m.unfiled = slices.Delete(m.unfiled, i, i+1)
	var runs []filedRun
	for _, g := range b.reg.groups {
		m.busy[g.pane]--
		if m.rng.Intn(m.emptyOdd) == 0 {
			continue
		}
		from, open := m.tab.openCovering(g.pane, b.reg.wins[0])
		if from != g.from {
			m.t.Fatalf("pane %d: group from %d, bundle from %d", g.pane, g.from, from)
		}
		id := m.nextID
		m.nextID++
		m.recs = append(m.recs, rec{key: id, val: 1, ts: g.pane})
		m.firstOpen[id] = b.reg.wins[0]
		for _, w := range m.win.WindowsOf(g.pane) {
			if w >= b.reg.wins[0] {
				m.want[w][id] = true
			}
		}
		pairs := 1 + m.rng.Intn(4)
		keys := 1 + m.rng.Intn(pairs)
		lo := uint64(m.rng.Intn(16))
		// Runs of even panes are dense, so whole panes seal.
		if m.wideOdd > 0 && m.tab.panes.Index(g.pane)%2 == 1 && m.rng.Intn(m.wideOdd) == 0 {
			lo = uint64(m.rng.Intn(1<<20)) << 40
		}
		hi := lo + uint64(keys-1+m.rng.Intn(8))
		mg := m.groups[g]
		if mg.pairs == 0 {
			mg.lo, mg.hi = lo, hi
		} else {
			mg.lo, mg.hi = min(mg.lo, lo), max(mg.hi, hi)
		}
		mg.pairs += pairs
		mg.keys += keys
		runs = append(runs, filedRun{paneRun{k: m.newRun(open, pairs, []uint64{id}), from: from, group: g}, g.pane, keys, lo, hi})
	}
	seals, toClose := m.tab.fileRuns(b.reg, runs)
	for _, g := range b.reg.groups {
		mg := m.groups[g]
		if mg.filed++; mg.filed < mergeFanIn {
			continue
		}
		// The group is complete: in a pane one window reads, the rule
		// decides it now, from its own runs.
		if _, last := m.tab.panes.Covering(g.pane); m.paneFrom[g.pane] != last {
			continue
		}
		bound := min(mg.keys, int(min(mg.hi-mg.lo, 1<<20))+1)
		seal := m.tab.folds && 2*bound <= mg.pairs
		sealed := slices.ContainsFunc(seals, func(s paneSeal) bool { return s.into != nil && s.raw[0].group == g })
		if seal {
			m.ruled[1]++
		} else {
			m.ruled[0]++
			m.skips++
		}
		if sealed != (seal && mg.pairs > 0) {
			m.t.Fatalf("pane %d: level-0 group of %d pairs, %d keys in [%d, %d] sealed %v; the rule says %v",
				g.pane, mg.pairs, mg.keys, mg.lo, mg.hi, sealed, seal)
		}
		for _, r := range m.tab.entries[g.pane].runs {
			if r.group == g {
				m.t.Fatalf("pane %d: complete level-0 group still holds run %v", g.pane, m.ids[r.k])
			}
		}
	}
	m.enqueue(seals, toClose)
}

// enqueue takes what the table handed back: seals to run, closes to
// offer.
func (m *tableSM) enqueue(seals []paneSeal, toClose []wm.Time) {
	for _, s := range seals {
		m.busy[s.pane]++
		if s.into != nil {
			m.eager[min(s.into.level-1, 1)]++
			if len(s.raw) > mergeFanIn {
				m.t.Fatalf("pane %d: a group of %d runs", s.pane, len(s.raw))
			}
		}
		for _, r := range s.raw {
			if m.taken[r.k] {
				m.t.Fatalf("pane %d: run %v taken by two seals", s.pane, m.ids[r.k])
			}
			m.taken[r.k] = true
			if want := len(s.owers); r.k.Refs() != want {
				m.t.Fatalf("pane %d: sealed run holds %d references for %d owing windows %v", s.pane, r.k.Refs(), want, s.owers)
			}
		}
		for _, w := range s.owers {
			if m.gathered[w] != nil {
				m.t.Fatalf("pane %d: window %d owes a seal after it gathered", s.pane, w)
			}
		}
		m.seals = append(m.seals, s)
	}
	if !slices.IsSorted(toClose) {
		m.t.Fatalf("closes offered out of order: %v", toClose)
	}
	m.offers = append(m.offers, toClose...)
}

func (m *tableSM) advance() {
	m.advanceTo(m.pos - min(m.pos, wm.Time(m.rng.Intn(120))) + wm.Time(m.rng.Intn(40)))
}

// advanceTo advances the watermark to w on the virtual clock: every
// window in the table that w seals for the first time has its close
// requested now.
func (m *tableSM) advanceTo(w wm.Time) {
	if w > m.target {
		m.target = w
		for start := range m.tab.windows {
			if _, ok := m.requested[start]; !ok && m.win.End(start) <= w {
				m.requested[start] = m.now
			}
		}
	}
	m.enqueue(nil, m.tab.advance(w, m.now))
}

// claim offers a close: one the table asked for, or — the runtime drops
// those — any window at all.
func (m *tableSM) claim() {
	var w wm.Time
	if len(m.offers) > 0 && m.rng.Intn(8) != 0 {
		i := m.rng.Intn(len(m.offers))
		w = m.offers[i]
		m.offers = slices.Delete(m.offers, i, i+1)
	} else {
		w = m.pos / m.tab.slide * m.tab.slide
		w -= min(w, wm.Time(m.rng.Intn(6))*m.tab.slide)
	}
	e := m.tab.windows[w]
	was := e != nil && e.claimed
	c, ok := m.tab.claim(w)
	if !ok {
		return
	}
	if was || e.pending != 0 || !e.closeRequested {
		m.t.Fatalf("window %d claimed (already %v, pending %d, requested %v)", w, was, e.pending, e.closeRequested)
	}
	for s := w; s >= m.tab.slide && s-m.tab.slide+m.win.Size > w; {
		s -= m.tab.slide
		if x := m.tab.windows[s]; x != nil && !x.claimed {
			m.t.Fatalf("window %d claimed before window %d, which shares a pane with it", w, s)
		}
	}
	if c.merge != (e.sealsDue == 0) {
		m.t.Fatalf("window %d: merge %v while it owes %d seals", w, c.merge, e.sealsDue)
	}
	m.enqueue(c.seals, c.next)
	if c.merge {
		m.gather(w, c.runs)
	}
}

// land finishes a seal, any of them, well or badly.
func (m *tableSM) land() {
	if len(m.seals) == 0 {
		return
	}
	i := m.rng.Intn(len(m.seals))
	s := m.seals[i]
	m.seals = slices.Delete(m.seals, i, i+1)
	m.busy[s.pane]--
	var merged *kpa.KPA
	if m.failOdds == 0 || m.rng.Intn(m.failOdds) != 0 {
		var ids []uint64
		in := 0
		for _, r := range s.raw {
			ids = append(ids, m.ids[r.k]...)
			in += r.k.Len()
		}
		merged = m.newRun(len(s.owers), in, ids)
	} else {
		m.failed[s.pane] = true
	}
	next, toMerge := m.tab.paneSealed(s, merged)
	for _, r := range s.raw {
		delete(m.taken, r.k)
		if merged == nil {
			continue
		}
		for range s.owers {
			r.k.Destroy()
		}
		if r.k.Refs() > 0 {
			m.t.Fatalf("pane %d: sealed run %v still referenced after its %d owers let go", s.pane, m.ids[r.k], len(s.owers))
		}
	}
	m.enqueue(next, nil)
	if !slices.IsSorted(toMerge) {
		m.t.Fatalf("merges released out of order: %v", toMerge)
	}
	for _, w := range toMerge {
		m.gather(w, m.tab.gather(w))
	}
}

// gather checks what a window is handed to merge against the oracle.
func (m *tableSM) gather(w wm.Time, runs []*kpa.KPA) {
	if m.gathered[w] != nil {
		m.t.Fatalf("window %d gathered twice", w)
	}
	got := make(map[uint64]bool)
	for _, k := range runs {
		if m.taken[k] || k.Refs() <= 0 {
			m.t.Fatalf("window %d handed run %v: in a seal %v, destroyed %v", w, m.ids[k], m.taken[k], k.Refs() <= 0)
		}
		for _, id := range m.ids[k] {
			if got[id] {
				m.t.Fatalf("window %d handed record %d twice", w, id)
			}
			got[id] = true
		}
	}
	for id := range m.want[w] {
		if !got[id] {
			m.t.Fatalf("window %d not handed record %d", w, id)
		}
	}
	if len(got) != len(m.want[w]) {
		m.t.Fatalf("window %d handed %d records, the oracle folds %d into it", w, len(got), len(m.want[w]))
	}
	m.gathered[w] = got
	m.merging[w] = runs
}

// retire finishes a merge, any of them: the window lets go of every run
// it gathered.
func (m *tableSM) retire() {
	if len(m.merging) == 0 {
		return
	}
	wins := make([]wm.Time, 0, len(m.merging))
	for w := range m.merging {
		wins = append(wins, w)
	}
	slices.Sort(wins) // map order must not leak into a seeded run
	w := wins[m.rng.Intn(len(wins))]
	for _, k := range m.merging[w] {
		k.Destroy()
	}
	if d, want := m.tab.retire(w, m.now), m.now.Sub(m.requested[w]); d != want {
		m.t.Fatalf("window %d retired %v after its close request, want %v", w, d, want)
	}
	delete(m.merging, w)
	m.retired = append(m.retired, w)
}

func (m *tableSM) publish() {
	if len(m.retired) == 0 {
		return
	}
	i := m.rng.Intn(len(m.retired))
	w := m.retired[i]
	m.retired = slices.Delete(m.retired, i, i+1)
	m.tab.published(w)
	m.published[w]++
}

// check is the per-step invariant sweep.
func (m *tableSM) check(when string) {
	if w := m.tab.sealedWatermark(); w < m.sealedWM {
		m.t.Fatalf("%s: sealed watermark fell %d -> %d", when, m.sealedWM, w)
	} else {
		m.sealedWM = w
	}
	for w, n := range m.published {
		if n != 1 {
			m.t.Fatalf("%s: window %d published %d times", when, w, n)
		}
	}
	if got := m.tab.sealsSkipped(); got != m.skips {
		m.t.Fatalf("%s: %d level-0 groups left raw, the rule leaves %d", when, got, m.skips)
	}
	for p, pe := range m.tab.entries {
		for _, r := range pe.runs {
			if m.taken[r.k] {
				m.t.Fatalf("%s: pane %d holds run %v, which a seal took", when, p, m.ids[r.k])
			}
			// A run outlives its readers in the table only while an earlier
			// window, which never saw it, keeps the pane's entry.
			if _, last := m.tab.panes.Covering(p); r.k.Refs() <= 0 {
				for w := r.from; w <= last; w += m.tab.slide {
					if m.tab.windows[w] != nil {
						m.t.Fatalf("%s: pane %d holds destroyed run %v, which window %d is still to read", when, p, m.ids[r.k], w)
					}
				}
			}
		}
		if m.busy[p] != 0 {
			continue
		}
		perGroup := make(map[*runGroup]int)
		type seq struct {
			level int
			from  wm.Time
		}
		perSeq := make(map[seq]int)
		for _, r := range pe.runs {
			if r.group != nil {
				perGroup[r.group]++
				perSeq[seq{r.group.level, r.group.from}]++
			}
		}
		// Once every bundle has filed and every seal has landed, no group
		// holds a full group's worth of runs, and — unless a failed seal
		// stranded the group it was to join — a pane has one group with
		// runs per level and `from`: fewer than mergeFanIn grouped runs of
		// each. A group left raw holds none: its runs are
		// outside any group.
		for g, n := range perGroup {
			if n >= mergeFanIn {
				m.t.Fatalf("%s: pane %d at rest: a level-%d group holds %d runs", when, p, g.level, n)
			}
		}
		for q, n := range perSeq {
			if n >= mergeFanIn && !m.failed[p] {
				m.t.Fatalf("%s: pane %d at rest holds %d runs of level %d from window %d", when, p, n, q.level, q.from)
			}
		}
	}
}
