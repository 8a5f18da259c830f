package wm

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// Window identifies one window instance.
type Window struct {
	Start Time
	End   Time
}

func (w Window) String() string { return fmt.Sprintf("[%d,%d)", w.Start, w.End) }

// Contains reports whether ts falls inside the window.
func (w Window) Contains(ts Time) bool { return ts >= w.Start && ts < w.End }

// CoveringWindows returns how many windows contain the pane starting at
// pane: the reference count a shared pane run carries when none of them
// has closed yet.
func (w Windowing) CoveringWindows(pane Time) int {
	first, last := w.Panes().Covering(pane)
	return int((last-first)/w.slide()) + 1
}

// Current returns the effective watermark.
func (t *Tracker) Current() Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inputs == nil {
		return t.single
	}
	return t.minLocked()
}

func TestWindowingValidate(t *testing.T) {
	if err := Fixed(10).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Sliding(10, 5).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Windowing{Size: 0}).Validate(); err == nil {
		t.Error("zero size must fail")
	}
	if err := Sliding(10, 20).Validate(); err == nil {
		t.Error("slide > size must fail")
	}
}

func TestFixedWindowOf(t *testing.T) {
	w := Fixed(10)
	cases := []struct{ ts, want Time }{
		{0, 0}, {9, 0}, {10, 10}, {15, 10}, {20, 20},
	}
	for _, c := range cases {
		if got := w.WindowOf(c.ts); got != c.want {
			t.Errorf("WindowOf(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
	if !w.IsFixed() {
		t.Error("Fixed must be fixed")
	}
	if w.End(10) != 20 {
		t.Error("End wrong")
	}
}

func TestSlidingWindowsOf(t *testing.T) {
	w := Sliding(10, 5)
	if w.IsFixed() {
		t.Error("sliding must not be fixed")
	}
	got := w.WindowsOf(12)
	// ts=12 belongs to windows starting at 5 and 10.
	want := []Time{5, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WindowsOf(12) = %v, want %v", got, want)
	}
	// Near zero: no underflow.
	got = w.WindowsOf(3)
	if !reflect.DeepEqual(got, []Time{0}) {
		t.Fatalf("WindowsOf(3) = %v", got)
	}
	got = w.WindowsOf(7)
	if !reflect.DeepEqual(got, []Time{0, 5}) {
		t.Fatalf("WindowsOf(7) = %v", got)
	}
}

func TestFixedWindowsOfSingle(t *testing.T) {
	w := Fixed(10)
	got := w.WindowsOf(15)
	if !reflect.DeepEqual(got, []Time{10}) {
		t.Fatalf("WindowsOf(15) = %v", got)
	}
}

func TestBoundaries(t *testing.T) {
	w := Fixed(10)
	got := w.Boundaries(12, 35)
	want := []Time{10, 20, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Boundaries = %v, want %v", got, want)
	}
	if b := w.Boundaries(5, 5); !reflect.DeepEqual(b, []Time{0}) {
		t.Fatalf("point boundaries = %v", b)
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: 10, End: 20}
	if !w.Contains(10) || !w.Contains(19) {
		t.Error("inclusive start / last tick")
	}
	if w.Contains(20) || w.Contains(9) {
		t.Error("exclusive end / before start")
	}
	if w.String() != "[10,20)" {
		t.Errorf("String = %q", w.String())
	}
}

func TestTrackerSingleInput(t *testing.T) {
	tr := NewTracker(1)
	if tr.Current() != 0 {
		t.Error("initial watermark must be 0")
	}
	if got := tr.Advance(0, 100); got != 100 {
		t.Errorf("advance = %d", got)
	}
	// Monotone: regressions are ignored.
	if got := tr.Advance(0, 50); got != 100 {
		t.Errorf("watermark regressed to %d", got)
	}
}

func TestTrackerMultiInputMin(t *testing.T) {
	tr := NewTracker(3)
	tr.Advance(0, 100)
	tr.Advance(1, 50)
	if tr.Current() != 0 {
		t.Errorf("watermark = %d, want 0 (input 2 silent)", tr.Current())
	}
	tr.Advance(2, 80)
	if tr.Current() != 50 {
		t.Errorf("watermark = %d, want min 50", tr.Current())
	}
	tr.Advance(1, 90)
	if tr.Current() != 80 {
		t.Errorf("watermark = %d, want 80", tr.Current())
	}
}

// Property: every window returned by WindowsOf contains ts, and the
// fixed-window special case matches WindowOf.
func TestPropWindowsOfContain(t *testing.T) {
	f := func(rawTs uint32, rawSize, rawSlide uint8) bool {
		size := Time(rawSize%50) + 1
		slide := Time(rawSlide%uint8(size)) + 1
		w := Sliding(size, slide)
		ts := Time(rawTs % 10000)
		wins := w.WindowsOf(ts)
		if len(wins) == 0 {
			return false
		}
		for _, s := range wins {
			if !(Window{Start: s, End: w.End(s)}).Contains(ts) {
				return false
			}
		}
		// Count check: approximately size/slide windows contain ts.
		return len(wins) <= int(size/slide)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// panesOf walks the pane starts inside [lo, hi) with Panes.End.
func panesOf(p Panes, lo, hi Time) []Time {
	var out []Time
	for pane := lo; pane < hi; pane = p.End(pane) {
		out = append(out, pane)
	}
	return out
}

// TestPaneGeometry pins the paired-pane decomposition on divisible and
// non-divisible size/slide combinations: the pane edges over the first
// slides and the panes one window spans.
func TestPaneGeometry(t *testing.T) {
	cases := []struct {
		win    Windowing
		edges  []Time // first pane starts
		perWin int
	}{
		{Sliding(100, 50), []Time{0, 50, 100, 150}, 2},
		{Sliding(100, 25), []Time{0, 25, 50, 75}, 4},
		{Sliding(700, 200), []Time{0, 100, 200, 300, 400}, 7},
		{Sliding(96, 7), []Time{0, 5, 7, 12, 14, 19}, 27},
		{Sliding(1_000_000, 333_333), []Time{0, 1, 333_333, 333_334, 666_666}, 7},
		{Fixed(100), []Time{0, 100, 200}, 1},
	}
	for _, c := range cases {
		p := c.win.Panes()
		for i, e := range c.edges {
			if got := p.Start(uint64(i)); got != e {
				t.Fatalf("%+v: pane %d starts at %d, want %d", c.win, i, got, e)
			}
			if got := p.Index(e); got != uint64(i) {
				t.Fatalf("%+v: ts %d in pane %d, want %d", c.win, e, got, i)
			}
			if i+1 < len(c.edges) && p.End(e) != c.edges[i+1] {
				t.Fatalf("%+v: pane %d ends at %d, want %d", c.win, e, p.End(e), c.edges[i+1])
			}
		}
		start := 3 * c.win.slide()
		if got := len(panesOf(p, start, c.win.End(start))); got != c.perWin {
			t.Fatalf("%+v: panes/window %d, want %d", c.win, got, c.perWin)
		}
	}
}

// coveringBrute counts the window starts s (multiples of the slide,
// clamped at 0) whose [s, s+Size) fully contains [pane, end).
func coveringBrute(win Windowing, pane, end Time) int {
	n := 0
	for s := Time(0); s <= pane; s += win.slide() {
		if s+win.Size >= end {
			n++
		}
	}
	return n
}

// TestCoveringWindowsProperty cross-checks CoveringWindows against
// direct enumeration on the shapes the runtime tests use.
func TestCoveringWindowsProperty(t *testing.T) {
	for _, win := range []Windowing{
		Sliding(100, 50), Sliding(100, 25), Sliding(700, 200),
		Sliding(96, 7), Sliding(10, 1), Fixed(100),
	} {
		p := win.Panes()
		for _, pane := range panesOf(p, 0, 5*win.Size) {
			if got, want := win.CoveringWindows(pane), coveringBrute(win, pane, p.End(pane)); got != want {
				t.Fatalf("%+v pane %d: covering %d, want %d", win, pane, got, want)
			}
		}
	}
}

// TestPairedPanesProperty checks the decomposition over random
// (Size, slide): panes tile event time (Index, Start and End agree on
// every timestamp), every window is an exact union of whole panes and
// spans at most 2·Overlap of them, and CoveringWindows equals a
// brute-force count.
func TestPairedPanesProperty(t *testing.T) {
	f := func(rawSize, rawSlide uint8) bool {
		size := Time(rawSize) + 1
		win := Sliding(size, Time(rawSlide)%size+1)
		p := win.Panes()
		horizon := 4 * size
		panes := panesOf(p, 0, horizon)
		for i, pane := range panes {
			end := p.End(pane)
			if end <= pane || p.Start(uint64(i)) != pane {
				return false
			}
			for ts := pane; ts < end; ts++ {
				if p.Index(ts) != uint64(i) {
					return false
				}
			}
			if win.CoveringWindows(pane) != coveringBrute(win, pane, end) {
				return false
			}
		}
		for start := Time(0); win.End(start) <= horizon; start += win.slide() {
			in := panesOf(p, start, win.End(start))
			// Walking whole panes from the window start lands exactly on
			// its end: the window is a union of panes.
			if p.Start(p.Index(start)) != start || p.End(in[len(in)-1]) != win.End(start) {
				return false
			}
			if len(in) > 2*win.Overlap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlap pins the sharing factor.
func TestOverlap(t *testing.T) {
	for _, c := range []struct {
		win  Windowing
		want int
	}{
		{Fixed(100), 1}, {Sliding(100, 50), 2}, {Sliding(100, 25), 4},
		{Sliding(700, 200), 4}, {Sliding(100, 100), 1},
	} {
		if got := c.win.Overlap(); got != c.want {
			t.Fatalf("%+v: overlap %d, want %d", c.win, got, c.want)
		}
	}
}
