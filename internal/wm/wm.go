// Package wm implements event-time windowing and watermark tracking
// (paper §2.1). Streams carry watermark records guaranteeing that all
// subsequent record timestamps are later; windows close when the
// watermark passes their end. The engine's target watermark — the next
// window to close — defines the critical path used for performance
// impact tags (paper §5).
package wm

import (
	"fmt"
	"sort"
	"sync"
)

// Time is an event timestamp in stream time units (the benchmarks use
// one unit per paper "event-time nanosecond"; only ordering and window
// arithmetic matter).
type Time = uint64

// Windowing describes fixed or sliding event-time windows.
type Windowing struct {
	// Size is the window length.
	Size Time
	// Slide is the distance between window starts; Slide == Size (or 0,
	// normalized to Size) is a fixed window.
	Slide Time
}

// Fixed returns a fixed (tumbling) windowing of the given size.
func Fixed(size Time) Windowing { return Windowing{Size: size, Slide: size} }

// Sliding returns a sliding windowing.
func Sliding(size, slide Time) Windowing { return Windowing{Size: size, Slide: slide} }

// Validate reports configuration errors.
func (w Windowing) Validate() error {
	if w.Size == 0 {
		return fmt.Errorf("wm: window size must be positive")
	}
	if w.Slide > w.Size {
		return fmt.Errorf("wm: slide %d larger than size %d", w.Slide, w.Size)
	}
	return nil
}

func (w Windowing) slide() Time {
	if w.Slide == 0 {
		return w.Size
	}
	return w.Slide
}

// IsFixed reports whether the windowing tumbles.
func (w Windowing) IsFixed() bool { return w.slide() == w.Size }

// WindowOf returns the start of the last window containing ts (for
// fixed windows, the unique one).
func (w Windowing) WindowOf(ts Time) Time {
	return ts / w.slide() * w.slide()
}

// WindowsOf returns the starts of every window containing ts, ascending
// (a single element for fixed windows).
func (w Windowing) WindowsOf(ts Time) []Time {
	s := w.slide()
	last := ts / s * s
	var starts []Time
	for start := last; ; start -= s {
		if start+w.Size > ts {
			starts = append(starts, start)
		}
		if start < s { // would underflow
			break
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts
}

// End returns the end (exclusive) of the window starting at start.
func (w Windowing) End(start Time) Time { return start + w.Size }

// Overlap returns ceil(Size/Slide): how many windows an interior
// timestamp belongs to — the sharing factor pane-based aggregation
// divides grouping work and state by.
func (w Windowing) Overlap() int {
	s := w.slide()
	return int((w.Size + s - 1) / s)
}

// Panes is the decomposition of event time into the non-overlapping
// panes windows are built from: paired panes (Krishnamurthy et al.,
// "On-the-fly sharing for streamed aggregation", SIGMOD 2006). Pane
// edges sit at every k·slide — where a window starts — and, when
// rem = Size mod slide is nonzero, at every k·slide + rem — where a
// window ends. Every window is therefore an exact union of whole
// panes, and no shape has more than two panes per slide (so at most
// 2·Overlap per window), however size and slide divide. When the slide
// divides the size the panes are the slides; a fixed window is its own
// single pane.
type Panes struct {
	size, slide, rem Time
}

// Panes returns the windowing's pane decomposition.
func (w Windowing) Panes() Panes {
	s := w.slide()
	return Panes{size: w.Size, slide: s, rem: w.Size % s}
}

// Index returns the ordinal of the pane containing ts; ordinals are
// dense and ascend with event time.
func (p Panes) Index(ts Time) uint64 {
	q := ts / p.slide
	switch {
	case p.rem == 0:
		return q
	case ts-q*p.slide >= p.rem:
		return 2*q + 1
	}
	return 2 * q
}

// Start returns the start of the pane with ordinal idx.
func (p Panes) Start(idx uint64) Time {
	if p.rem == 0 {
		return idx * p.slide
	}
	return idx/2*p.slide + idx%2*p.rem
}

// End returns the end (exclusive) of the pane starting at pane, which
// is also the start of the next pane.
func (p Panes) End(pane Time) Time {
	switch {
	case p.rem == 0:
		return pane + p.slide
	case pane%p.slide == 0:
		return pane + p.rem
	}
	return pane - p.rem + p.slide
}

// Covering returns the first and last starts of the windows containing
// the pane starting at pane — the multiples s of the slide with
// s <= pane and s+Size >= End(pane), clamped at window start 0. They
// are contiguous: every slide multiple in [first, last] covers it.
func (p Panes) Covering(pane Time) (first, last Time) {
	last = pane / p.slide * p.slide
	if end := p.End(pane); end > p.size {
		first = (end - p.size + p.slide - 1) / p.slide * p.slide
	}
	return first, last
}

// Boundaries returns the window-start boundaries covering [lo, hi],
// suitable as Partition key ranges for the Windowing operator.
func (w Windowing) Boundaries(lo, hi Time) []Time {
	s := w.slide()
	first := w.WindowOf(lo)
	var out []Time
	for b := first; b <= hi; b += s {
		out = append(out, b)
	}
	return out
}

// Tracker maintains the watermark of a stream (possibly merged from
// several inputs: the effective watermark is the minimum).
type Tracker struct {
	mu     sync.Mutex
	inputs map[int]Time
	single Time
	seen   bool
}

// NewTracker creates a tracker for n upstream inputs; n == 1 is the
// common single-source case.
func NewTracker(n int) *Tracker {
	t := &Tracker{}
	if n > 1 {
		t.inputs = make(map[int]Time, n)
		for i := 0; i < n; i++ {
			t.inputs[i] = 0
		}
	}
	return t
}

// Advance moves input i's watermark to ts (monotonically) and returns
// the effective stream watermark.
func (t *Tracker) Advance(i int, ts Time) Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inputs == nil {
		if ts > t.single {
			t.single = ts
		}
		t.seen = true
		return t.single
	}
	if ts > t.inputs[i] {
		t.inputs[i] = ts
	}
	t.seen = true
	return t.minLocked()
}

func (t *Tracker) minLocked() Time {
	first := true
	var min Time
	for _, v := range t.inputs {
		if first || v < min {
			min = v
			first = false
		}
	}
	return min
}
