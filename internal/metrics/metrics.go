// Package metrics is the one instrumentation point every layer shares.
// A layer owns a Set and declares each series once, with its name, next
// to the code that produces the value; whatever reads the value — the
// /metrics handler, an end-of-run report — loads that same atomic. There
// is no snapshot struct to copy through and no renderer to extend.
//
// A Set is built by its owner before the owner is shared and is
// immutable afterwards, so registration takes no lock; Counters and
// Histograms are lock-free. Values that must be read together under the
// owner's lock, and series whose label sets change at run time
// (per-connection counters), are produced at scrape time by a Collect
// callback.
package metrics

import (
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a lock-free int64: a monotone counter when only added to, a
// gauge when also subtracted from or raised with Max.
type Counter struct{ v atomic.Int64 }

// Add adds n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Max raises the counter to v if it is below it (a high-water mark).
func (c *Counter) Max(v int64) {
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram layout: values 1..8 get a bucket each, and every later
// power-of-two interval (2^e, 2^(e+1)] is cut into 8 equal sub-buckets,
// so a bucket is never wider than an eighth of its lower bound and any
// quantile read from the upper bounds is high by less than 12.5 %.
const (
	subBuckets  = 8
	histBuckets = 61 * subBuckets // through int64's last power of two
	// Text exposition coalesces sub-buckets into powers of two between
	// these exponents: 1 µs to 17 s when the unit is nanoseconds.
	minLogBound, maxLogBound = 10, 34
)

// Histogram is a fixed array of atomic counts over non-negative int64
// observations (durations in nanoseconds, everywhere it is used today).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// bucketOf returns the bucket whose interval (lower, upper] holds v;
// values below 1 land in the first.
func bucketOf(v int64) int {
	if v <= subBuckets {
		return int(max(v, 1) - 1)
	}
	w := uint64(v - 1)
	e := bits.Len64(w) - 1 // >= 3
	return (e-2)*subBuckets | int(w>>(e-3))&(subBuckets-1)
}

// upperBound is the largest value bucket i holds.
func upperBound(i int) int64 {
	if i < subBuckets {
		return int64(i + 1)
	}
	u := uint64(subBuckets+1+i%subBuckets) << (i/subBuckets - 1)
	return int64(min(u, math.MaxInt64))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Quantile returns the upper bound of the bucket holding the
// floor(q·n)+1-th smallest of the n observations (the largest for q = 1)
// — at most 12.5 % above the true value — or 0 when there are none.
func (h *Histogram) Quantile(q float64) int64 {
	var counts [histBuckets]int64
	var n int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := min(int64(q*float64(n))+1, n)
	var cum int64
	for i, c := range counts {
		if cum += c; cum >= rank {
			return upperBound(i)
		}
	}
	return upperBound(histBuckets - 1)
}

// Emitter receives one scrape's samples as Prometheus text lines. name
// carries its labels: `streambox_mempool_used_bytes{tier="hbm"}`.
type Emitter struct{ buf []byte }

// Int emits one integer sample.
func (e *Emitter) Int(name string, v int64) {
	e.buf = append(append(e.buf, name...), ' ')
	e.buf = append(strconv.AppendInt(e.buf, v, 10), '\n')
}

// Float emits one floating-point sample, formatted as fmt's %v.
func (e *Emitter) Float(name string, v float64) {
	e.buf = append(append(e.buf, name...), ' ')
	e.buf = append(strconv.AppendFloat(e.buf, v, 'g', -1, 64), '\n')
}

// Set is one layer's series, rendered in declaration order. The zero
// value is ready to use.
type Set struct{ series []func(*Emitter) }

// Counter declares an integer series and returns the counter behind it.
func (s *Set) Counter(name string) *Counter {
	c := new(Counter)
	s.Collect(func(e *Emitter) { e.Int(name, c.Load()) })
	return c
}

// Histogram declares name_bucket{le=…} (cumulative, at powers of two),
// name_count and name_sum, and returns the histogram behind them.
func (s *Set) Histogram(name string) *Histogram {
	h := new(Histogram)
	var bounds []string
	for lg := minLogBound; lg <= maxLogBound; lg++ {
		bounds = append(bounds, name+`_bucket{le="`+strconv.Itoa(1<<lg)+`"}`)
	}
	inf, count, sum := name+`_bucket{le="+Inf"}`, name+"_count", name+"_sum"
	s.Collect(func(e *Emitter) {
		var cum int64
		i := 0
		for k, bound := range bounds {
			// le = 2^lg closes the sub-buckets of (2^(lg-1), 2^lg].
			for ; i < (minLogBound+k-2)*subBuckets; i++ {
				cum += h.buckets[i].Load()
			}
			e.Int(bound, cum)
		}
		for ; i < histBuckets; i++ {
			cum += h.buckets[i].Load()
		}
		e.Int(inf, cum)
		e.Int(count, cum)
		e.Int(sum, h.sum.Load())
	})
	return h
}

// Collect declares series computed at scrape time: fn runs on every
// render and emits whatever it reads, typically under its owner's lock.
func (s *Set) Collect(fn func(*Emitter)) { s.series = append(s.series, fn) }

var emitters = sync.Pool{New: func() any { return new(Emitter) }}

// WriteText renders the sets, in order, in the Prometheus text
// exposition format with a single Write.
func WriteText(w io.Writer, sets ...*Set) error {
	e := emitters.Get().(*Emitter)
	defer emitters.Put(e)
	e.buf = e.buf[:0]
	for _, s := range sets {
		for _, emit := range s.series {
			emit(e)
		}
	}
	_, err := w.Write(e.buf)
	return err
}
