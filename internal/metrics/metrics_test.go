package metrics

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestBucketsTileTheRange: every value falls in the bucket whose bounds
// enclose it, bounds ascend, and no bucket is wider than an eighth of
// its lower bound.
func TestBucketsTileTheRange(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		lo, hi := upperBound(i-1), upperBound(i)
		if hi <= lo {
			t.Fatalf("bucket %d: bounds (%d, %d] do not ascend", i, lo, hi)
		}
		if i >= subBuckets && i < histBuckets-1 && (hi-lo)*subBuckets > lo {
			t.Fatalf("bucket %d: (%d, %d] is wider than lower/8", i, lo, hi)
		}
		for _, v := range []int64{lo + 1, hi} {
			if got := bucketOf(v); got != i {
				t.Fatalf("bucketOf(%d) = %d, want %d with bounds (%d, %d]", v, got, i, lo, hi)
			}
		}
	}
	for _, v := range []int64{-5, 0, 1} {
		if bucketOf(v) != 0 {
			t.Fatalf("bucketOf(%d) = %d, want 0", v, bucketOf(v))
		}
	}
}

// TestQuantileWithinAnEighth: against a sorted reference, every quantile
// is at or above the true value and less than 12.5 % above it.
func TestQuantileWithinAnEighth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 5000} {
		var h Histogram
		ref := make([]int64, n)
		for i := range ref {
			// Log-uniform over 1 ns .. ~18 min, the shape of latencies.
			ref[i] = 1 + rng.Int63n(1<<uint(1+rng.Intn(40)))
			h.Observe(ref[i])
		}
		slices.Sort(ref)
		if h.Count() != int64(n) {
			t.Fatalf("count %d, want %d", h.Count(), n)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			want := ref[min(int(q*float64(n)), n-1)]
			got := h.Quantile(q)
			if got < want || float64(got-want) > 0.125*float64(want) {
				t.Fatalf("n=%d q=%v: got %d, reference %d (off by %.1f %%)", n, q, got, want, 100*float64(got-want)/float64(want))
			}
		}
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 {
		t.Fatal("quantile of an empty histogram is not 0")
	}
}

// TestConcurrentAddObserve is the -race leg: counters, high-water marks
// and histograms updated from many goroutines while a scraper renders.
func TestConcurrentAddObserve(t *testing.T) {
	var s Set
	c := s.Counter("c_total")
	peak := s.Counter("c_peak")
	h := s.Histogram("h_ns")
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				peak.Max(c.Add(1))
				h.Observe(int64(i * (w + 1)))
			}
		}()
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := WriteText(&buf, &s); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	if c.Load() != workers*each || peak.Load() != workers*each || h.Count() != workers*each {
		t.Fatalf("counter %d, peak %d, observations %d, want %d each", c.Load(), peak.Load(), h.Count(), workers*each)
	}
}

// TestWriteTextParses: every line is `name[{labels}] value`, sets render
// in order, histogram buckets are cumulative and end at the count.
func TestWriteTextParses(t *testing.T) {
	var a, b Set
	a.Counter(`bytes{tier="hbm"}`).Add(1 << 40)
	a.Collect(func(e *Emitter) {
		e.Float("util", 0.25)
		e.Float("big", 1234567)
	})
	h := b.Histogram("lat_ns")
	for _, v := range []int64{3, 900, 1024, 1025, 1 << 20, 1 << 40} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, &a, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	vals := make(map[string]float64)
	var order []string
	for _, line := range lines {
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil || name == "" {
			t.Fatalf("unparseable line %q", line)
		}
		vals[name] = v
		order = append(order, name)
	}
	if got := strings.Join(order[:4], " "); got != `bytes{tier="hbm"} util big lat_ns_bucket{le="1024"}` {
		t.Fatalf("series order: %s", got)
	}
	if lines[0] != `bytes{tier="hbm"} 1099511627776` || lines[1] != "util 0.25" || lines[2] != "big 1.234567e+06" {
		t.Fatalf("sample text form: %q", lines[:3])
	}
	for name, want := range map[string]float64{
		`lat_ns_bucket{le="1024"}`:    3, // 3, 900 and 1024 itself
		`lat_ns_bucket{le="2048"}`:    4,
		`lat_ns_bucket{le="1048576"}`: 5,
		`lat_ns_bucket{le="+Inf"}`:    6,
		"lat_ns_count":                6,
		"lat_ns_sum":                  3 + 900 + 1024 + 1025 + 1<<20 + 1<<40,
	} {
		if vals[name] != want {
			t.Fatalf("%s = %v, want %v\n%s", name, vals[name], want, buf.String())
		}
	}
	prev := 0.0
	for _, name := range order {
		if strings.HasPrefix(name, "lat_ns_bucket") {
			if vals[name] < prev {
				t.Fatalf("bucket %s = %v below the one before it (%v)", name, vals[name], prev)
			}
			prev = vals[name]
		}
	}
}
