package streambox_test

import (
	"cmp"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	streambox "streambox"
	"streambox/internal/ops"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simulated.golden from this build")

// goldenRuns are the public pipelines the simulated backend is pinned
// on: every keyed aggregate on fixed windows over all 64 cores (sliced
// merges, one reduce task per key range) and on sliding windows over one
// core (whole merges, one reduce task), then the unkeyed and two-input
// operators. Keys are random with random values, so a key's values reach
// its aggregator in an order the sort and the merge decide.
var goldenRuns = func() []goldenRun {
	type keyed struct {
		name string
		agg  func(s streambox.Stream) streambox.Stream
	}
	aggs := []keyed{
		{"sum", func(s streambox.Stream) streambox.Stream { return s.SumPerKey(0, 1) }},
		{"count", func(s streambox.Stream) streambox.Stream { return s.CountPerKey(0) }},
		{"avg", func(s streambox.Stream) streambox.Stream { return s.AvgPerKey(0, 1) }},
		{"median", func(s streambox.Stream) streambox.Stream { return s.MedianPerKey(0, 1) }},
		{"topk", func(s streambox.Stream) streambox.Stream { return s.TopKPerKey(0, 1, 3) }},
		{"unique", func(s streambox.Stream) streambox.Stream { return s.UniqueCountPerKey(0, 1) }},
		{"percentile", func(s streambox.Stream) streambox.Stream { return s.PercentilePerKey(0, 1, 90) }},
	}
	windows := []struct {
		name  string
		spec  streambox.WindowSpec
		cores int
	}{
		{"fixed", streambox.FixedWindow(streambox.Second), 64},
		{"sliding", streambox.SlidingWindow(streambox.Second, streambox.Second/2), 1},
	}
	kv := func(seed int64, keys uint64) streambox.Generator {
		return streambox.KV(streambox.KVConfig{Keys: keys, ValueRange: 1000, Seed: seed})
	}
	var runs []goldenRun
	for _, w := range windows {
		for _, a := range aggs {
			runs = append(runs, goldenRun{a.name + "/" + w.name, w.cores, func() (*streambox.Pipeline, *streambox.Captured) {
				p := streambox.NewPipeline(w.spec)
				return p, a.agg(p.Source(kv(1, 300), smallSource(2e6)).Window(2)).Capture()
			}})
		}
		runs = append(runs,
			goldenRun{"avgall/" + w.name, w.cores, func() (*streambox.Pipeline, *streambox.Captured) {
				p := streambox.NewPipeline(w.spec)
				return p, p.Source(kv(2, 300), smallSource(2e6)).Window(2).AvgAll(1).Capture()
			}},
			goldenRun{"powergrid/" + w.name, w.cores, func() (*streambox.Pipeline, *streambox.Captured) {
				p := streambox.NewPipeline(w.spec)
				src := streambox.PowerGridSource(streambox.PowerGridConfig{Seed: 2})
				return p, p.Source(src, smallSource(2e6)).Window(2).PowerGrid().Capture()
			}})
	}
	return append(runs,
		goldenRun{"join/fixed", 64, func() (*streambox.Pipeline, *streambox.Captured) {
			p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
			left := p.Source(kv(3, 20_000), smallSource(2e6)).Window(2)
			right := p.Source(kv(4, 20_000), smallSource(2e6)).Window(2)
			return p, left.Join(right, 0, 1).Capture()
		}},
		goldenRun{"filterbyavg/fixed", 64, func() (*streambox.Pipeline, *streambox.Captured) {
			p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
			ctrl := p.Source(kv(5, 300), smallSource(2e6)).Window(2)
			data := p.Source(kv(6, 300), smallSource(2e6)).Window(2)
			return p, data.FilterByAvg(ctrl, 1).Capture()
		}})
}()

type goldenRun struct {
	name  string
	cores int
	build func() (*streambox.Pipeline, *streambox.Captured)
}

// line runs the pipeline on the simulated backend and renders what it
// computed and what it was charged: a digest of the (window, key, value)
// rows in sorted order, the report's counts, and its delays and peak
// bandwidths with every bit of the float kept.
func (g goldenRun) line(t *testing.T) string {
	t.Helper()
	p, res := g.build()
	rep, err := streambox.Run(p, streambox.RunConfig{Cores: g.cores, Duration: 0.05, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	rows := slices.Clone(res.Rows)
	slices.SortFunc(rows, func(a, b ops.CapturedRow) int {
		return cmp.Or(cmp.Compare(a.Win, b.Win), cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
	})
	h := fnv.New64a()
	var word [8]byte
	for _, r := range rows {
		for _, v := range []uint64{uint64(r.Win), r.Key, r.Val} {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s rows=%d digest=%016x ingested=%d windows=%d avg_delay=%s max_delay=%s peak_hbm=%s peak_dram=%s",
		g.name, len(rows), h.Sum64(), rep.IngestedRecords, rep.WindowsClosed,
		f(rep.AvgDelay), f(rep.MaxDelay), f(rep.PeakHBMBW), f(rep.PeakDRAMBW))
}

// TestSimulatedGolden pins the simulated backend, result rows and
// modelled costs alike, to testdata/simulated.golden: a change to a
// kernel the simulator's operators compute with must leave every line
// as it is. A deliberate change to the model or to the pipelines
// regenerates the file with `go test -run TestSimulatedGolden -update .`.
func TestSimulatedGolden(t *testing.T) {
	const path = "testdata/simulated.golden"
	var got []string
	for _, g := range goldenRuns {
		got = append(got, g.line(t))
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d differs from the golden:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
