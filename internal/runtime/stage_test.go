package runtime

import (
	"bytes"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// gate parks every goroutine that calls park until the test lets it
// go: one at a time through the release channel each park hands over
// on parked, or all at once with open.
type gate struct {
	parked chan chan struct{}
	done   chan struct{}
	free   atomic.Bool
}

func newGate() *gate { return &gate{parked: make(chan chan struct{}), done: make(chan struct{})} }

func (g *gate) park() {
	if g.free.Load() {
		return
	}
	rel := make(chan struct{})
	select {
	case g.parked <- rel:
		<-rel
	case <-g.done:
	}
}

func (g *gate) open() {
	if !g.free.Swap(true) {
		close(g.done)
	}
}

// next returns the release channel of the next goroutine to park.
func (g *gate) next(t *testing.T) chan struct{} {
	t.Helper()
	select {
	case rel := <-g.parked:
		return rel
	case <-time.After(10 * time.Second):
		t.Fatal("nothing parked at the gate")
		return nil
	}
}

// goroutine is one record of the goroutine profile: the stage label its
// goroutines carry ("" for none) and their stack, innermost frame first.
type goroutine struct {
	stage  string
	frames []string
}

var stageLabel = regexp.MustCompile(`^# labels: .*"stage":"([a-z]+)"`)

func goroutines(t *testing.T) []goroutine {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	var out []goroutine
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		var g goroutine
		for _, line := range strings.Split(rec, "\n") {
			if m := stageLabel.FindStringSubmatch(line); m != nil {
				g.stage = m[1]
			} else if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && strings.HasPrefix(f[1], "0x") {
				fn, _, _ := strings.Cut(f[2], "+0x")
				g.frames = append(g.frames, fn)
			}
		}
		out = append(out, g)
	}
	return out
}

// names reports whether one of the frames names fn.
func names(frames []string, fn string) bool {
	return slices.ContainsFunc(frames, func(f string) bool { return strings.Contains(f, fn) })
}

// expectStage requires every goroutine of the snapshot gs whose stack
// match picks to carry stage want, and at least one to exist.
func expectStage(t *testing.T, gs []goroutine, want string, match func(frames []string) bool) {
	t.Helper()
	n := 0
	for _, g := range gs {
		if !match(g.frames) {
			continue
		}
		n++
		if g.stage != want {
			t.Errorf("goroutine in stage %q, want %q:\n\t%s", g.stage, want, strings.Join(g.frames, "\n\t"))
		}
	}
	if n == 0 {
		t.Errorf("no goroutine parked where stage %q runs", want)
	}
}

// parkAt expects the next goroutine to park at g, inside site, to be in
// stage want, then opens g and lets every goroutine through it.
func parkAt(t *testing.T, g *gate, want, site string) {
	t.Helper()
	rel := g.next(t)
	expectStage(t, goroutines(t), want, func(f []string) bool { return names(f, "(*gate).park") && names(f, site) })
	g.open()
	close(rel)
}

// idleWorker picks a worker waiting for a task: the innermost frame of
// this package is the worker loop itself.
func idleWorker(frames []string) bool {
	for _, f := range frames {
		if strings.HasPrefix(f, "streambox/") {
			return strings.HasSuffix(f, ".(*scheduler).run")
		}
	}
	return false
}

// parkingFeed hands out its batches, then parks Recv at its gate and
// reports the feed closed once the gate opens.
type parkingFeed struct {
	testFeed
	batches [][][]uint64
	g       *gate
}

func (f *parkingFeed) Recv(time.Duration) ([][]uint64, bool, bool) {
	if len(f.batches) > 0 {
		b := f.batches[0]
		f.batches = f.batches[1:]
		return b, true, false
	}
	f.g.park()
	return nil, false, false
}

func (f *parkingFeed) Watermark() wm.Time { return 0 }

// parkingGen parks every Fill at its gate first.
type parkingGen struct {
	engine.Generator
	g *gate
}

func (p parkingGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	p.g.park()
	p.Generator.Fill(bd, n, tsLo, tsHi)
}

// TestStageLabels parks a goroutine in each stage of a native run and
// reads its CPU-profile label off the goroutine profile, which carries
// the same labels: the ingest loop waiting on its feed (ingest), workers
// waiting for a task after running some (sched), a generator's Fill
// (fill — the source's time, not the ingest loop's, which resumes after
// it), a filter inside an extraction (extract), the aggregator factory
// inside a seal (seal) and a close partition's merge (close), and the
// WindowSink (publish).
func TestStageLabels(t *testing.T) {
	t.Run("ingest and sched", func(t *testing.T) {
		feedGate := newGate()
		feed := &parkingFeed{batches: [][][]uint64{batchAt(span(0, 1000, 100)...), batchAt(span(1000, 2000, 100)...)}, g: feedGate}
		plan := testPlan(nil, 0)
		plan.Gen, plan.Feed = nil, feed
		e, err := Start(plan, Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rel := feedGate.next(t)
		expectStage(t, goroutines(t), "ingest", func(f []string) bool { return names(f, "(*parkingFeed).Recv") })
		e.x.sched.Wait() // both extractions ran: the workers wait for the next task
		expectStage(t, goroutines(t), "sched", idleWorker)
		feedGate.open()
		close(rel)
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ingest after fill", func(t *testing.T) {
		feed := newGenFeed(testPlan(ingress.NewRoundRobinKV(8, 1), 1000), mempool.New(memsim.KNLConfig(), 0))
		g, done := newGate(), make(chan struct{})
		go func() {
			defer close(done)
			cols, _, _ := feed.Recv(0)
			g.park()
			feed.Recycle(cols)
		}()
		parkAt(t, g, "ingest", "TestStageLabels")
		<-done
	})

	t.Run("fill, extract, seal, close and publish", func(t *testing.T) {
		fillGate, extractGate, aggGate, sinkGate := newGate(), newGate(), newGate(), newGate()
		plan := testPlan(parkingGen{ingress.NewRoundRobinKV(8, 1), fillGate}, 8_000)
		plan.Source.BundleRecords = 100
		// 20 bundles a pane: every pane but the first is read by two
		// windows, so the first one's claim seals it, a verbatim copy.
		plan.Win = wm.Sliding(1_000_000, 500_000)
		plan.Filters = []Filter{{Col: 1, Keep: func(uint64) bool { extractGate.park(); return true }}}
		var calls atomic.Int64
		sum := hideWordOp(ops.Sum()) // per-pair folds ask the factory again
		plan.NewAgg = func() kpa.Agg {
			if calls.Add(1) > 1 { // the first is Start's capability probe
				aggGate.park()
			}
			return sum()
		}
		e, err := Start(plan, Config{Workers: 2, WindowSink: func(wm.Time, wm.Time, []Row) { sinkGate.park() }})
		if err != nil {
			t.Fatal(err)
		}
		parkAt(t, fillGate, "fill", "parkingGen.Fill")
		parkAt(t, extractGate, "extract", "(*exec).sortPanes")
		stages := map[string]string{"(*exec).sealPane": "seal", "(*exec).submitMergeReduce.func": "close"}
		seen := map[string]bool{}
		for len(seen) < len(stages) && !t.Failed() {
			rel := aggGate.next(t)
			// One snapshot judges both checks: a goroutine released in an
			// earlier round may still be leaving the gate, in one snapshot
			// and gone from the next.
			gs := goroutines(t)
			for site, want := range stages {
				parked := func(f []string) bool { return names(f, "(*gate).park") && names(f, site) }
				if slices.ContainsFunc(gs, func(g goroutine) bool { return parked(g.frames) }) {
					expectStage(t, gs, want, parked)
					seen[want] = true
				}
			}
			close(rel)
		}
		aggGate.open()
		parkAt(t, sinkGate, "publish", "(*exec).finishWindow")
		if _, err := e.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := auditAtRest(e); err != nil {
			t.Fatal(err)
		}
	})
}
