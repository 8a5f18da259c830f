package runtime

import (
	"slices"
	"sync"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// batchAt builds one feed batch: key 1, value 1, the given timestamps.
func batchAt(ts ...uint64) [][]uint64 {
	cols := [][]uint64{make([]uint64, len(ts)), make([]uint64, len(ts)), ts}
	for i := range ts {
		cols[0][i], cols[1][i] = 1, 1
	}
	return cols
}

// span returns n timestamps spread evenly over [lo, hi).
func span(lo, hi uint64, n int) []uint64 {
	ts := make([]uint64, n)
	for i := range ts {
		ts[i] = lo + uint64(i)*(hi-lo)/uint64(n)
	}
	return ts
}

// TestLateBatchDoesNotReopenSealedWindow is the regression for late
// data re-opening a sealed window: a batch whose timestamps regress
// behind the watermark used to recreate the retired window entry, so
// the window published a second, partial result and released its pane
// references twice. The policy is decided on the ingest goroutine —
// the watermark applied after batch 2 seals window 0 before batch 3
// registers — so the test needs no waits. Fixed windows drop the whole
// late batch; sliding windows drop only the records with no open
// covering window and fold the rest into the windows still open.
//
// The sealed-pane case lands the late batch in a pane the first window
// has already sealed into a partial run (the one wait in this test: the
// seal runs on a worker) and that three windows still cover: the late
// run stays beside the partial, the next window seals it in turn, and
// every open window counts both — with Count, which would report 3 for
// window 250k if the 100-record partial were Added as one record.
func TestLateBatchDoesNotReopenSealedWindow(t *testing.T) {
	cases := []struct {
		name    string
		win     wm.Windowing
		agg     kpa.AggFactory
		batches [][][]uint64
		// sealedBefore is the index of a batch held back until a pane has
		// been sealed (0: none).
		sealedBefore int
		late         int64
		want         map[wm.Time]uint64 // window start -> aggregate for key 1
	}{
		{
			name: "fixed",
			win:  wm.Fixed(1_000_000),
			agg:  ops.Sum(),
			batches: [][][]uint64{
				batchAt(span(0, 1_000_000, 100)...),
				batchAt(span(2_000_000, 2_100_000, 10)...), // watermark passes window 0
				batchAt(span(0, 1_000_000, 50)...),         // late for window 0
			},
			late: 50,
			want: map[wm.Time]uint64{0: 100, 2_000_000: 10},
		},
		{
			name: "sliding",
			win:  wm.Sliding(1_000_000, 500_000),
			agg:  ops.Sum(),
			batches: [][][]uint64{
				batchAt(span(600_000, 900_000, 100)...),     // windows 0 and 500k
				batchAt(span(1_000_000, 1_200_000, 10)...),  // seals window 0; 500k stays open
				batchAt(100_000, 400_000, 700_000, 800_000), // two with no open window, two for 500k
			},
			late: 2,
			want: map[wm.Time]uint64{0: 100, 500_000: 112, 1_000_000: 10},
		},
		{
			name: "sealed-pane",
			win:  wm.Sliding(1_000_000, 250_000),
			agg:  ops.Count(),
			batches: [][][]uint64{
				batchAt(span(750_000, 1_000_000, 100)...),  // pane 750k: windows 0 to 750k
				batchAt(span(1_000_000, 1_100_000, 10)...), // seals window 0, which seals pane 750k
				batchAt(800_000, 900_000, 1_050_000),       // two into the sealed pane, for 250k to 750k
				batchAt(span(1_100_000, 1_200_000, 10)...), // nothing new sealed
				batchAt(span(1_300_000, 1_400_000, 10)...), // seals window 250k: partial + late run
				batchAt(span(2_400_000, 2_500_000, 10)...), // seals the rest
			},
			sealedBefore: 2,
			want: map[wm.Time]uint64{
				0: 100, 250_000: 123, 500_000: 133, 750_000: 133, 1_000_000: 31,
				1_250_000: 10, 1_500_000: 10, 1_750_000: 10, 2_000_000: 10, 2_250_000: 10,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			feed := newTestFeed(len(c.batches))
			var mu sync.Mutex
			published := make(map[wm.Time]int)
			plan := Plan{
				Feed:   feed,
				Source: engine.SourceConfig{Name: "late", WatermarkEvery: 1},
				Win:    c.win,
				TsCol:  2, KeyCol: 0, ValCol: 1,
				NewAgg: c.agg,
				Label:  c.name,
			}
			var rows rowCollector
			e, err := Start(plan, rows.tap(Config{Workers: 2, WindowSink: func(start, _ wm.Time, _ []Row) {
				mu.Lock()
				published[start]++
				mu.Unlock()
			}}))
			if err != nil {
				t.Fatal(err)
			}
			var sent int64
			for i, b := range c.batches {
				if i > 0 && i == c.sealedBefore {
					for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
						if e.x.m.sealedPanes.Load() > 0 {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("no pane sealed before the late batch")
						}
					}
				}
				sent += int64(len(b[0]))
				feed.pushCols(b)
			}
			feed.Close()
			rep, err := e.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.IngestedRecords != sent || rep.LateRecords != c.late || e.x.m.late.Load() != c.late {
				t.Fatalf("ingested %d of %d, late %d, want %d late", rep.IngestedRecords, sent, rep.LateRecords, c.late)
			}
			for w, n := range published {
				if n != 1 {
					t.Fatalf("window %d published %d times", w, n)
				}
			}
			got := rowsByWindowKey(rows.rows)
			if len(got) != len(c.want) || len(published) != len(c.want) || rep.WindowsClosed != len(c.want) {
				t.Fatalf("rows for %d windows, %d published, %d closed, want %d", len(got), len(published), rep.WindowsClosed, len(c.want))
			}
			for w, agg := range c.want {
				if got[w][1] != agg {
					t.Fatalf("window %d: aggregate %d, want %d", w, got[w][1], agg)
				}
			}
			// Balanced frees: every run reference was released exactly once.
			snap := e.MemSnapshot()
			if snap.Allocs != snap.Frees || snap.Tiers[memsim.HBM].Used != 0 || snap.Tiers[memsim.DRAM].Used != 0 {
				t.Fatalf("pool not drained: %d allocs, %d frees, %d B HBM, %d B DRAM in use",
					snap.Allocs, snap.Frees, snap.Tiers[memsim.HBM].Used, snap.Tiers[memsim.DRAM].Used)
			}
			if live := e.x.m.liveState(); live != [memsim.NumTiers]int64{} {
				t.Fatalf("window state still accounted after the run: %v", live)
			}
		})
	}
}

// heapAlloc places a run in DRAM, on the Go heap, without accounting.
type heapAlloc struct{}

func (heapAlloc) AllocKPA(int64) (memsim.Tier, *mempool.Allocation, error) {
	return memsim.DRAM, nil, nil
}

// emptyRun is a run with no pairs: all the window table looks at is
// its identity and all a test needs is its reference count.
func emptyRun(t *testing.T) *kpa.KPA {
	t.Helper()
	k, _, err := kpa.NewValues(0, 0, heapAlloc{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWindowTableSealing drives the registry directly: a sealed window
// admits nothing more, its close starts exactly once, a run filed for
// later windows stays invisible to a sealed window that has not
// gathered yet, and the sealed watermark only moves forward.
func TestWindowTableSealing(t *testing.T) {
	tab := newWindowTable(wm.Sliding(100, 50), true)
	sealed := tab.sealedWatermark()
	check := func(when string) {
		t.Helper()
		if w := tab.sealedWatermark(); w < sealed {
			t.Fatalf("%s: sealed watermark fell %d -> %d", when, sealed, w)
		} else {
			sealed = w
		}
	}

	a := tab.register(60, 90) // windows 0 and 50
	if len(a.wins) != 2 || a.wins[0] != 0 || a.wins[1] != 50 || len(a.groups) != 1 {
		t.Fatalf("registered %+v, want windows [0 50] and one pane", a)
	}
	if got := tab.advance(100, time.Time{}); len(got) != 0 {
		t.Fatalf("window 0 closed with an extraction pending: %v", got)
	}
	check("advance")

	// Window 0 is sealed but has not claimed: a later bundle on the same
	// pane registers with window 50 only, and starts a group of its own.
	b := tab.register(60, 90)
	if len(b.wins) != 1 || b.wins[0] != 50 || b.groups[0] == a.groups[0] {
		t.Fatalf("late registration got %+v, want window [50] and a new group", b)
	}
	from, open := tab.openCovering(50, b.wins[0])
	if from != 50 || open != 1 {
		t.Fatalf("open covering of pane 50: from %d count %d, want 50 and 1", from, open)
	}
	late := emptyRun(t)
	if seals, got := tab.fileRuns(b, []filedRun{{paneRun: paneRun{k: late, from: from, group: b.groups[0]}, pane: 50}}); len(got) != 0 || len(seals) != 0 {
		t.Fatalf("close started early: %v, seals %v", got, seals)
	}
	if got := tab.register(0, 40); got.wins != nil || got.groups != nil {
		t.Fatalf("fully late bundle registered %+v", got)
	}
	first := emptyRun(t)
	first.Retain(1) // windows 0 and 50
	if _, got := tab.fileRuns(a, []filedRun{{paneRun: paneRun{k: first, from: 0, group: a.groups[0]}, pane: 50}}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("last extraction must start window 0's close once: %v", got)
	}
	// Window 50 reads pane 50 again, so window 0's claim seals the one
	// run filed for it and gathers once that lands.
	c, ok := tab.claim(0)
	if !ok || c.merge || len(c.seals) != 1 || len(c.seals[0].raw) != 1 || c.seals[0].raw[0].k != first {
		t.Fatalf("window 0: %+v ok %v, want a claim sealing the run filed for it", c, ok)
	}
	if _, ok := tab.claim(0); ok {
		t.Fatal("window 0's close was claimed twice")
	}
	if got := tab.advance(100, time.Time{}); len(got) != 0 {
		t.Fatalf("repeated watermark restarted a close: %v", got)
	}
	merged := emptyRun(t)
	merged.Retain(1)
	if more, got := tab.paneSealed(c.seals[0], merged); len(more) != 0 || len(got) != 1 || got[0] != 0 {
		t.Fatalf("seal landed: more %v, merge %v, want window 0", more, got)
	}
	if got := tab.gather(0); len(got) != 1 || got[0] != merged {
		t.Fatalf("window 0 gathered %v, want the sealed run only", got)
	}
	tab.retire(0, time.Time{})
	check("retire")
	tab.published(0)
	check("published")

	if got := tab.advance(150, time.Time{}); len(got) != 1 || got[0] != 50 {
		t.Fatalf("window 50 should close at once: %v", got)
	}
	check("advance 150")
	if c, ok := tab.claim(50); !ok || !c.merge || len(c.seals) != 0 || len(c.runs) != 2 {
		t.Fatalf("window 50: %+v ok %v, want a merge over both runs, its pane's last reader", c, ok)
	}
	tab.retire(50, time.Time{})
	tab.published(50)
	check("drained")
	if sealed != 150 || tab.closedWindows() != 2 || len(tab.entries) != 0 || len(tab.windows) != 0 {
		t.Fatalf("sealed %d, closed %d, %d pane entries and %d windows left",
			sealed, tab.closedWindows(), len(tab.entries), len(tab.windows))
	}
}

// TestWindowTableSealOrder drives the registry through claim-time
// seals: windows that share a pane are offered and claimed oldest first
// even when one watermark seals them all; a claim takes the level-0
// runs it will seal out of the table and the next window's claim does
// not wait for that seal — only its merge does, and then finds the
// sealed run in their place; a seal that could not allocate puts the
// runs back, outside any group; and a pane's last reader is handed its
// runs unsealed.
func TestWindowTableSealOrder(t *testing.T) {
	rA, rB := emptyRun(t), emptyRun(t)
	tab := newWindowTable(wm.Sliding(100, 50), true)
	a := tab.register(60, 90)   // pane 50: windows 0 and 50
	c := tab.register(110, 140) // pane 100: windows 50 and 100
	tab.fileRuns(a, []filedRun{{paneRun: paneRun{k: rA, from: 0, group: a.groups[0]}, pane: 50}})
	tab.fileRuns(c, []filedRun{{paneRun: paneRun{k: rB, from: 50, group: c.groups[0]}, pane: 100}})
	if got := tab.advance(200, time.Time{}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("one watermark sealed three overlapping windows; offered %v, want the oldest only", got)
	}
	if _, ok := tab.claim(50); ok {
		t.Fatal("window 50 claimed before window 0")
	}
	c0, ok := tab.claim(0)
	if !ok || c0.merge || len(c0.seals) != 1 || c0.seals[0].pane != 50 ||
		len(c0.seals[0].raw) != 1 || c0.seals[0].raw[0].k != rA ||
		!slices.Equal(c0.seals[0].owers, []wm.Time{0, 50}) ||
		len(c0.next) != 1 || c0.next[0] != 50 {
		t.Fatalf("window 0: %+v ok %v, want pane 50 to seal for windows 0 and 50, which is next", c0, ok)
	}
	// Window 50 claims, and takes its own seal, while pane 50 is still
	// sealing; it may not merge yet.
	c50, ok := tab.claim(50)
	if !ok || c50.merge || len(c50.seals) != 1 || c50.seals[0].pane != 100 || c50.seals[0].raw[0].k != rB ||
		len(c50.next) != 1 || c50.next[0] != 100 {
		t.Fatalf("window 50: %+v ok %v, want pane 100 to seal and no merge while pane 50 seals", c50, ok)
	}
	c100, ok := tab.claim(100)
	if !ok || c100.merge || len(c100.seals) != 0 {
		t.Fatalf("window 100: %+v ok %v, want a claim that waits on pane 100's seal", c100, ok)
	}
	if got := tab.gather(50); len(got) != 0 {
		t.Fatalf("runs under seal still in the table: %v", got)
	}
	merged := emptyRun(t)
	if _, got := tab.paneSealed(c0.seals[0], merged); len(got) != 1 || got[0] != 0 {
		t.Fatalf("pane 50 sealed: merge %v, want window 0 only (50 still owes pane 100)", got)
	}
	if got := tab.gather(0); len(got) != 1 || got[0] != merged {
		t.Fatalf("window 0 gathered %v, want the sealed run of pane 50", got)
	}
	// The seal of pane 100 fails to allocate: the raw run goes back.
	if _, got := tab.paneSealed(c50.seals[0], nil); len(got) != 2 || got[0] != 50 || got[1] != 100 {
		t.Fatalf("pane 100 landed: merge %v, want windows 50 and 100", got)
	}
	if r := tab.entries[100].runs; len(r) != 1 || r[0].k != rB || r[0].group != nil {
		t.Fatalf("pane 100 after the failed seal: %+v, want its raw run back outside any group", r)
	}
	if got := tab.gather(50); len(got) != 2 || got[0] != merged || got[1] != rB {
		t.Fatalf("window 50 gathered %v, want the sealed run of pane 50 and pane 100's raw run", got)
	}
	if got := tab.gather(100); len(got) != 1 || got[0] != rB {
		t.Fatalf("window 100 gathered %v, want pane 100's raw run for its last reader", got)
	}
	for _, w := range []wm.Time{0, 50, 100} {
		tab.retire(w, time.Time{})
		tab.published(w)
	}
	if len(tab.entries) != 0 || len(tab.windows) != 0 || tab.sealedWatermark() != 200 {
		t.Fatalf("%d pane entries and %d windows left, sealed %d", len(tab.entries), len(tab.windows), tab.sealedWatermark())
	}
}

// TestWindowTableGroups drives the eager half: the bundles of a pane
// take consecutive slots, the last member of a group to file — in any
// order, run or no run — takes the group's runs out of the table as a
// seal every open covering window owes, the sealed run lands one level
// up, and a bundle that is late for more windows starts a new group.
// The runs are a word fold's and hold no pairs, so the seal rule of a
// pane one window reads seals the group.
func TestWindowTableGroups(t *testing.T) {
	tab := newWindowTable(wm.Fixed(100), true)
	regs := make([]registration, mergeFanIn+1)
	for i := range regs {
		regs[i] = tab.register(10, 20)
	}
	g := regs[0].groups[0]
	if regs[mergeFanIn-1].groups[0] != g || regs[mergeFanIn].groups[0] == g || g.parent == nil || g.parent.level != 1 {
		t.Fatalf("the first %d bundles must share a group with a slot one level up, the next starts another", mergeFanIn)
	}
	var runs []*kpa.KPA
	// File in reverse, the last bundle of the group first; bundle 3 files
	// nothing for the pane.
	for i := mergeFanIn; i >= 0; i-- {
		var filed []filedRun
		if i != 3 {
			k := emptyRun(t)
			runs = append(runs, k)
			filed = []filedRun{{paneRun: paneRun{k: k, from: 0, group: regs[i].groups[0]}, pane: 0}}
		}
		seals, toClose := tab.fileRuns(regs[i], filed)
		if len(toClose) != 0 {
			t.Fatalf("bundle %d: close offered before any watermark: %v", i, toClose)
		}
		if i > 0 {
			if len(seals) != 0 {
				t.Fatalf("bundle %d: group sealed with members still to file", i)
			}
			continue
		}
		if len(seals) != 1 || len(seals[0].raw) != mergeFanIn-1 || seals[0].into != g.parent ||
			!slices.Equal(seals[0].owers, []wm.Time{0}) {
			t.Fatalf("last member filed: seals %+v, want the group's %d runs owed by window 0", seals, mergeFanIn-1)
		}
		if got := tab.advance(100, time.Time{}); len(got) != 1 {
			t.Fatalf("window 0 not offered: %v", got)
		}
		// A window claiming while the eager seal is in flight waits for it.
		c, ok := tab.claim(0)
		if !ok || c.merge || len(c.seals) != 0 {
			t.Fatalf("window 0: %+v ok %v, want a claim that owes the eager seal", c, ok)
		}
		merged := emptyRun(t)
		if more, got := tab.paneSealed(seals[0], merged); len(more) != 0 || len(got) != 1 || got[0] != 0 {
			t.Fatalf("eager seal landed: more %v merge %v", more, got)
		}
		got := tab.gather(0)
		if len(got) != 2 || got[0] != runs[0] || got[1] != merged {
			t.Fatalf("window 0 gathered %v, want the second group's run and the sealed run", got)
		}
		if r := tab.entries[0].runs[1]; r.group != g.parent || g.parent.landed != 1 {
			t.Fatalf("sealed run %+v, want it in the level-1 group with one member landed", r)
		}
	}
}

// sizedRun is a run of n pairs, for tests where only its length matters.
func sizedRun(t *testing.T, n int) *kpa.KPA {
	t.Helper()
	k, _, err := kpa.NewValues(n, 0, heapAlloc{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWindowTableSealRule drives the level-0 seal rule of a pane one
// window reads. A complete group seals iff the aggregator is a word fold
// and twice its key bound — the lesser of its runs' distinct keys summed
// and its key span — is at most its pairs; otherwise it stays raw,
// outside any group, counts as skipped and lands in the group above
// with no run. The decision is the
// group's own, taken when its last member files: a later group that
// completes while an earlier one still waits is decided at once. A pane
// two windows read seals every group.
func TestWindowTableSealRule(t *testing.T) {
	const perRun = 4 // every bundle files one run of 4 pairs
	// wide puts bundle i's keys in a range of their own, far apart.
	wide := func(i int) uint64 { return uint64(i) << 40 }
	for _, c := range []struct {
		name  string
		win   wm.Windowing
		ts    wm.Time // where the bundles lie
		folds bool
		// keys gives bundle i of group g its distinct keys and their range.
		keys  func(g, i int) (n int, lo, hi uint64)
		seals [2]bool // whether groups 0 and 1 seal
	}{
		{"dense span seals", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) { return perRun, uint64(i % 8), uint64(i%8 + 5) }, [2]bool{true, true}},
		{"dense span of half the pairs seals", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) { return perRun, 1000, 1000 + perRun*mergeFanIn/2 - 1 }, [2]bool{true, true}},
		{"dense span one key over half stays raw", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) { return perRun, 1000, 1000 + perRun*mergeFanIn/2 }, [2]bool{false, false}},
		{"distinct wide keys stay raw", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) { return perRun, wide(i), wide(i) + 3<<20 }, [2]bool{false, false}},
		{"wide keys repeating in runs seal", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) { return perRun / 2, wide(i), wide(i) + 1 }, [2]bool{true, true}},
		{"wide keys one over half stay raw", wm.Fixed(100), 10, true,
			func(_, i int) (int, uint64, uint64) {
				if i == 0 {
					return perRun/2 + 1, wide(i), wide(i) + 2
				}
				return perRun / 2, wide(i), wide(i) + 1
			}, [2]bool{false, false}},
		{"copy never seals", wm.Fixed(100), 10, false,
			func(_, i int) (int, uint64, uint64) { return 1, 7, 7 }, [2]bool{false, false}},
		{"two readers always seal", wm.Sliding(100, 50), 60, false,
			func(_, i int) (int, uint64, uint64) { return perRun, wide(i), wide(i) + 3 }, [2]bool{true, true}},
		{"later group decided first", wm.Fixed(100), 10, true,
			func(g, i int) (int, uint64, uint64) {
				if g == 1 {
					return perRun, 0, 9
				}
				return perRun, wide(i), wide(i) + 3
			}, [2]bool{false, true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab := newWindowTable(c.win, c.folds)
			regs := make([]registration, 2*mergeFanIn)
			for i := range regs {
				regs[i] = tab.register(c.ts, c.ts)
			}
			pane := regs[0].groups[0].pane
			readers := 2
			if c.win.IsFixed() {
				readers = 1
			}
			if len(regs[0].wins) != readers {
				t.Fatalf("pane %d read by windows %v, want %d", pane, regs[0].wins, readers)
			}
			skipped := 0
			// file files the given members of group g and checks the
			// decision the one that completes the group takes.
			file := func(g int, members []int) {
				t.Helper()
				for j, i := range members {
					reg := regs[g*mergeFanIn+i]
					grp := reg.groups[0]
					n, lo, hi := c.keys(g, i)
					seals, _ := tab.fileRuns(reg, []filedRun{{paneRun{k: sizedRun(t, perRun), from: grp.from, group: grp}, pane, n, lo, hi}})
					if j < len(members)-1 || grp.landed < mergeFanIn {
						if len(seals) != 0 {
							t.Fatalf("group %d sealed with members still to file", g)
						}
						continue
					}
					if !c.seals[g] {
						skipped++
						if len(seals) != 0 || tab.sealsSkipped() != skipped || grp.parent.landed != skipped {
							t.Fatalf("group %d complete: %d seals, %d skipped, %d landed above; want none and %d of each",
								g, len(seals), tab.sealsSkipped(), grp.parent.landed, skipped)
						}
						for _, r := range tab.entries[pane].runs {
							if r.group == grp {
								t.Fatalf("group %d left raw, yet its runs are still in it", g)
							}
						}
						continue
					}
					if len(seals) != 1 || len(seals[0].raw) != mergeFanIn || seals[0].into != grp.parent ||
						!slices.Equal(seals[0].owers, reg.wins) || tab.sealsSkipped() != skipped {
						t.Fatalf("group %d complete: seals %+v, %d skipped; want one seal of its %d runs owed by %v",
							g, seals, tab.sealsSkipped(), mergeFanIn, reg.wins)
					}
				}
			}
			all := make([]int, mergeFanIn)
			for i := range all {
				all[i] = i
			}
			// Group 0 waits on its first member while group 1 completes.
			file(0, all[1:])
			file(1, all)
			file(0, all[:1])
			if tab.sealsSkipped() != skipped {
				t.Fatalf("%d groups left raw, want %d", tab.sealsSkipped(), skipped)
			}
		})
	}
}
