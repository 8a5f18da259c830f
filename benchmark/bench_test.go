package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// shrink keeps a workload's shape (window/slide ratio, keys, frame and
// bundle sizes, pacing) but cuts its window to a tenth and its run to
// a quarter second of two-window passes, so the smoke test finishes in
// seconds.
func shrink(sp spec) (spec, options) {
	sp.WindowRecords /= 10
	sp.Slide /= 10
	sp.Rate = int64(sp.WindowRecords) * 8
	return sp, options{seed: 7, seconds: 0.25}
}

// TestSmoke runs every workload untraced and traced and checks what the
// contract promises about their output.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.Name, func(t *testing.T) {
			sp, o := shrink(full)
			o.outDir = t.TempDir()
			o.tmpDir = o.outDir

			res, err := runWorkload(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			if res.Metrics["throughput_rec_s"].Value <= 0 || res.Metrics["cpu_ns_per_rec"].Value <= 0 {
				t.Errorf("rates not positive: %+v", res.Metrics)
			}

			o.trace = true
			res, err = runWorkload(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if res.Info["spans_dropped"] != 0 {
				t.Errorf("%v spans dropped", res.Info["spans_dropped"])
			}

			// Interaction table: a layer a workload bypasses reads zero.
			m := res.Metrics
			for _, name := range []string{"wal.bytes_per_rec", "wal.syncs_total", "wal.append_ns_per_rec"} {
				if (m[name].Value != 0) != sp.WAL {
					t.Errorf("%s = %v with WAL=%v", name, m[name].Value, sp.WAL)
				}
			}
			if (m["netio.frames_total"].Value != 0) != sp.Net {
				t.Errorf("netio.frames_total = %v with Net=%v", m["netio.frames_total"].Value, sp.Net)
			}
			if (m["runtime.pane_runs"].Value != 0) != (sp.Slide > 0) {
				t.Errorf("runtime.pane_runs = %v with Slide=%d", m["runtime.pane_runs"].Value, sp.Slide)
			}
			if !sp.Spill && (m["spill.spilled_runs"].Value != 0 || m["spill.loads"].Value != 0 || m["spill.evict_ns_per_pair"].Value != 0) {
				t.Errorf("spill counters non-zero without the spill tier")
			}

			// The trace is well formed and its model adds up exactly.
			raw, err := os.ReadFile(filepath.Join(o.outDir, sp.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Error(err)
			}
			if len(tf.Layers) == 0 {
				t.Error("empty layer table")
			}
			names := make([]string, 0, len(tf.Model.Components))
			for name := range tf.Model.Components {
				names = append(names, name)
			}
			sort.Strings(names)
			var sum float64
			for _, name := range names {
				sum += tf.Model.Components[name]
			}
			if sum != tf.Model.Total || sum != m["streambox.model_cpu_ns_per_rec"].Value {
				t.Errorf("model total %v, components sum to %v, metric %v", tf.Model.Total, sum, m["streambox.model_cpu_ns_per_rec"].Value)
			}
		})
	}
}

// checkResult requires a correct run that emitted exactly the
// catalogue's metrics, each with its unit.
func checkResult(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d problems=%v", res.Correct, res.Failed, res.Attempted, res.Problems)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, catalogue has %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: emitted=%v unit %q, want unit %q", d.Name, ok, v.Unit, d.Unit)
		}
	}
}

// TestReplayBytesDeterministic: the replay's byte counts depend on the
// seed alone.
func TestReplayBytesDeterministic(t *testing.T) {
	for _, full := range workloads {
		sp, o := shrink(full)
		o.tmpDir = t.TempDir()
		a, err := replay(sp, o, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replay(sp, o, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.wireBytes != b.wireBytes || a.copyBytes != b.copyBytes || a.walBytes != b.walBytes || a.records != b.records {
			t.Errorf("%s: byte counts differ between two replays: %+v vs %+v", sp.Name,
				[]int64{a.wireBytes, a.copyBytes, a.walBytes}, []int64{b.wireBytes, b.copyBytes, b.walBytes})
		}
		if a.copyBytes == 0 || (sp.Net && a.wireBytes == 0) || (sp.WAL && a.walBytes == 0) {
			t.Errorf("%s: a byte count the workload must produce is zero", sp.Name)
		}
	}
}

// TestReferenceMatchesBruteForce holds the cyclic-replay reference
// against a full scan of a three-window stream, for fixed and sliding
// windows, one and two producers.
func TestReferenceMatchesBruteForce(t *testing.T) {
	cases := []struct {
		sp        spec
		producers int
	}{
		{spec{WindowRecords: 1000, Keys: 16}, 1},
		{spec{WindowRecords: 1000, Keys: 16, Slide: 125}, 1},
		{spec{WindowRecords: 999, Keys: 1 << 20, WideKeys: true}, 1},
		{spec{Net: true, WindowRecords: 1000, Keys: 16}, 2},
		{spec{Net: true, WindowRecords: 1001, Keys: 16}, 2},
	}
	for _, c := range cases {
		in := genInputs(c.sp, 3, c.producers)
		if got := in.windowRecords(); got != c.sp.WindowRecords {
			t.Errorf("%+v: slabs hold %d records", c.sp, got)
		}
		want, got := in.bruteForce(3), in.reference(3)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: reference %v, brute force %v", c.sp, got, want)
		}
		wantWindows := 3
		if c.sp.Slide > 0 {
			wantWindows = 24 // 17 full, 7 trailing partial
		}
		if len(got) != wantWindows || got[0].Rows == 0 {
			t.Errorf("%+v: %d windows, first %+v", c.sp, len(got), got[0])
		}
	}
}

// TestSpanAccounting pins self time and the well-formedness checks.
func TestSpanAccounting(t *testing.T) {
	spans := []span{
		{Name: "root", Layer: "a", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "x", Layer: "b", ID: 2, Parent: 1, StartNs: 10, EndNs: 50},
		{Name: "y", Layer: "b", ID: 3, Parent: 1, StartNs: 30, EndNs: 70}, // overlaps x
		{Name: "z", Layer: "c", ID: 4, Parent: 2, StartNs: 20, EndNs: 30},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := []layerRow{{"a", 40, 1, 0}, {"b", 70, 2, 0}, {"c", 10, 1, 0}}
	if got := layerTable(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("layer table %+v, want %+v", got, want)
	}
	for _, bad := range [][]span{
		{{Name: "root", ID: 1, EndNs: 10}, {Name: "orphan", ID: 2, EndNs: 5}},
		{{Name: "root", ID: 1, EndNs: 10}, {Name: "late", ID: 2, Parent: 1, StartNs: 5, EndNs: 11}},
		{{Name: "root", ID: 1, EndNs: 10}, {Name: "lost", ID: 2, Parent: 9, EndNs: 5}},
	} {
		if checkSpans(bad) == nil {
			t.Errorf("checkSpans accepted %+v", bad)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 values = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestCatalogueMatchesBenchmarkJSON: BENCHMARK.json, which the driver
// reads, says what spec.go says, within the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || bj.RunSeconds < 1 || bj.RunSeconds > 60 || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("size %d, run_seconds %d, paths %v", len(raw), bj.RunSeconds, bj.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %d: %+v vs spec %q", i, w, workloads[i].Name)
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %d: %+v vs spec %+v", kind, i, g, d)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v vs spec %v", kind, g.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
