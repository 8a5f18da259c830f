package ops_test

import (
	"testing"

	"streambox/internal/engine"
	"streambox/internal/ingress"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

const (
	testWinSize    = 1_000_000 // event-time units per window
	testWinRecords = 4000      // records per window
	testBundle     = 1000      // records per bundle
)

// byWindow groups captured rows per window start.
func byWindow(s *ops.CaptureSink) map[wm.Time][]ops.CapturedRow {
	out := make(map[wm.Time][]ops.CapturedRow)
	for _, r := range s.Rows {
		out[r.Win] = append(out[r.Win], r)
	}
	return out
}

func testConfig() engine.Config {
	return engine.Config{
		Machine: memsim.KNLConfig(),
		Win:     wm.Fixed(testWinSize),
		UseKPA:  true,
		Seed:    7,
	}
}

func testSource(name string) engine.SourceConfig {
	return engine.SourceConfig{
		Name:           name,
		Rate:           2e6,
		BundleRecords:  testBundle,
		WindowRecords:  testWinRecords,
		WatermarkEvery: testWinRecords / testBundle,
	}
}

// runKeyedPipeline wires Source -> Window -> op -> capture and runs for
// duration virtual seconds.
func runKeyedPipeline(t *testing.T, gen engine.Generator, op engine.Operator, duration float64) (*ops.CaptureSink, engine.Stats) {
	t.Helper()
	e, err := engine.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sink := ops.NewCapture()
	nodes := e.Chain(&ops.WindowOp{TsCol: 2}, op, sink)
	if _, err := e.AddSource(gen, testSource("kv"), nodes[0], 0); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(duration)
	if err != nil {
		t.Fatal(err)
	}
	return sink, stats
}

func TestWindowedSumPerKey(t *testing.T) {
	const keys = 8
	gen := ingress.NewRoundRobinKV(keys, 1)
	sink, stats := runKeyedPipeline(t, gen, ops.NewKeyedAgg("sum", 0, 1, ops.Sum()), 0.02)
	if stats.WindowsClosed == 0 {
		t.Fatal("no windows closed")
	}
	byWin := byWindow(sink)
	if len(byWin) == 0 {
		t.Fatal("no results captured")
	}
	for win, rows := range byWin {
		if len(rows) != keys {
			t.Fatalf("window %d: %d keys, want %d", win, len(rows), keys)
		}
		for _, r := range rows {
			// Round-robin keys with value 1: sum per key = records/keys.
			if r.Val != testWinRecords/keys {
				t.Fatalf("window %d key %d: sum = %d, want %d", win, r.Key, r.Val, testWinRecords/keys)
			}
		}
	}
}

func TestWindowedCountPerKey(t *testing.T) {
	const keys = 5
	gen := ingress.NewRoundRobinKV(keys, 42)
	sink, _ := runKeyedPipeline(t, gen, ops.NewKeyedAgg("count", 0, 1, ops.Count()), 0.02)
	for win, rows := range byWindow(sink) {
		if len(rows) != keys {
			t.Fatalf("window %d: %d keys", win, len(rows))
		}
		for _, r := range rows {
			if r.Val != testWinRecords/keys {
				t.Fatalf("count = %d, want %d", r.Val, testWinRecords/keys)
			}
		}
	}
}

func TestWindowedAvgPerKey(t *testing.T) {
	const keys = 4
	gen := ingress.NewRoundRobinKV(keys, 10)
	sink, _ := runKeyedPipeline(t, gen, ops.NewKeyedAgg("avg", 0, 1, ops.Avg()), 0.02)
	if len(sink.Rows) == 0 {
		t.Fatal("no results")
	}
	for _, r := range sink.Rows {
		if r.Val != 10 {
			t.Fatalf("avg of constant-10 stream = %d", r.Val)
		}
	}
}

func TestWindowedMedianPerKey(t *testing.T) {
	gen := ingress.NewRoundRobinKV(2, 7)
	sink, _ := runKeyedPipeline(t, gen, ops.NewKeyedAgg("med", 0, 1, ops.Median()), 0.02)
	for _, r := range sink.Rows {
		if r.Val != 7 {
			t.Fatalf("median of constant-7 stream = %d", r.Val)
		}
	}
}

func TestWindowedTopKPerKey(t *testing.T) {
	gen := ingress.NewRoundRobinKV(2, 9)
	sink, _ := runKeyedPipeline(t, gen, ops.NewKeyedAgg("topk", 0, 1, ops.TopK(3)), 0.02)
	if len(sink.Rows) == 0 {
		t.Fatal("no results")
	}
	for _, r := range sink.Rows {
		if r.Val != 9 {
			t.Fatalf("topk of constant-9 stream = %d", r.Val)
		}
	}
}

func TestWindowedUniqueCountPerKey(t *testing.T) {
	gen := ingress.NewRoundRobinKV(4, 5) // constant value: 1 unique
	sink, _ := runKeyedPipeline(t, gen, ops.NewKeyedAgg("uniq", 0, 1, ops.UniqueCount()), 0.02)
	for _, r := range sink.Rows {
		if r.Val != 1 {
			t.Fatalf("unique count of constant stream = %d", r.Val)
		}
	}
}

func TestWindowedAvgAll(t *testing.T) {
	gen := ingress.NewRoundRobinKV(16, 50)
	e, _ := engine.New(testConfig())
	sink := ops.NewCapture()
	nodes := e.Chain(&ops.WindowOp{TsCol: 2}, ops.NewAvgAll(1), sink)
	e.AddSource(gen, testSource("kv"), nodes[0], 0)
	stats, err := e.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed == 0 || len(sink.Rows) == 0 {
		t.Fatal("no output")
	}
	// One record per window; avg of constant-50 stream is 50.
	byWin := byWindow(sink)
	for win, rows := range byWin {
		if len(rows) != 1 {
			t.Fatalf("window %d: %d rows, want 1", win, len(rows))
		}
		if rows[0].Val != 50 {
			t.Fatalf("avg = %d, want 50", rows[0].Val)
		}
	}
}

func TestFilterThenCount(t *testing.T) {
	const keys = 8
	gen := ingress.NewRoundRobinKV(keys, 1)
	e, _ := engine.New(testConfig())
	sink := ops.NewCapture()
	filter := &ops.FilterOp{Label: "even", Col: 0, Keep: func(v uint64) bool { return v%2 == 0 }}
	nodes := e.Chain(filter, &ops.WindowOp{TsCol: 2}, ops.NewKeyedAgg("count", 0, 1, ops.Count()), sink)
	e.AddSource(gen, testSource("kv"), nodes[0], 0)
	if _, err := e.Run(0.02); err != nil {
		t.Fatal(err)
	}
	byWin := byWindow(sink)
	if len(byWin) == 0 {
		t.Fatal("no results")
	}
	for win, rows := range byWin {
		if len(rows) != keys/2 {
			t.Fatalf("window %d: %d keys, want %d (odd keys filtered)", win, len(rows), keys/2)
		}
		for _, r := range rows {
			if r.Key%2 != 0 {
				t.Fatalf("odd key %d survived the filter", r.Key)
			}
			if r.Val != testWinRecords/keys {
				t.Fatalf("count = %d, want %d", r.Val, testWinRecords/keys)
			}
		}
	}
}

func TestTemporalJoin(t *testing.T) {
	const keys = 100
	genL := ingress.NewRoundRobinKV(keys, 1)
	genR := ingress.NewRoundRobinKV(keys, 2)
	e, _ := engine.New(testConfig())
	join := ops.NewTemporalJoin(0, 1)
	winL := e.AddOperator(&ops.WindowOp{TsCol: 2})
	winR := e.AddOperator(&ops.WindowOp{TsCol: 2})
	joinNode := e.AddOperator(join)
	sink := ops.NewCapture()
	sinkNode := e.AddOperator(sink)
	e.Connect(winL, 0, joinNode, 0)
	e.Connect(winR, 0, joinNode, 1)
	e.Connect(joinNode, 0, sinkNode, 0)
	e.AddSource(genL, testSource("L"), winL, 0)
	e.AddSource(genR, testSource("R"), winR, 0)
	stats, err := e.Run(0.015)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Records == 0 {
		t.Fatal("join produced nothing")
	}
	// Round-robin keys: each window has testWinRecords/keys records per
	// key per side; matches per window = keys * (W/keys)^2.
	perKey := int64(testWinRecords / keys)
	wantPerWindow := int64(keys) * perKey * perKey
	byWin := byWindow(sink)
	full := 0
	for _, rows := range byWin {
		if int64(len(rows)) == wantPerWindow {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no window reached the expected %d matches; got sizes %v", wantPerWindow, winSizes(byWin))
	}
	if join.PendingWindows() > 4 {
		t.Fatalf("join state not reclaimed: %d windows pending", join.PendingWindows())
	}
	_ = stats
}

func winSizes(byWin map[wm.Time][]ops.CapturedRow) map[wm.Time]int {
	out := make(map[wm.Time]int)
	for w, r := range byWin {
		out[w] = len(r)
	}
	return out
}

func TestWindowedFilter(t *testing.T) {
	// Control stream: constant value 100 -> threshold 100.
	// Data stream: alternates 50 and 150 -> half survive.
	ctrl := ingress.NewRoundRobinKV(4, 100)
	data := ingress.NewAlternatingKV(2, 50, 150)
	e, _ := engine.New(testConfig())
	wf := ops.NewWindowedFilter(1)
	winC := e.AddOperator(&ops.WindowOp{TsCol: 2})
	winD := e.AddOperator(&ops.WindowOp{TsCol: 2})
	wfNode := e.AddOperator(wf)
	sink := ops.NewCapture()
	sinkNode := e.AddOperator(sink)
	e.Connect(winC, 0, wfNode, 0)
	e.Connect(winD, 0, wfNode, 1)
	e.Connect(wfNode, 0, sinkNode, 0)
	e.AddSource(ctrl, testSource("ctrl"), winC, 0)
	e.AddSource(data, testSource("data"), winD, 0)
	if _, err := e.Run(0.015); err != nil {
		t.Fatal(err)
	}
	if sink.Records == 0 {
		t.Fatal("no survivors")
	}
	byWin := byWindow(sink)
	sawFull := false
	for _, rows := range byWin {
		if len(rows) == testWinRecords/2 {
			sawFull = true
		}
		for _, r := range rows {
			if r.Val != 150 {
				t.Fatalf("survivor value = %d, want 150", r.Val)
			}
		}
	}
	if !sawFull {
		t.Fatalf("no window passed exactly half its records: %v", winSizes(byWin))
	}
}

func TestPowerGridPipeline(t *testing.T) {
	gen := ingress.NewPowerGrid(ingress.PowerGridConfig{Seed: 3})
	e, _ := engine.New(testConfig())
	sink := ops.NewCapture()
	nodes := e.Chain(&ops.WindowOp{TsCol: 2}, ops.NewPowerGrid(), sink)
	e.AddSource(gen, testSource("pg"), nodes[0], 0)
	stats, err := e.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed == 0 {
		t.Fatal("no windows closed")
	}
	if len(sink.Rows) == 0 {
		t.Fatal("no top houses emitted")
	}
	for _, r := range sink.Rows {
		if r.Key >= 40 {
			t.Fatalf("house id %d out of range", r.Key)
		}
		if r.Val == 0 {
			t.Fatal("top house with zero high-power plugs")
		}
	}
}

func TestYSBPipeline(t *testing.T) {
	gen := ingress.NewYSB(ingress.YSBConfig{Ads: 100, Campaigns: 10, Seed: 5})
	e, _ := engine.New(testConfig())
	sink := ops.NewCapture()
	filter := &ops.FilterOp{Label: "views", Col: ingress.YSBEventType,
		Keep: func(v uint64) bool { return v == ingress.YSBEventView }}
	proj := &ops.ProjectOp{Cols: []int{ingress.YSBAdID, ingress.YSBEventTime}}
	// The external join key-swaps to ad_id, maps ad -> campaign and
	// writes campaign IDs back into the ad_id column (paper §4.3), so
	// the final aggregation groups on that column.
	extJoin := &ops.ExternalJoinOp{Label: "campaign", KeyCol: ingress.YSBAdID, Table: gen.CampaignTable()}
	window := &ops.WindowOp{TsCol: ingress.YSBEventTime}
	count := ops.NewKeyedAgg("campaigns", ingress.YSBAdID, ingress.YSBAdID, ops.Count())
	nodes := e.Chain(filter, proj, extJoin, window, count, sink)
	e.AddSource(gen, testSource("ysb"), nodes[0], 0)
	stats, err := e.Run(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsClosed == 0 || len(sink.Rows) == 0 {
		t.Fatal("YSB produced no output")
	}
	// All counts are per-campaign; campaigns are 0..9.
	var total uint64
	for _, r := range sink.Rows {
		if r.Key >= 10 {
			t.Fatalf("campaign id %d out of range", r.Key)
		}
		total += r.Val
	}
	// Roughly 1/3 of events are views (the generator draws 3 event types).
	if total == 0 {
		t.Fatal("no views counted")
	}
}

func TestEngineMemoryReclaimedAfterRun(t *testing.T) {
	gen := ingress.NewRoundRobinKV(8, 1)
	e, _ := engine.New(testConfig())
	sink := ops.NewCapture()
	nodes := e.Chain(&ops.WindowOp{TsCol: 2}, ops.NewKeyedAgg("sum", 0, 1, ops.Sum()), sink)
	e.AddSource(gen, testSource("kv"), nodes[0], 0)
	if _, err := e.Run(0.02); err != nil {
		t.Fatal(err)
	}
	// Bundles behind closed windows must be reclaimed; only the tail
	// (open windows, in-flight bundles) may remain.
	maxLive := 3 * testWinRecords / testBundle
	if live := e.Reg.Live(); live > maxLive {
		t.Fatalf("%d bundles live after run (max expected %d): leak", live, maxLive)
	}
}

func TestAggregators(t *testing.T) {
	feed := func(a interface {
		Add(uint64)
		Result() uint64
	}, vals ...uint64) uint64 {
		for _, v := range vals {
			a.Add(v)
		}
		return a.Result()
	}
	if got := feed(ops.Sum()(), 1, 2, 3); got != 6 {
		t.Errorf("sum = %d", got)
	}
	if got := feed(ops.Count()(), 9, 9, 9, 9); got != 4 {
		t.Errorf("count = %d", got)
	}
	if got := feed(ops.Avg()(), 10, 20, 30); got != 20 {
		t.Errorf("avg = %d", got)
	}
	if got := feed(ops.Avg()()); got != 0 {
		t.Errorf("empty avg = %d", got)
	}
	if got := feed(ops.Median()(), 5, 1, 9); got != 5 {
		t.Errorf("median = %d", got)
	}
	if got := feed(ops.Median()()); got != 0 {
		t.Errorf("empty median = %d", got)
	}
	if got := feed(ops.TopK(2)(), 1, 5, 3, 9); got != 5 {
		t.Errorf("top2 boundary = %d", got)
	}
	if got := feed(ops.TopK(10)(), 4, 2); got != 2 {
		t.Errorf("topk beyond size = %d", got)
	}
	if got := feed(ops.UniqueCount()(), 1, 1, 2, 3, 3, 3); got != 3 {
		t.Errorf("unique = %d", got)
	}
	if got := feed(ops.Percentile(50)(), 1, 2, 3, 4, 5); got != 3 {
		t.Errorf("p50 = %d", got)
	}
	if got := feed(ops.Percentile(100)(), 1, 2, 3); got != 3 {
		t.Errorf("p100 = %d", got)
	}
	if got := feed(ops.Percentile(100)()); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

func TestPlugKeyPacking(t *testing.T) {
	k := ops.PlugKey(39, 2, 3)
	if ops.HouseOf(k) != 39 {
		t.Errorf("house = %d", ops.HouseOf(k))
	}
	if ops.PlugKey(1, 0, 0) == ops.PlugKey(0, 1, 0) {
		t.Error("collision between house and household")
	}
}

func TestTable1OperatorPrimitives(t *testing.T) {
	// Paper Table 1: which primitives each compound operator uses. We
	// assert the operators exist and decompose as documented by
	// exercising their code paths above; here we assert the static
	// port/name contract.
	cases := []struct {
		op    engine.Operator
		ports int
	}{
		{&ops.WindowOp{}, 1},
		{&ops.FilterOp{Label: "x", Col: 0, Keep: func(uint64) bool { return true }}, 1},
		{ops.NewKeyedAgg("x", 0, 1, ops.Sum()), 1},
		{ops.NewAvgAll(1), 1},
		{ops.NewTemporalJoin(0, 1), 2},
		{ops.NewWindowedFilter(1), 2},
		{ops.NewPowerGrid(), 1},
		{&ops.UnionOp{}, 2},
		{&ops.ProjectOp{}, 1},
		{&ops.SampleOp{Every: 2}, 1},
		{&ops.ExternalJoinOp{Label: "x"}, 1},
	}
	for _, c := range cases {
		if c.op.InPorts() != c.ports {
			t.Errorf("%s: ports = %d, want %d", c.op.Name(), c.op.InPorts(), c.ports)
		}
		if c.op.Name() == "" {
			t.Error("operator without a name")
		}
	}
}
