package streambox_test

import (
	"testing"

	streambox "streambox"
	"streambox/internal/engine"
	"streambox/internal/ops"
)

func TestTopKAndPercentileStreams(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	src := p.Source(streambox.RoundRobinKV(4, 9), smallSource(2e6)).Window(2)
	topk := src.TopKPerKey(0, 1, 3).Capture()
	if _, err := streambox.Run(p, streambox.RunConfig{Duration: 0.01}); err != nil {
		t.Fatal(err)
	}
	if len(topk.Rows) == 0 {
		t.Fatal("no topk rows")
	}
	for _, r := range topk.Rows {
		if r.Val != 9 {
			t.Fatalf("topk of constant stream = %d", r.Val)
		}
	}
}

func TestSampleStream(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	res := p.Source(streambox.RoundRobinKV(8, 1), smallSource(2e6)).
		Sample(0, 2). // keep even keys only
		Window(2).
		CountPerKey(0).
		Capture()
	if _, err := streambox.Run(p, streambox.RunConfig{Duration: 0.01}); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Key%2 != 0 {
			t.Fatalf("sample kept key %d", r.Key)
		}
	}
}

func TestApplyCustomOperator(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	res := p.Source(streambox.RoundRobinKV(4, 7), smallSource(2e6)).
		Apply(func() engine.Operator { return &ops.WindowOp{TsCol: 2} }).
		Apply(func() engine.Operator { return ops.NewKeyedAgg("median", 0, 1, ops.Median()) }).
		Capture()
	if _, err := streambox.Run(p, streambox.RunConfig{Duration: 0.01}); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Val != 7 {
			t.Fatalf("median = %d", r.Val)
		}
	}
}

func TestRecordSeriesInReport(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p.Source(streambox.RoundRobinKV(4, 1), smallSource(2e6)).Window(2).CountPerKey(0).Sink("out")
	rep, err := streambox.Run(p, streambox.RunConfig{Duration: 0.05, RecordSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) < 3 {
		t.Fatalf("series samples = %d", len(rep.Series))
	}
}

func TestCrossPipelineJoinPanics(t *testing.T) {
	p1 := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p2 := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	a := p1.Source(streambox.RoundRobinKV(2, 1), smallSource(1e6))
	b := p2.Source(streambox.RoundRobinKV(2, 1), smallSource(1e6))
	defer func() {
		if recover() == nil {
			t.Fatal("cross-pipeline join must panic")
		}
	}()
	a.Join(b, 0, 1)
}

func TestReportThroughputConsistency(t *testing.T) {
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p.Source(streambox.RoundRobinKV(4, 1), smallSource(3e6)).Window(2).CountPerKey(0).Sink("out")
	rep, err := streambox.Run(p, streambox.RunConfig{Duration: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Offered 3 M rec/s for 20 ms: throughput within 20% of offered.
	if rep.Throughput < 2.4e6 || rep.Throughput > 3.6e6 {
		t.Fatalf("throughput = %g, want ~3e6", rep.Throughput)
	}
	if rep.PeakHBMBW <= 0 {
		t.Fatal("no HBM bandwidth recorded")
	}
}
