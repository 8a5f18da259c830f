package ops

import (
	"streambox/internal/engine"
	"streambox/internal/wm"
)

// CapturedRow is one result record observed by a CaptureSink.
type CapturedRow struct {
	Key uint64
	Val uint64
	Win wm.Time
}

// CaptureSink terminates a pipeline and keeps every result record for
// inspection — integration tests and examples use it to verify pipeline
// output; production pipelines use engine.EgressSink.
type CaptureSink struct {
	// Rows holds the captured (key, value, window) triples.
	Rows []CapturedRow
	// Records counts result records (including non-bundle inputs).
	Records int64

	lastWM wm.Time
}

var _ engine.Operator = (*CaptureSink)(nil)

// NewCapture creates the sink.
func NewCapture() *CaptureSink { return &CaptureSink{} }

// Name implements engine.Operator.
func (s *CaptureSink) Name() string { return "capture" }

// InPorts implements engine.Operator.
func (s *CaptureSink) InPorts() int { return 1 }

// OnInput records the result rows and releases the input.
func (s *CaptureSink) OnInput(ctx *engine.Ctx, port int, in engine.Input) {
	s.Records += int64(in.Rows())
	ctx.Engine().CountEmitted(int64(in.Rows()))
	if in.B != nil {
		cols := in.B.Schema().NumCols
		for i := 0; i < in.B.Rows(); i++ {
			row := CapturedRow{Key: in.B.At(i, 0), Win: in.WinStart}
			if cols > 1 {
				row.Val = in.B.At(i, 1)
			}
			s.Rows = append(s.Rows, row)
		}
	} else if in.K != nil {
		for _, key := range in.K.Keys() {
			s.Rows = append(s.Rows, CapturedRow{Key: key, Win: in.WinStart})
		}
	}
	in.Release()
}

// OnWatermark records output delays once per watermark.
func (s *CaptureSink) OnWatermark(ctx *engine.Ctx, port int, w wm.Time) {
	if w <= s.lastWM {
		return
	}
	s.lastWM = w
	ctx.Engine().SinkWatermark(w, ctx.Now())
}
