package metrics

import (
	"context"
	"runtime/pprof"
	"testing"
)

// TestStageEnterAllocatesNothing: a stage is entered per task and per
// frame, so Enter must stay a pointer store.
func TestStageEnterAllocatesNothing(t *testing.T) {
	defer pprof.SetGoroutineLabels(context.Background())
	if n := testing.AllocsPerRun(100, func() {
		StageExtract.Enter()
		StageSched.Enter()
	}); n != 0 {
		t.Fatalf("entering a stage allocates %v times", n)
	}
}
