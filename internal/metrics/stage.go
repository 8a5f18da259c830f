package metrics

import (
	"context"
	"runtime/pprof"
)

// Stage is a CPU-profile label, stage=<name>, built once. Enter sets it
// on the calling goroutine — one pointer store, no allocation — so the
// goroutine's CPU samples count in that stage until its next Enter, and
// a profile's per-stage shares (go tool pprof -tags) sum to its total. A
// goroutine starts in its creator's stage; each the program starts
// enters its own.
type Stage struct{ ctx context.Context }

func stage(name string) Stage {
	return Stage{pprof.WithLabels(context.Background(), pprof.Labels("stage", name))}
}

// Enter labels the calling goroutine with the stage.
func (s Stage) Enter() { pprof.SetGoroutineLabels(s.ctx) }

var (
	// Native runtime: workers, their tasks, the ingest loop, a generator.
	StageSched, StageExtract, StageSeal = stage("sched"), stage("extract"), stage("seal")
	StageClose, StagePublish            = stage("close"), stage("publish")
	StageIngest, StageFill              = stage("ingest"), stage("fill")
	// Ingest server: acceptor, reaper, a connection's steps; the client.
	StageAccept, StageReap           = stage("accept"), stage("reap")
	StageRead, StageDecode, StageWAL = stage("read"), stage("decode"), stage("wal")
	StagePush, StageAck, StageCredit = stage("push"), stage("ack"), stage("credit")
	// Serving layer: checkpoints, closing ingest at the run's end, HTTP.
	StageCheckpoint, StageShutdown, StageHTTP = stage("checkpoint"), stage("shutdown"), stage("http")
)
