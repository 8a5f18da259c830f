package streambox_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	streambox "streambox"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

// TestDrainShutdownSealsWAL pins the graceful-stop contract of the
// durability layer: a SIGTERM-style drain with resumable sessions still
// attached mid-stream must flush the write-ahead log, persist one final
// checkpoint that seals the complete run, and purge every log segment —
// the next start on the same -wal-dir recovers from the checkpoint alone. It
// doubles as the goroutine-leak check: after Shutdown returns, the
// session reaper, the WAL sync and retirement tickers, and the
// checkpoint loop must all be gone.
func TestDrainShutdownSealsWAL(t *testing.T) {
	walDir := t.TempDir()
	p, _ := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve: &streambox.ServeConfig{
			IngestAddr:         "127.0.0.1:0",
			WALDir:             walDir,
			CheckpointInterval: 20 * time.Millisecond,
			CursorGrace:        time.Minute,
			SessionTimeout:     time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two resumable sessions, both mid-stream — frames sent, no EOS —
	// when the drain begins, exactly like live loadgen connections at
	// SIGTERM time.
	gen := netio.RecordGen{Keys: 20, WindowRecords: 2_000}
	clients := make([]*netio.Client, 2)
	for j := range clients {
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{
			Format:       parsefmt.Columnar,
			FrameRecords: 128,
			WriteTimeout: 500 * time.Millisecond,
			Reconnect:    &netio.ReconnectConfig{MaxRetries: 1, BaseDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatalf("conn %d: dial: %v", j, err)
		}
		clients[j] = c
	}
	for j, c := range clients {
		if err := c.Send(gen.Records(uint64(j*1000), uint64(j*1000+512))); err != nil {
			t.Fatalf("conn %d: send: %v", j, err)
		}
	}

	rep, err := srv.DrainShutdown(300 * time.Millisecond)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, c := range clients {
		c.Close() // severed by the drain; errors are expected
	}

	if rep.WALAppendedFrames == 0 {
		t.Error("WALAppendedFrames = 0: session frames never reached the log")
	}
	if rep.WALSyncs == 0 {
		t.Error("WALSyncs = 0: acked frames were never fsynced")
	}
	if rep.WALSegmentsActive != 0 {
		t.Errorf("WALSegmentsActive = %d after drain, want 0", rep.WALSegmentsActive)
	}
	if _, err := os.Stat(filepath.Join(walDir, "checkpoint.ckpt")); err != nil {
		t.Errorf("no final checkpoint after drain: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 0 {
		t.Errorf("%d unsealed segments left after drain: %v", len(segs), segs)
	}

	// Leak check: every background loop the server owns must have
	// exited by the time Shutdown returned. Retry briefly — a loop may
	// be a few instructions from returning when Shutdown's last channel
	// close lands.
	leakers := []string{
		"netio.(*Server).reaper",
		"serve.(*Server).checkpointLoop",
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		var leaked []string
		for _, fn := range leakers {
			if strings.Contains(stacks, fn) {
				leaked = append(leaked, fn)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines still running after Shutdown: %v\n%s", leaked, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryRejectsSessionlessLog: a write-ahead log holding a frame
// record with session token 0 was written by the retired sessionless
// wire mode. Recovery used to restore it under a synthetic cursor;
// there is no such mode to restore it into any more, so the start must
// fail and say why rather than mis-restore the frame as session 0.
func TestRecoveryRejectsSessionlessLog(t *testing.T) {
	walDir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]uint64, netio.WireSchema().NumCols)
	for i := range cols {
		cols[i] = []uint64{1, 2, 3}
	}
	ranges := make([]parsefmt.ColRange, len(cols))
	parsefmt.ColumnRanges(cols, ranges)
	if err := log.AppendFrame(0, 1, 0, 3, cols, ranges, true); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	p, _ := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve:   &streambox.ServeConfig{IngestAddr: "127.0.0.1:0", WALDir: walDir},
	})
	if err == nil {
		srv.Shutdown()
		t.Fatal("recovery accepted a log with a session-token-0 frame record")
	}
	if !strings.Contains(err.Error(), "sessionless") {
		t.Fatalf("recovery error %q does not name the retired sessionless format", err)
	}
}
