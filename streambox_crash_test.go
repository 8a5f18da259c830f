package streambox_test

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	streambox "streambox"
	"streambox/internal/faultinject"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

// crashHelperOut is what the recovered server subprocess reports back
// to the parent test.
type crashHelperOut struct {
	Windows []streambox.WindowResult `json:"windows"`
	Report  streambox.Report         `json:"report"`
}

// TestCrashHelperServer is not a test of its own: it is the server
// subprocess of TestCrashRecoveryEquivalence, re-executed from the
// test binary so a real SIGKILL can take the whole process down. In
// "crash" mode it serves with a WAL and a process-crash fault injector
// armed; in "recover" mode it restarts on the same WAL directory,
// which it recovers first, serves until SIGTERM, then drains and writes
// its final windows and report as JSON.
func TestCrashHelperServer(t *testing.T) {
	if os.Getenv("SBX_CRASH_HELPER") == "" {
		t.Skip("subprocess helper for TestCrashRecoveryEquivalence")
	}
	mode := os.Getenv("SBX_CRASH_MODE")
	sc := &streambox.ServeConfig{
		IngestAddr:  os.Getenv("SBX_CRASH_ADDR"),
		KeepWindows: 32,
		// No cursor may park or expire across the crash window, or the
		// equivalence check would race the reaper.
		CursorGrace:    time.Minute,
		SessionTimeout: 5 * time.Minute,
		// Checkpoints, which roll the log and retire its segments, run
		// within the test: the recovered run retires the crashed run's
		// segment.
		CheckpointInterval: 50 * time.Millisecond,
	}
	switch mode {
	case "crash":
		var crashBytes int64
		fmt.Sscan(os.Getenv("SBX_CRASH_BYTES"), &crashBytes)
		sc.WALDir = os.Getenv("SBX_CRASH_DIR")
		sc.Faults = faultinject.New(faultinject.Config{CrashAfterBytes: crashBytes, Seed: 7})
	case "recover":
		sc.WALDir = os.Getenv("SBX_CRASH_DIR")
	default:
		t.Fatalf("bad SBX_CRASH_MODE %q", mode)
	}

	p, _ := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{Backend: streambox.Native, Serve: sc})
	if err != nil {
		t.Fatalf("serve (%s): %v", mode, err)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGTERM)
	select {
	case <-sigC:
	case <-time.After(2 * time.Minute):
		os.Exit(3) // crash mode should have been SIGKILLed long ago
	}
	rep, err := srv.DrainShutdown(30 * time.Second)
	if err != nil {
		t.Fatalf("drain (%s): %v", mode, err)
	}
	b, err := json.Marshal(crashHelperOut{Windows: srv.Results(), Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("SBX_CRASH_OUT"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryEquivalence is the acceptance test for the
// durability layer: clients stream a deterministic workload into a
// WAL-enabled server that SIGKILLs itself mid-run, a second server
// recovers from the log and checkpoint on the same address, the
// clients resume their sessions and finish — and the final per-window
// results are bit-identical to the fault-free in-process generator
// run. No record lost to the crash, none double-counted by the
// client replay + log replay overlap. The clients pause until a
// checkpoint has rolled the log, and the crash must leave at least two
// segments, so recovery replays across a roll.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	const (
		total = 60_000
		conns = 3
	)
	gen := netio.RecordGen{Keys: 50, WindowRecords: 6_000} // 10 windows, value 1

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	outFile := filepath.Join(dir, "out.json")

	// Pre-pick a fixed port both server incarnations bind, so the
	// clients' reconnect loop redials one stable address across the
	// crash.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	helper := func(mode string, extra ...string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashHelperServer$")
		cmd.Env = append(os.Environ(),
			"SBX_CRASH_HELPER=1",
			"SBX_CRASH_MODE="+mode,
			"SBX_CRASH_ADDR="+addr,
			"SBX_CRASH_DIR="+walDir,
			"SBX_CRASH_OUT="+outFile,
		)
		cmd.Env = append(cmd.Env, extra...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	}
	waitListening := func(who string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				c.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s server never started listening on %s", who, addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Phase 1: the crashing server. ~1.5 MB of wire traffic total (the
	// three columns the plan reads, 24 B/rec); the injector SIGKILLs the
	// process after ~640 KB read — mid-stream, mid-window, with sealed
	// and unsealed windows on disk.
	crash := helper("crash", "SBX_CRASH_BYTES=640000")
	if err := crash.Start(); err != nil {
		t.Fatal(err)
	}
	waitListening("crash-mode")

	clients := make([]*netio.Client, conns)
	for j := range clients {
		c, err := netio.Dial(addr, netio.ClientConfig{
			Format:       parsefmt.Columnar,
			FrameRecords: 256,
			Reconnect: &netio.ReconnectConfig{
				MaxRetries: 2000,
				BaseDelay:  5 * time.Millisecond,
				MaxDelay:   100 * time.Millisecond,
				Seed:       uint64(j + 1),
			},
		})
		if err != nil {
			t.Fatalf("conn %d: dial: %v", j, err)
		}
		clients[j] = c
	}
	// Every client pauses after its first ~3 000 records (~216 KB in
	// all, well below the crash point) until a checkpoint has rolled the
	// log to its second segment, and holds its last frame and its Close
	// until the crash, so each one crosses it.
	const pauseAfter = 3_000
	rolled, crashed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sendPartition(t, clients[j], gen, j, conns, total, pauseAfter, rolled, crashed)
		}(j)
	}
	second := filepath.Join(walDir, "wal-0000000000000001.seg")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, err := os.Stat(second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			crash.Process.Kill()
			crash.Wait()
			t.Fatalf("no checkpoint rolled the log to %s within 30 s", second)
		}
	}
	close(rolled)

	// The server kills itself; a clean exit means the injector never
	// fired and the test exercised nothing.
	err = crash.Wait()
	close(crashed)
	if crash.ProcessState.Success() {
		t.Fatal("crash-mode server exited cleanly; the crash injector never fired")
	}
	if ws, ok := crash.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signal() != syscall.SIGKILL {
		t.Fatalf("crash-mode server died of %v, want SIGKILL (err %v)", ws.Signal(), err)
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) < 2 {
		t.Errorf("the crash left %d segments (%v), want at least 2: recovery replays no roll", len(segs), segs)
	}

	// Phase 2: recover on the same address while the clients are mid
	// reconnect-retry. They resume their sessions at the durable ack
	// and stream the rest.
	rec := helper("recover")
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	waitListening("recover-mode")
	wg.Wait()
	if t.Failed() {
		rec.Process.Kill()
		rec.Wait()
		t.FailNow()
	}

	var reconnects int64
	for _, c := range clients {
		reconnects += c.Reconnects()
	}
	if reconnects < conns {
		t.Errorf("reconnects = %d, want >= %d (every client crossed the crash)", reconnects, conns)
	}

	if err := rec.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := rec.Wait(); err != nil {
		t.Fatalf("recovered server failed: %v", err)
	}
	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("recovered server wrote no output: %v", err)
	}
	var out crashHelperOut
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}

	// The recovered server must have actually recovered something.
	if out.Report.RecoveredSessions != conns {
		t.Errorf("RecoveredSessions = %d, want %d", out.Report.RecoveredSessions, conns)
	}
	if out.Report.ReplayedFrames == 0 {
		t.Error("ReplayedFrames = 0: recovery replayed nothing from the log")
	}
	if out.Report.SessionsResumed < conns {
		t.Errorf("SessionsResumed = %d, want >= %d", out.Report.SessionsResumed, conns)
	}
	// Clean shutdown seals the log: the final checkpoint stands alone.
	if out.Report.WALSegmentsActive != 0 {
		t.Errorf("WALSegmentsActive = %d after clean shutdown, want 0", out.Report.WALSegmentsActive)
	}
	if segs, _ := filepath.Glob(filepath.Join(walDir, "wal-*.seg")); len(segs) != 0 {
		t.Errorf("%d unsealed segments left after clean shutdown: %v", len(segs), segs)
	}

	// Ground truth: the identical stream via the in-process generator,
	// fault-free, no crash.
	refP := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	refCap := refP.Source(netio.NewStreamGen(gen), streambox.SourceConfig{
		Name:           "ref",
		Rate:           total,
		BundleRecords:  1000,
		WindowRecords:  6_000,
		WatermarkEvery: 10,
	}).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	if _, err := streambox.Run(refP, streambox.RunConfig{Backend: streambox.Native, Duration: 1}); err != nil {
		t.Fatal(err)
	}

	got := make([]string, 0, 10*50)
	for _, w := range out.Windows {
		for _, r := range w.Rows {
			got = append(got, fmt.Sprintf("%d/%d=%d", w.Start, r.Key, r.Val))
		}
	}
	sort.Strings(got)
	want := sortedRows(refCap)
	if len(got) != len(want) {
		for _, w := range out.Windows {
			t.Logf("window sink=%s start=%d rows=%d", w.Sink, w.Start, len(w.Rows))
			if len(w.Rows) > 50 {
				vals := map[uint64][]uint64{}
				for _, r := range w.Rows {
					vals[r.Key] = append(vals[r.Key], r.Val)
				}
				t.Logf("  key 0 vals: %v", vals[0])
				t.Logf("  key 1 vals: %v", vals[1])
			}
		}
		t.Fatalf("recovered run produced %d rows, generator run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs across the crash: recovered %s, generator %s", i, got[i], want[i])
		}
	}
	if len(got) != 10*50 {
		t.Fatalf("row count %d, want 10 windows × 50 keys", len(got))
	}
	t.Logf("crash recovery: %d reconnects, %d sessions restored, %d frames replayed in %.3f s, %d rows bit-identical",
		reconnects, out.Report.RecoveredSessions, out.Report.ReplayedFrames,
		float64(out.Report.RecoveryNs)/1e9, len(got))
}
