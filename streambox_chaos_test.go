package streambox_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	streambox "streambox"
	"streambox/internal/faultinject"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

// TestChaosLoopbackEquivalence is the fault-tolerance acceptance test:
// the loopback-equivalence workload runs with fault injection on every
// client connection — random resets, partial writes, and silent one-bit
// corruption — while resumable sessions reconnect, replay, and dedupe.
// The per-window results must still be bit-identical to the fault-free
// in-process generator run: no record lost, none double-counted.
func TestChaosLoopbackEquivalence(t *testing.T) {
	chaosLoopback(t, parsefmt.Columnar, faultinject.Config{
		ResetProb:        0.01,
		PartialWriteProb: 0.005,
		CorruptProb:      0.002,
	})
}

// TestRowFrameCorruptionReplays is the one integrity rule on the row
// wire: the injector flips one bit in a share of the PB frames, and
// nothing else. Each damaged frame must fail its CRC-32C trailer at the
// server — counted, connection severed, ack not advanced — and reach the
// pipeline through the client's replay, so the record count and every
// window equal the fault-free run. (Before the trailer a damaged row
// frame was decoded as far as it parsed, acked and never replayed.)
func TestRowFrameCorruptionReplays(t *testing.T) {
	rep := chaosLoopback(t, parsefmt.PB, faultinject.Config{CorruptProb: 0.02})
	if rep.ChecksumErrors == 0 {
		t.Fatal("no frame failed its checksum: the corruption went undetected")
	}
}

// chaosLoopback streams the loopback-equivalence workload in format over
// three sessions, each behind its own injector seeded from faults, and
// checks the drained run against the fault-free generator run.
func chaosLoopback(t *testing.T, format parsefmt.Format, faults faultinject.Config) streambox.Report {
	t.Helper()
	const (
		total = 200_000
		conns = 3
	)
	gen := netio.RecordGen{Keys: 50, WindowRecords: 20_000} // 10 windows, value 1

	p, netCap := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve: &streambox.ServeConfig{
			IngestAddr: "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			// Long grace: no cursor may park mid-run, or windows would
			// close early and break equivalence. Reconnects happen in
			// milliseconds; parking is for clients that never return.
			CursorGrace: 30 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each connection gets its own deterministic injector.
	injectors := make([]*faultinject.Injector, conns)
	clients := make([]*netio.Client, conns)
	for j := range clients {
		faults.Seed = uint64(j + 1)
		injectors[j] = faultinject.New(faults)
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{
			Format:       format,
			FrameRecords: 256,
			Faults:       injectors[j],
			Reconnect: &netio.ReconnectConfig{
				MaxRetries: 100,
				BaseDelay:  time.Millisecond,
				MaxDelay:   20 * time.Millisecond,
				Seed:       uint64(j + 1),
			},
		})
		if err != nil {
			t.Fatalf("conn %d: dial: %v", j, err)
		}
		clients[j] = c
	}
	var wg sync.WaitGroup
	for j := 0; j < conns; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sendPartition(t, clients[j], gen, j, conns, total, 0, nil, nil)
		}(j)
	}
	wg.Wait()

	var reconnects, replayed, resets, partials, corruptions int64
	for j, c := range clients {
		reconnects += c.Reconnects()
		replayed += c.Replayed()
		fc := injectors[j].Counters()
		resets += fc.Resets
		partials += fc.PartialWrites
		corruptions += fc.Corruptions
	}
	if resets+partials+corruptions == 0 {
		t.Fatal("fault injector fired zero faults; the test exercised nothing")
	}
	if reconnects == 0 {
		t.Fatalf("no reconnects despite %d resets, %d partial writes, %d corruptions",
			resets, partials, corruptions)
	}

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IngestedRecords != total {
		t.Fatalf("ingested %d records, want exactly %d (loss or duplication under faults)",
			rep.IngestedRecords, total)
	}
	if rep.SessionsResumed < reconnects {
		t.Fatalf("SessionsResumed %d < client reconnects %d", rep.SessionsResumed, reconnects)
	}
	t.Logf("chaos: %d resets, %d partial writes, %d corruptions -> %d reconnects, %d frames replayed, %d dup frames discarded",
		resets, partials, corruptions, reconnects, replayed, rep.DuplicateFrames)

	// Ground truth: the identical stream via the in-process generator,
	// fault-free.
	refP := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	refCap := refP.Source(netio.NewStreamGen(gen), streambox.SourceConfig{
		Name:           "ref",
		Rate:           total,
		BundleRecords:  1000,
		WindowRecords:  20_000,
		WatermarkEvery: 10,
	}).
		Window(streambox.NetworkTsCol).
		SumPerKey(0, 3).
		Capture()
	if _, err := streambox.Run(refP, streambox.RunConfig{Backend: streambox.Native, Duration: 1}); err != nil {
		t.Fatal(err)
	}

	got, want := sortedRows(netCap), sortedRows(refCap)
	if len(got) != len(want) {
		t.Fatalf("chaos run produced %d rows, generator run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs under faults: network %s, generator %s", i, got[i], want[i])
		}
	}
	if len(got) != 10*50 {
		t.Fatalf("row count %d, want 10 windows × 50 keys", len(got))
	}
	return rep
}

// TestHungClientCursorExpiry pins the liveness guarantee end to end: a
// client that goes silent forever is idle-severed, its session cursor
// parked after the grace period so other connections' windows keep
// closing, and finally expired so it cannot resume.
func TestHungClientCursorExpiry(t *testing.T) {
	const total = 10_000
	gen := netio.RecordGen{Keys: 20, WindowRecords: 2_000} // 5 windows

	p, _ := netPipeline()
	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend: streambox.Native,
		Serve: &streambox.ServeConfig{
			IngestAddr:     "127.0.0.1:0",
			HTTPAddr:       "127.0.0.1:0",
			IdleTimeout:    150 * time.Millisecond,
			CursorGrace:    100 * time.Millisecond,
			SessionTimeout: 400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The hung client: delivers window 0, then silence forever.
	hung, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{
		Format:       parsefmt.Columnar,
		FrameRecords: 256,
		Reconnect:    &netio.ReconnectConfig{MaxRetries: 1, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hung.Send(gen.Records(0, 1000)); err != nil {
		t.Fatal(err)
	}

	// A healthy connection streams the whole workload and ends its
	// stream cleanly. (Left open and idle it would itself be
	// idle-severed, parked and expired like the hung one.)
	healthy, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar, FrameRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Send(gen.Records(0, total)); err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}

	// With the hung cursor sitting in window 0, windows past it can only
	// close once the idle sever + cursor grace have parked it.
	base := "http://" + srv.HTTPAddr()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var wins struct{ Windows []netio.WindowResult }
		if err := json.Unmarshal(httpGet(t, base+"/windows"), &wins); err != nil {
			t.Fatalf("/windows JSON: %v", err)
		}
		closed := false
		for _, w := range wins.Windows {
			if w.Start >= 3*uint64(streambox.Second) {
				closed = true
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("windows never closed past the hung client's cursor")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The abandoned session then expires outright.
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(string(httpGet(t, base+"/metrics")), "streambox_ingest_sessions_expired_total 1") {
		if time.Now().After(deadline) {
			t.Fatal("hung session never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}

	hung.Close() // best effort: its session is gone, an error here is expected

	rep, err := srv.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.IdleTimeouts < 1 {
		t.Fatalf("IdleTimeouts = %d, want >= 1", rep.IdleTimeouts)
	}
	if rep.ExpiredSessions != 1 {
		t.Fatalf("ExpiredSessions = %d, want 1", rep.ExpiredSessions)
	}
	if rep.IngestedRecords != total+1000 {
		t.Fatalf("ingested %d records, want %d", rep.IngestedRecords, total+1000)
	}
}
