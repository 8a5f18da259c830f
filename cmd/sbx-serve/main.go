// Command sbx-serve runs a keyed-aggregation pipeline as a long-lived
// network server on the native backend: external clients (sbx-loadgen,
// or anything speaking the netio wire protocol) stream records in over
// TCP, and live window results and engine metrics are queryable over
// HTTP while the pipeline runs.
//
//	sbx-serve -pipeline sum -ingest :7077 -http :7078
//	sbx-serve -pipeline topk -duration 30
//
// The stream carries the seven-column wire schema (ad_id, ad_type,
// event_type, user_id, page_id, ip, event_time); by default the
// pipeline keys on ad_id (column 0), aggregates user_id (column 3) and
// windows on event_time, and clients send only the columns it reads.
// A -wal-dir log holds only those columns too: a restart under flags
// that read a column the log lacks is refused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"syscall"
	"time"

	streambox "streambox"
	"streambox/internal/faultinject"
)

func main() {
	pipeline := flag.String("pipeline", "sum", "aggregation: sum|count|avg|median|topk|unique")
	ingest := flag.String("ingest", ":7077", "TCP ingest listener address")
	httpAddr := flag.String("http", ":7078", "HTTP query/metrics address (empty disables)")
	keyCol := flag.Int("key-col", 0, "grouping column (0 = ad_id)")
	valCol := flag.Int("val-col", 3, "value column (3 = user_id)")
	workers := flag.Int("workers", 0, "worker goroutines (0 = one per CPU)")
	duration := flag.Float64("duration", 0, "wall seconds to serve before draining (0 = until SIGINT)")
	keep := flag.Int("keep", 16, "closed windows retained per sink for GET /windows")
	k := flag.Int("k", 10, "k for -pipeline topk")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "sever connections silent this long (0 disables)")
	cursorGrace := flag.Duration("cursor-grace", 10*time.Second, "park a dead session's watermark cursor after this (windows close without it)")
	sessionTimeout := flag.Duration("session-timeout", 2*time.Minute, "expire a dead session (no more resume) after this")
	maxConns := flag.Int("max-conns", 0, "shed ingest handshakes past this many live connections (0 = unlimited)")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "SIGTERM: wait this long for clients to finish before severing")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: frames are fsynced before they are acked, and a previous run's log and checkpoint there are recovered before serving (empty disables durability)")
	ckInterval := flag.Duration("checkpoint-interval", time.Second, "recovery checkpoint cadence with a WAL attached")
	crashAfter := flag.Int64("crash-after-bytes", 0, "fault injection: SIGKILL this process after reading this many ingest bytes (crash-recovery testing)")
	crashSeed := flag.Uint64("crash-seed", 1, "seed jittering the exact crash point of -crash-after-bytes")
	resultsJSON := flag.String("results-json", "", "after shutdown, write the final window results to this file as JSON")
	reportJSON := flag.String("report-json", "", "after shutdown, write the final report to this file as JSON")
	spillDir := flag.String("spill-dir", "", "directory for the mmap'd cold spill tier's temp file (empty = system temp dir; only used with -spill-cap)")
	spillCap := flag.Int64("spill-cap", 0, "spill-tier capacity in bytes: an mmap'd arena where runs are born once HBM and DRAM are both over the placement setpoint, and merged from in place (0 disables)")
	flag.Parse()

	// A log directory that already holds files is a previous run's,
	// which Serve recovers before it listens.
	var recovering bool
	if *walDir != "" {
		ents, _ := os.ReadDir(*walDir)
		recovering = len(ents) > 0
	}

	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	s := p.NetworkSource(streambox.SourceConfig{Name: "net"}).
		Window(streambox.NetworkTsCol)
	switch *pipeline {
	case "sum":
		s = s.SumPerKey(*keyCol, *valCol)
	case "count":
		s = s.CountPerKey(*keyCol)
	case "avg":
		s = s.AvgPerKey(*keyCol, *valCol)
	case "median":
		s = s.MedianPerKey(*keyCol, *valCol)
	case "topk":
		s = s.TopKPerKey(*keyCol, *valCol, *k)
	case "unique":
		s = s.UniqueCountPerKey(*keyCol, *valCol)
	default:
		fmt.Fprintf(os.Stderr, "unknown pipeline %q (sum|count|avg|median|topk|unique)\n", *pipeline)
		os.Exit(2)
	}
	s.Sink("out")

	var faults *faultinject.Injector
	if *crashAfter > 0 {
		faults = faultinject.New(faultinject.Config{CrashAfterBytes: *crashAfter, Seed: *crashSeed})
	}

	srv, err := streambox.Serve(p, streambox.RunConfig{
		Backend:       streambox.Native,
		Workers:       *workers,
		SpillDir:      *spillDir,
		SpillCapacity: *spillCap,
		Serve: &streambox.ServeConfig{
			IngestAddr:         *ingest,
			HTTPAddr:           *httpAddr,
			KeepWindows:        *keep,
			IdleTimeout:        *idleTimeout,
			CursorGrace:        *cursorGrace,
			SessionTimeout:     *sessionTimeout,
			MaxConns:           *maxConns,
			Faults:             faults,
			WALDir:             *walDir,
			CheckpointInterval: *ckInterval,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w := *workers
	if w == 0 {
		w = goruntime.GOMAXPROCS(0)
	}
	keyName := fmt.Sprintf("col%d", *keyCol)
	if cols := streambox.NetworkColumns(); *keyCol >= 0 && *keyCol < len(cols) {
		keyName = cols[*keyCol]
	}
	fmt.Printf("serving:    %s per %s per window on %d workers\n", *pipeline, keyName, w)
	fmt.Printf("ingest:     tcp %s (netio wire protocol)\n", srv.IngestAddr())
	if a := srv.HTTPAddr(); a != "" {
		fmt.Printf("queries:    http://%s/windows  http://%s/metrics\n", a, a)
	}
	if recovering {
		fmt.Printf("recovery:   %d sessions restored, %d frames replayed in %.3f s from %s\n",
			srv.RecoveredSessions(), srv.ReplayedFrames(), float64(srv.RecoveryNs())/1e9, *walDir)
	}
	if *walDir != "" {
		fmt.Printf("wal:        logging to %s (checkpoint every %s)\n", *walDir, *ckInterval)
	}

	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	var sig os.Signal
	if *duration > 0 {
		select {
		case <-time.After(time.Duration(*duration * float64(time.Second))):
		case sig = <-sigC:
		}
	} else {
		sig = <-sigC
	}

	// SIGTERM runs the ordered drain: stop accepting, give clients the
	// grace window to finish their streams cleanly, then flush windows
	// and report. SIGINT (and -duration expiry) shuts down immediately.
	var rep streambox.Report
	if sig == syscall.SIGTERM && *drainGrace > 0 {
		fmt.Printf("draining (grace %s)...\n", *drainGrace)
		rep, err = srv.DrainShutdown(*drainGrace)
	} else {
		fmt.Println("draining...")
		rep, err = srv.Shutdown()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline error:", err)
	}
	fmt.Printf("ingested:   %d records in %.3f s (%.1f k rec/s)\n",
		rep.IngestedRecords, rep.WallSeconds, rep.Throughput/1e3)
	fmt.Printf("results:    %d records, %d windows closed\n", rep.EmittedRecords, rep.WindowsClosed)
	fmt.Printf("network:    %d dropped records, %d decode errors, %d checksum errors\n",
		rep.DroppedRecords, rep.DecodeErrors, rep.ChecksumErrors)
	fmt.Printf("faults:     %d resumes, %d duplicate frames, %d shed conns, %d expired sessions, %d idle timeouts\n",
		rep.SessionsResumed, rep.DuplicateFrames, rep.ShedConns, rep.ExpiredSessions, rep.IdleTimeouts)
	if *walDir != "" {
		fmt.Printf("wal:        %d frames logged, %d syncs (fsync p99 %.3f ms), %d segments retired, %d left unsealed\n",
			rep.WALAppendedFrames, rep.WALSyncs, float64(rep.WALFsyncP99Ns)/1e6,
			rep.WALSegmentsRetired, rep.WALSegmentsActive)
	}
	if recovering {
		fmt.Printf("recovery:   %d sessions restored, %d frames replayed in %.3f s\n",
			rep.RecoveredSessions, rep.ReplayedFrames, float64(rep.RecoveryNs)/1e9)
	}
	if *resultsJSON != "" {
		if werr := writeJSON(*resultsJSON, struct {
			Windows []streambox.WindowResult `json:"windows"`
		}{srv.Results()}); werr != nil {
			fmt.Fprintln(os.Stderr, "results-json:", werr)
			os.Exit(1)
		}
	}
	if *reportJSON != "" {
		if werr := writeJSON(*reportJSON, rep); werr != nil {
			fmt.Fprintln(os.Stderr, "report-json:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
