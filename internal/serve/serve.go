// Package serve runs a native plan as a long-lived network service. It
// owns everything between the declarative API and the layers it joins:
// the ingest listener (internal/netio) feeding the engine
// (internal/runtime), the live result store behind GET /windows, the
// /metrics endpoint, and — with a write-ahead log (internal/wal) — the
// recovery checkpoint, crash recovery and the sealing drain. The root
// package translates a Pipeline into the Plan served here and assembles
// the public Report from what Shutdown hands back.
package serve

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"streambox/internal/faultinject"
	"streambox/internal/memsim"
	"streambox/internal/metrics"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
	"streambox/internal/runtime"
	"streambox/internal/wal"
	"streambox/internal/wm"
)

// Config configures a network-serving execution: where to listen for
// ingest traffic and for live queries. Ingest speaks the one netio wire
// protocol: every client stream is a resumable session, in whichever of
// the two payload formats (PB, columnar) its hello names.
type Config struct {
	// IngestAddr is the TCP ingest listener address, e.g. ":7077" or
	// "127.0.0.1:0" (required).
	IngestAddr string
	// HTTPAddr is the query/metrics listener address; empty disables
	// the HTTP endpoint.
	HTTPAddr string
	// KeepWindows is the number of recent closed windows retained per
	// sink for GET /windows (0 picks 16).
	KeepWindows int
	// IdleTimeout severs connections silent past it in steady state;
	// the session is then parked and expired by the grace deadlines
	// below, like that of any client lost without an end-of-stream
	// marker. Zero disables the deadline.
	IdleTimeout time.Duration
	// CursorGrace is how long a disconnected session's watermark cursor
	// keeps stalling window closes before it is parked (0 picks 10s,
	// negative disables) — so a client that vanishes without ending its
	// stream holds every later window for that long. SessionTimeout is
	// how long the session stays resumable before it is expired
	// outright (0 picks 120s, negative disables).
	CursorGrace    time.Duration
	SessionTimeout time.Duration
	// MaxConns caps concurrently served ingest connections; handshakes
	// past the cap are shed with an overloaded ack. Zero = unlimited.
	// Independently of the cap, new connections are shed while mempool
	// pressure exceeds runtime.ShedUtilization.
	MaxConns int
	// Faults, when non-nil, wraps accepted ingest connections with the
	// fault injector (chaos testing only).
	Faults *faultinject.Injector
	// WALDir, when non-empty, enables the write-ahead frame log in that
	// directory: a session is durable from its grant, every accepted
	// frame is persisted through a group-commit fsync before its ack can
	// advance, and periodic
	// checkpoints of the recovery metadata (session table, watermark
	// cursors, sealed result windows) land beside the segments. A clean
	// Shutdown seals everything, writes a final checkpoint and deletes
	// the segments. Serve first recovers whatever the directory holds
	// from a previous run: the checkpoint is restored, unsealed frames
	// are replayed through the normal ingest path, resumable sessions
	// are re-armed at their durable acks, and only then does the
	// listener accept connections. A missing or empty directory starts
	// fresh.
	WALDir string
	// CheckpointInterval is the recovery-checkpoint cadence (0 picks
	// 1s), which also rolls the log: a segment retires once a durable
	// checkpoint seals every window it feeds, so the log holds the
	// unsealed horizon plus one interval.
	CheckpointInterval time.Duration
}

// Server is a plan running as a long-lived network service: records
// stream in over the netio wire protocol, windows close as client
// watermarks advance, and live results and metrics are queryable over
// HTTP while the run is in flight.
type Server struct {
	exec    *runtime.Execution
	ingest  *netio.Server
	store   *netio.ResultStore
	feed    *netio.Feed
	fields  parsefmt.FieldSet // the wire columns the plan reads, all the feed holds
	httpLn  net.Listener
	httpSrv *http.Server

	// Durability state (nil/zero without Config.WALDir). The checkpoint
	// loop runs until the engine is done and then closes ckDone.
	wal    *wal.Log
	win    wm.Windowing
	ckDone chan struct{}

	// Recovery facts, frozen before the listener opens (zero without
	// WALDir). The two counters are /metrics series.
	recovery          metrics.Set
	recoveredSessions *metrics.Counter
	replayedFrames    *metrics.Counter
	recoveryNs        int64
}

// Serve starts plan — which must leave Feed for Serve to fill — as a
// network server and returns once the listeners are live; Shutdown
// stops ingestion, drains, and returns the final figures. rcfg carries
// the engine's sizing; its WindowSink, if any, sees every window ahead
// of the result store, which files it under the sink name. On any
// failure everything started so far is stopped before the error
// returns.
func Serve(plan runtime.Plan, rcfg runtime.Config, sink string, cfg Config) (srv *Server, err error) {
	fields, err := project(&plan)
	if err != nil {
		return nil, err
	}
	feed := netio.NewFeed(netio.ProjectSchema(fields), 0)
	plan.Feed = feed
	s := &Server{
		store:  netio.NewResultStore(cfg.KeepWindows),
		feed:   feed,
		fields: fields,
		win:    plan.Win,
	}
	s.recoveredSessions = s.recovery.Counter("streambox_recovered_sessions")
	s.replayedFrames = s.recovery.Counter("streambox_replayed_frames_total")
	defer func() {
		if err != nil {
			s.stop(0)
			if s.wal != nil {
				s.wal.Close()
			}
		}
	}()

	// Durability setup: the log directory may hold a previous run's
	// log and checkpoint, restored first; logging continues into it.
	var ck checkpoint
	if cfg.WALDir != "" {
		if ck, err = readCheckpoint(cfg.WALDir); err != nil {
			return nil, err
		}
		if s.wal, err = wal.Open(wal.Config{Dir: cfg.WALDir, Fields: fields}); err != nil {
			return nil, err
		}
	}

	// Windows the checkpoint already sealed are rebuilt by replay but
	// not delivered again — the checkpointed snapshot is the single
	// durable copy.
	rcfg.SealedBefore = ck.SealedWM
	tap := rcfg.WindowSink
	rcfg.WindowSink = func(start, end wm.Time, rows []runtime.Row) {
		if tap != nil {
			tap(start, end, rows)
		}
		s.store.Publish(sink, start, end, rows)
	}
	if s.exec, err = runtime.Start(plan, rcfg); err != nil {
		return nil, err
	}
	// One source for all column memory: wire-side batches draw from the
	// engine's slab allocator, so /metrics occupancy covers them and a
	// slab cycles socket read → bundle → free list, never copied.
	pool := s.exec.MemPool()
	feed.UsePool(pool)

	// Recovery proper: restore the checkpoint, replay unsealed frames
	// through the normal feed path, and rebuild the session table —
	// all before the listener opens, so a reconnecting client can only
	// ever observe the fully restored state.
	var sessions []netio.SessionState
	var nextID int64
	if s.wal != nil {
		if sessions, nextID, err = s.recoverState(ck); err != nil {
			return nil, err
		}
	}

	s.ingest, err = netio.Listen(cfg.IngestAddr, netio.ServerConfig{
		Feed:            feed,
		IdleTimeout:     cfg.IdleTimeout,
		CursorGrace:     cfg.CursorGrace,
		SessionTimeout:  cfg.SessionTimeout,
		MaxConns:        cfg.MaxConns,
		Faults:          cfg.Faults,
		WAL:             s.wal,
		RestoreSessions: sessions,
		NextConnID:      nextID,
		Overloaded: func() bool {
			return pool.Utilization(memsim.DRAM) > runtime.BackpressureUtilization
		},
		ShedPressure: func() bool { return pool.Pressure() > runtime.ShedUtilization },
	})
	if err != nil {
		return nil, err
	}

	go s.closeIngestAtExit()

	if s.wal != nil {
		s.ckDone = make(chan struct{})
		interval := cfg.CheckpointInterval
		if interval <= 0 {
			interval = time.Second
		}
		go s.checkpointLoop(interval)
	}

	if cfg.HTTPAddr != "" {
		if s.httpLn, err = net.Listen("tcp", cfg.HTTPAddr); err != nil {
			return nil, err
		}
		s.httpSrv = &http.Server{Handler: netio.NewHandler(s.store, s.MetricSets()...)}
		go func() {
			metrics.StageHTTP.Enter() // its connections inherit the stage
			s.httpSrv.Serve(s.httpLn)
		}()
	}
	return s, nil
}

// closeIngestAtExit closes the ingest listener once the run ends. If the
// pipeline dies (e.g. fatal DRAM exhaustion), clients then see the
// connection drop instead of hanging on withheld credits against a dead
// pipeline. Close is idempotent, so the normal Shutdown path is
// unaffected.
func (s *Server) closeIngestAtExit() {
	metrics.StageShutdown.Enter()
	<-s.exec.Done()
	s.ingest.Close()
}

// project narrows plan to the wire columns it reads — its key, value,
// window and filter columns, and the event time the feed's watermark
// follows — and returns them. The feed then holds only those columns, in
// wire order, so the plan's column indices are remapped to their
// positions there; the runtime sees a stream of just those columns.
func project(plan *runtime.Plan) (parsefmt.FieldSet, error) {
	wire := netio.WireSchema()
	cols := []*int{&plan.KeyCol, &plan.ValCol, &plan.TsCol}
	for i := range plan.Filters {
		cols = append(cols, &plan.Filters[i].Col)
	}
	fields := parsefmt.FieldSet(1) << wire.TsCol
	for _, c := range cols {
		if *c < 0 || *c >= wire.NumCols {
			return 0, fmt.Errorf("serve: column %d is not one of the %d wire columns", *c, wire.NumCols)
		}
		fields |= 1 << *c
	}
	for _, c := range cols {
		*c = fields.Pos(*c)
	}
	return fields, nil
}

// stop ends whatever Serve got as far as starting — ingestion first
// (in-flight streams get up to grace to finish cleanly), so the feed
// closes behind the last handler and the engine drains every remaining
// window; then the HTTP endpoint; the checkpoint loop exits with the
// engine — and returns the drained run's report. The log stays open for
// the caller to seal or close.
func (s *Server) stop(grace time.Duration) (runtime.Report, error) {
	var rep runtime.Report
	var err error
	switch {
	case s.ingest != nil:
		s.ingest.Drain(grace)
	case s.exec != nil:
		s.feed.Close()
	}
	if s.exec != nil {
		rep, err = s.exec.Wait()
		// A run that died early left its feed undrained.
		s.feed.Reclaim()
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.ckDone != nil {
		<-s.ckDone
	}
	return rep, err
}

// MetricSets lists what /metrics serves, each layer's own series in
// turn; the durability family only with a write-ahead log.
func (s *Server) MetricSets() []*metrics.Set {
	sets := []*metrics.Set{s.exec.MemPool().Metrics(), s.exec.Metrics(), s.store.Metrics(), s.ingest.Metrics()}
	if s.wal != nil {
		sets = append(sets, s.wal.Metrics(), &s.recovery)
	}
	return sets
}

// IngestAddr returns the ingest listener address (useful with ":0").
func (s *Server) IngestAddr() string { return s.ingest.Addr().String() }

// HTTPAddr returns the HTTP listener address, or "" when disabled.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Results returns the live result store (the same data GET /windows
// serves). Each window's rows are ascending by key and shared with the
// store: read them, do not write them.
func (s *Server) Results() []netio.WindowResult { return s.store.Snapshot() }

// RecoveredSessions reports how many resumable sessions recovery
// restored (0 without Config.WALDir).
func (s *Server) RecoveredSessions() int64 { return s.recoveredSessions.Load() }

// ReplayedFrames reports how many logged frames recovery replayed
// through the pipeline.
func (s *Server) ReplayedFrames() int64 { return s.replayedFrames.Load() }

// RecoveryNs reports how long recovery took before the listener
// opened, in nanoseconds.
func (s *Server) RecoveryNs() int64 { return s.recoveryNs }

// Final is what a stopped server hands back: each layer's closing
// figures, from which the root package assembles the public Report. WAL
// is zero without a write-ahead log.
type Final struct {
	Run    runtime.Report
	Ingest netio.Counters
	WAL    wal.Stats
}

// Shutdown gracefully stops the server: the ingest listener closes at
// once, in-flight streams get up to grace to finish cleanly, the
// remaining connections are severed, buffered batches drain through the
// pipeline and every remaining window closes. With a write-ahead log it
// then seals the run: the drain pushed the watermark past every window,
// so one final checkpoint covers the complete run, after which the log
// segments are redundant and are deleted — a restart recovers from the
// checkpoint alone. Safe to call once.
func (s *Server) Shutdown(grace time.Duration) (Final, error) {
	rep, err := s.stop(grace)
	fin := Final{Run: rep, Ingest: s.ingest.Counters()}
	if s.wal != nil {
		ckErr := s.writeCheckpoint()
		s.wal.Close()
		fin.WAL = s.wal.Stats() // after Close: its final fsync counts
		if ckErr == nil {
			if ckErr = wal.PurgeSegments(s.wal.Dir()); ckErr == nil {
				fin.WAL.SegmentsActive = 0
			}
		}
		if err == nil {
			err = ckErr
		}
	}
	return fin, err
}
