package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streambox"
	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/memsim"
	"streambox/internal/netio"
	"streambox/internal/ops"
	"streambox/internal/parsefmt"
	sbxrt "streambox/internal/runtime"
	"streambox/internal/wm"
)

// pass is what one live run of a workload measured.
type pass struct {
	records   int64
	wall, cpu time.Duration
	// latMs holds one record-to-result delay per window, warm-up dropped.
	latMs []float64
	// attempted/failed count operations: one per expected window result
	// plus one per million records offered.
	attempted, failed int64
	problems          []string
	// live holds the per-layer observations, by metric name.
	live map[string]float64
}

// env is a workload set up and ready to run once.
type env interface {
	// run executes the measured interval: first record offered to last
	// window result published.
	run(rec *recorder, parent int) (*pass, error)
}

// runSize is how many window-sized cycles of input a run replays.
func runSize(sp spec, seconds float64) int {
	return max(2, int(math.Round(float64(sp.Rate)*seconds/float64(sp.WindowRecords))))
}

func setup(sp spec, o options, cycles int) (env, error) {
	if sp.Net {
		return setupNet(sp, o, cycles)
	}
	return setupInproc(sp, o, cycles)
}

// warmupWindows is the leading share of windows left out of the latency
// samples while caches, slab free lists and the session ramp up.
func warmupWindows(n int) int { return (n + 9) / 10 }

// memDelta is the Go heap activity over an interval.
type memDelta struct{ mallocs, bytes, pauseNs uint64 }

func readMem() memDelta {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs}
}

// heapMetrics files the process-wide allocation figures of the measured
// interval; they include the in-process load generator.
func (p *pass) heapMetrics(m0, m1 memDelta) {
	n := float64(p.records)
	p.live["runtime.gc_pause_ms"] = float64(m1.pauseNs-m0.pauseNs) / 1e6
	p.live["runtime.allocs_per_rec"] = float64(m1.mallocs-m0.mallocs) / n
	p.live["runtime.alloc_bytes_per_rec"] = float64(m1.bytes-m0.bytes) / n
}

// verify holds every window against the reference and the delivered
// record count against the offered one.
func (p *pass) verify(ref []digest, got map[int]digest, published map[int]int, ingested, dropped int64) {
	p.attempted = int64(len(ref)) + (p.records+999_999)/1_000_000
	for k, want := range ref {
		switch {
		case published[k] == 0:
			p.fail("window %d missing", k)
		case published[k] > 1:
			p.fail("window %d published %d times", k, published[k])
		case got[k] != want:
			p.fail("window %d: %d rows digest %#x, reference %d rows digest %#x", k, got[k].Rows, got[k].Sum, want.Rows, want.Sum)
		}
	}
	for k := range published {
		if k < 0 || k >= len(ref) {
			p.fail("unexpected window %d", k)
		}
	}
	if lost := max(p.records-ingested, dropped); lost > 0 {
		p.failed += (lost + 999_999) / 1_000_000
		p.problems = append(p.problems, fmt.Sprintf("%d of %d records undelivered", lost, p.records))
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 8 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// --- net workloads -----------------------------------------------------------

type netEnv struct {
	sp         spec
	in         *inputs
	ref        []digest
	cycles     int
	srv        *streambox.Server
	clients    []*netio.Client
	recs       [][]parsefmt.Record // row workload: one slab of records per connection
	walDir     string
	serveSetup time.Duration
}

func setupNet(sp spec, o options, cycles int) (*netEnv, error) {
	e := &netEnv{sp: sp, cycles: cycles}
	e.in = genInputs(sp, o.seed, netConns)
	e.ref = e.in.reference(cycles)
	p := streambox.NewPipeline(streambox.FixedWindow(streambox.Second))
	p.NetworkSource(streambox.SourceConfig{}).
		Window(streambox.NetworkTsCol).
		SumPerKey(netKeyCol, netValCol).
		Sink("bench")
	sc := &streambox.ServeConfig{
		IngestAddr:  "127.0.0.1:0",
		HTTPAddr:    "127.0.0.1:0",
		KeepWindows: cycles + 8, // Results() must still hold the first window at the end
	}
	if sp.WAL {
		dir, err := os.MkdirTemp(o.tmpDir, "wal-")
		if err != nil {
			return nil, err
		}
		e.walDir, sc.WALDir = dir, dir
	}
	t0 := time.Now()
	srv, err := streambox.Serve(p, streambox.RunConfig{Seed: int64(o.seed), Serve: sc})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e.serveSetup = time.Since(t0)
	e.srv = srv
	format := parsefmt.Columnar
	if sp.Row {
		format = parsefmt.PB
	}
	for c := 0; c < netConns; c++ {
		cl, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{
			Format:       format,
			NoFallback:   true,
			FrameRecords: sp.FrameRecords,
			// Bounds Close's ack drain, so the known lost-ack race in v3
			// sessions costs seconds, not the run.
			WriteTimeout: 2 * time.Second,
			Reconnect:    &netio.ReconnectConfig{Seed: o.seed + uint64(c)},
		})
		if err != nil {
			e.discard()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	if sp.Row {
		for _, cols := range e.in.parts {
			e.recs = append(e.recs, toRecords(cols))
		}
	}
	return e, nil
}

func (e *netEnv) discard() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.srv != nil {
		e.srv.Shutdown()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// connStats is what one sender goroutine observed.
type connStats struct {
	sendNs   int64
	closeDur time.Duration
	lateMax  time.Duration
	lastSend time.Duration // when the final frame's send returned
	// firstDue[c] is when the first frame of cycle c was due: its paced
	// slot in the open loop, the moment the sender was ready otherwise.
	firstDue []time.Duration
	err      error
}

func (e *netEnv) run(rec *recorder, parent int) (*pass, error) {
	p := &pass{live: make(map[string]float64)}
	p.records = int64(e.cycles) * int64(e.in.windowRecords())
	stats := make([]connStats, len(e.clients))
	m0, cpu0, t0 := readMem(), cpuTime(), time.Now()
	poll := startPoller(e.srv.HTTPAddr(), e.cycles, t0, rec, parent)
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.send(c, t0, &stats[c], rec, parent)
		}()
	}
	wg.Wait()
	final := poll.scrape() // last view of /metrics before the listeners close
	sd := rec.begin("shutdown", "streambox", parent, 0)
	sd0 := time.Now()
	rep, err := e.srv.Shutdown()
	shutdownDrain := time.Since(sd0)
	rec.end(sd, 0)
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	m1 := readMem()
	poll.stop()
	results := e.srv.Results()
	e.srv = nil
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	var sendNs int64
	var closeMax, lateMax, lastSend time.Duration
	var reconnects int64
	for c, st := range stats {
		if st.err != nil {
			// A Close that timed out draining acks has still delivered
			// every frame; the window check below decides correctness.
			p.problems = append(p.problems, fmt.Sprintf("conn %d: %v", c, st.err))
		}
		sendNs += st.sendNs
		closeMax, lateMax, lastSend = max(closeMax, st.closeDur), max(lateMax, st.lateMax), max(lastSend, st.lastSend)
		reconnects += e.clients[c].Reconnects()
	}

	// Window w can close once every connection's cursor is past its end,
	// i.e. once each has sent the first frame of cycle w+1; the delay
	// runs from the latest of those due times to the first poll that
	// shows the window published. The final window only closes inside
	// Shutdown, after the HTTP endpoint is gone, so it has no sample.
	for w := warmupWindows(e.cycles); w+1 < e.cycles; w++ {
		var due time.Duration
		for _, st := range stats {
			due = max(due, st.firstDue[w+1])
		}
		if at := poll.pubAt[w]; at > 0 {
			p.latMs = append(p.latMs, float64(at-due)/1e6)
		}
	}

	got, published := make(map[int]digest), make(map[int]int)
	for _, w := range results {
		k := int(w.Start / e.in.windowTicks)
		if w.Start%e.in.windowTicks != 0 {
			k = -1
		}
		var d digest
		for _, r := range w.Rows {
			d.add(r.Key, r.Val)
		}
		// The result store merges a re-published window into one entry;
		// its doubled row count then fails the digest comparison.
		got[k] = d
		published[k]++
	}
	p.verify(e.ref, got, published, rep.IngestedRecords, rep.DroppedRecords)

	n := float64(p.records)
	frames := metricValue(final, "streambox_ingest_frames_total")
	l := p.live
	l["netio.send_ns_per_rec"] = float64(sendNs) / n
	l["netio.close_drain_ms"] = closeMax.Seconds() * 1e3
	l["netio.frames_total"] = frames
	l["netio.duplicate_frames"] = float64(rep.DuplicateFrames)
	l["netio.reconnects"] = float64(reconnects)
	l["netio.dropped_records"] = float64(rep.DroppedRecords)
	l["netio.checksum_errors"] = float64(rep.ChecksumErrors)
	l["wal.bytes_per_rec"] = metricValue(final, "streambox_wal_appended_bytes_total") / n
	l["wal.syncs_total"] = float64(rep.WALSyncs)
	l["wal.fsync_p99_ms"] = float64(rep.WALFsyncP99Ns) / 1e6
	if frames > 0 {
		l["mempool.slab_recycle_share"] = metricValue(final, "streambox_mempool_colslabs_recycled_total") / (frames * float64(len(e.in.parts[0])))
	}
	l["mempool.alloc_failures"] = metricValue(final, "streambox_mempool_alloc_failures_total")
	l["mempool.peak_hbm_util"], l["mempool.peak_dram_util"] = poll.peakHBM, poll.peakDRAM
	l["spill.spilled_runs"] = float64(rep.SpilledRuns)
	l["spill.loads"] = float64(rep.SpillLoads)
	l["runtime.close_p99_ms"] = float64(rep.CloseP99Ns) / 1e6
	l["runtime.peak_state_bytes_per_rec"] = float64(rep.PeakWindowStateTotalBytes) / float64(e.sp.WindowRecords)
	l["runtime.pane_runs"] = float64(rep.PaneRuns)
	l["runtime.ctrl_decisions"] = float64(rep.CtrlDecisions)
	l["streambox.serve_setup_ms"] = e.serveSetup.Seconds() * 1e3
	l["streambox.shutdown_drain_ms"] = shutdownDrain.Seconds() * 1e3
	l["streambox.metrics_poll_ms_p50"] = median(poll.pollMs)
	l["bench.late_send_ms_max"] = lateMax.Seconds() * 1e3
	l["bench.achieved_rate_rec_s"] = n / lastSend.Seconds()
	p.heapMetrics(m0, m1)
	return p, nil
}

// send streams one connection's share of the run: its slab, frame by
// frame, once per cycle, with event_time advanced one window per cycle.
func (e *netEnv) send(c int, t0 time.Time, st *connStats, rec *recorder, parent int) {
	cl, cols := e.clients[c], e.in.parts[c]
	rows := len(cols[0])
	st.firstDue = make([]time.Duration, e.cycles)
	// Open loop: this connection's share of the offered rate fixes every
	// frame's slot in advance, whatever the server does.
	perRec := time.Duration(0)
	if e.sp.OpenLoop {
		perRec = time.Duration(float64(time.Second) * netConns / float64(e.sp.Rate))
	}
	conn := rec.begin("conn", "netio", parent, uint64(c))
	chunk := make([][]uint64, len(cols))
	var sent int64
	for cycle := 0; cycle < e.cycles && st.err == nil; cycle++ {
		if cycle > 0 {
			if e.sp.Row {
				for i := range e.recs[c] {
					e.recs[c][i].EventTime += e.in.windowTicks
				}
			} else {
				ts := cols[e.in.tsCol]
				for i := range ts {
					ts[i] += e.in.windowTicks
				}
			}
		}
		for lo := 0; lo < rows && st.err == nil; lo += e.sp.FrameRecords {
			hi := min(lo+e.sp.FrameRecords, rows)
			due := time.Since(t0)
			if e.sp.OpenLoop {
				slot := time.Duration(sent) * perRec
				if wait := slot - due; wait > 0 {
					time.Sleep(wait)
				}
				st.lateMax = max(st.lateMax, time.Since(t0)-slot)
				due = slot
			}
			if lo == 0 {
				st.firstDue[cycle] = due
			}
			sp := rec.begin("send", "netio", conn, uint64(c)<<32|uint64(sent/int64(e.sp.FrameRecords)))
			s0 := time.Now()
			if e.sp.Row {
				st.err = cl.Send(e.recs[c][lo:hi])
			} else {
				for i := range cols {
					chunk[i] = cols[i][lo:hi]
				}
				st.err = cl.SendColumns(chunk)
			}
			st.sendNs += time.Since(s0).Nanoseconds()
			rec.end(sp, int64(hi-lo))
			sent += int64(hi - lo)
		}
	}
	st.lastSend = time.Since(t0)
	cs := rec.begin("close", "netio", conn, uint64(c))
	c0 := time.Now()
	if err := cl.Close(); err != nil && st.err == nil {
		st.err = err
	}
	st.closeDur = time.Since(c0)
	rec.end(cs, 0)
	rec.end(conn, sent)
}

// poller watches GET /metrics at a 1 ms period the way an operator's
// scraper would, noting when each window's publication first shows.
type poller struct {
	url    string
	client *http.Client
	rec    *recorder
	parent int
	t0     time.Time
	quit   chan struct{}
	done   chan struct{}

	// Read these after stop.
	pubAt             []time.Duration // by window; 0 = never seen
	seen              int
	pollMs            []float64
	peakHBM, peakDRAM float64
}

func startPoller(addr string, windows int, t0 time.Time, rec *recorder, parent int) *poller {
	p := &poller{
		url:    "http://" + addr + "/metrics",
		client: &http.Client{Timeout: 2 * time.Second},
		rec:    rec, parent: parent,
		t0:   t0,
		quit: make(chan struct{}), done: make(chan struct{}),
		pubAt: make([]time.Duration, windows),
	}
	go p.loop()
	return p
}

func (p *poller) loop() {
	defer close(p.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		sp := p.rec.begin("poll", "streambox", p.parent, 0)
		s0 := time.Now()
		text := p.scrape()
		p.rec.end(sp, 0)
		if text == "" {
			continue
		}
		now := time.Since(p.t0)
		p.pollMs = append(p.pollMs, float64(time.Since(s0))/1e6)
		for n := int(metricValue(text, "streambox_windows_published_total")); p.seen < n && p.seen < len(p.pubAt); p.seen++ {
			p.pubAt[p.seen] = now
		}
		p.peakHBM = max(p.peakHBM, metricValue(text, `streambox_mempool_utilization{tier="hbm"}`))
		p.peakDRAM = max(p.peakDRAM, metricValue(text, `streambox_mempool_utilization{tier="dram"}`))
	}
}

// scrape fetches one /metrics view; "" when the endpoint is unreachable
// (it closes during Shutdown).
func (p *poller) scrape() string {
	resp, err := p.client.Get(p.url)
	if err != nil {
		return ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ""
	}
	return string(body)
}

// metricValue finds one sample in Prometheus text exposition by its
// full name, labels included; 0 when absent.
func metricValue(text, name string) float64 {
	for rest := text; ; {
		i := strings.Index(rest, name+" ")
		if i < 0 {
			return 0
		}
		if i == 0 || rest[i-1] == '\n' {
			line, _, _ := strings.Cut(rest[i+len(name)+1:], "\n")
			v, _ := strconv.ParseFloat(line, 64)
			return v
		}
		rest = rest[i+len(name):]
	}
}

func (p *poller) stop() {
	close(p.quit)
	<-p.done
	p.client.CloseIdleConnections()
}

// --- in-process workloads ----------------------------------------------------

// Memory budget of the spill workload: the adaptive leg of
// `sbx-bench -exp adaptive`, where nine sealed windows pile up behind
// each watermark and overshoot HBM+DRAM about twofold.
const (
	spillHBM      = 10 << 20
	spillDRAM     = 22 << 20
	spillReserved = 3 << 20
	spillCapacity = 512 << 20
)

type inprocEnv struct {
	sp       spec
	in       *inputs
	ref      []digest
	cycles   int
	spillDir string
}

func setupInproc(sp spec, o options, cycles int) (*inprocEnv, error) {
	e := &inprocEnv{sp: sp, cycles: cycles}
	e.in = genInputs(sp, o.seed, 1)
	e.ref = e.in.reference(cycles)
	if sp.Spill {
		dir, err := os.MkdirTemp(o.tmpDir, "spill-")
		if err != nil {
			return nil, err
		}
		e.spillDir = dir
	}
	return e, nil
}

func (e *inprocEnv) discard() {
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
}

// slabGen is the benchmark-owned engine.Generator: it replays the
// window slab, one tick of event time per record.
type slabGen struct {
	in     *inputs
	pos    int    // next slab row
	base   uint64 // event time of the current cycle's first record
	ts     []uint64
	rec    *recorder
	parent int

	fillNs  int64
	emitted uint64
	// offered[k] is when (Unix ns) the last record of window k had been
	// generated; nextWin is the first window not yet complete.
	offered []atomic.Int64
	nextWin int
}

func (g *slabGen) Schema() bundle.Schema { return kvSchema() }

// Fill implements engine.Generator. The runtime proposes [tsLo, tsHi)
// at one tick per record, which is exactly the slab's own clock.
func (g *slabGen) Fill(bd *bundle.Builder, n int, _, _ wm.Time) {
	sp := g.rec.begin("fill", "runtime", g.parent, g.emitted)
	s0 := time.Now()
	cols := g.in.parts[0]
	for left := n; left > 0; {
		m := min(left, len(cols[0])-g.pos)
		ts := g.ts[:m]
		for i, t := range cols[kvTsCol][g.pos : g.pos+m] {
			ts[i] = t + g.base
		}
		if err := bd.AppendColumnar(cols[kvKeyCol][g.pos:g.pos+m], cols[kvValCol][g.pos:g.pos+m], ts); err != nil {
			panic(err) // a schema mismatch is a bug in this file
		}
		left -= m
		if g.pos += m; g.pos == len(cols[0]) {
			g.pos, g.base = 0, g.base+g.in.windowTicks
		}
	}
	now := time.Now()
	g.emitted += uint64(n)
	for ; g.nextWin < len(g.offered) && uint64(g.nextWin)*g.in.slide+g.in.windowTicks <= g.emitted; g.nextWin++ {
		g.offered[g.nextWin].Store(now.UnixNano())
	}
	g.fillNs += now.Sub(s0).Nanoseconds()
	g.rec.end(sp, int64(n))
}

func (e *inprocEnv) run(rec *recorder, parent int) (*pass, error) {
	p := &pass{live: make(map[string]float64)}
	w := e.in.windowRecords()
	p.records = int64(e.cycles) * int64(w)
	nwin := len(e.ref)

	gen := &slabGen{in: e.in, ts: make([]uint64, bundleRecords), rec: rec, parent: parent,
		offered: make([]atomic.Int64, nwin)}
	var mu sync.Mutex
	got, published := make(map[int]digest), make(map[int]int)
	pubAt := make([]int64, nwin)
	sink := func(start, _ wm.Time, rows []sbxrt.Row) {
		now := time.Now().UnixNano()
		sp := rec.begin("sink", "runtime", parent, start)
		k := int(start / e.in.slide)
		var d digest
		for _, r := range rows {
			d.add(r.Key, r.Val)
		}
		mu.Lock()
		got[k] = d
		published[k]++
		if k < nwin && pubAt[k] == 0 {
			pubAt[k] = now
		}
		mu.Unlock()
		rec.end(sp, int64(len(rows)))
	}

	win := wm.Fixed(e.in.windowTicks)
	if e.sp.Slide > 0 {
		win = wm.Sliding(e.in.windowTicks, e.in.slide)
	}
	plan := sbxrt.Plan{
		Gen: gen,
		Source: engine.SourceConfig{
			Name: e.sp.Name, Rate: float64(p.records), BundleRecords: bundleRecords,
			WindowRecords: w, WatermarkEvery: e.sp.WatermarkEvery,
		},
		Win: win, TotalRecords: p.records,
		TsCol: kvTsCol, KeyCol: kvKeyCol, ValCol: kvValCol,
		NewAgg: ops.Sum(), Label: e.sp.Name,
	}
	cfg := sbxrt.Config{WindowSink: sink}
	if e.sp.Spill {
		cfg.Machine = memsim.KNLConfig()
		cfg.Machine.Tiers[memsim.HBM].Capacity = spillHBM
		cfg.Machine.Tiers[memsim.DRAM].Capacity = spillDRAM
		cfg.ReservedHBM = spillReserved
		cfg.SpillDir, cfg.SpillCapacity = e.spillDir, spillCapacity
		cfg.ExhaustTimeout = 750 * time.Millisecond
	}

	m0, cpu0, t0 := readMem(), cpuTime(), time.Now()
	ex, err := sbxrt.Start(plan, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := ex.Wait()
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	m1 := readMem()
	e.discard()
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}

	// Only windows that end inside the stream have a last record to time
	// from; the trailing partial windows of a sliding run close at the
	// final watermark and carry no sample.
	for k := warmupWindows(nwin); k < nwin; k++ {
		if off := gen.offered[k].Load(); off > 0 && pubAt[k] > 0 {
			p.latMs = append(p.latMs, float64(pubAt[k]-off)/1e6)
		}
	}
	p.verify(e.ref, got, published, rep.IngestedRecords, 0)

	n := float64(p.records)
	snap := ex.MemSnapshot()
	var tasks int64
	for _, t := range rep.Sched.Executed {
		tasks += t
	}
	l := p.live
	if snap.Allocs > 0 {
		l["mempool.slab_recycle_share"] = float64(rep.SlabsRecycled) / float64(snap.Allocs)
	}
	l["mempool.alloc_failures"] = float64(snap.Failures)
	l["mempool.peak_hbm_util"] = float64(snap.Tiers[memsim.HBM].Peak) / float64(snap.Tiers[memsim.HBM].Capacity)
	l["mempool.peak_dram_util"] = float64(snap.Tiers[memsim.DRAM].Peak) / float64(snap.Tiers[memsim.DRAM].Capacity)
	l["spill.spilled_runs"] = float64(rep.SpilledRuns)
	l["spill.loads"] = float64(rep.SpillLoads)
	l["spill.load_fallbacks"] = float64(rep.SpillLoadFallbacks)
	l["spill.load_ns_per_rec"] = float64(rep.SpillLoadNanos) / n
	l["runtime.extract_ns_per_rec"] = float64(rep.ExtractNanos) / n
	l["runtime.paused_share"] = float64(rep.PausedNanos) / float64(p.wall.Nanoseconds())
	l["runtime.close_p99_ms"] = float64(rep.CloseP99Nanos) / 1e6
	l["runtime.tasks_per_rec"] = float64(tasks) / n
	if tasks > 0 {
		l["runtime.steal_share"] = float64(rep.Sched.Stolen) / float64(tasks)
	}
	if kpas := rep.HBMKPAs + rep.DRAMKPAs; kpas > 0 {
		l["runtime.hbm_kpa_share"] = float64(rep.HBMKPAs) / float64(kpas)
	}
	l["runtime.peak_state_bytes_per_rec"] = float64(rep.PeakWindowStateTotalBytes) / float64(w)
	l["runtime.pane_runs"] = float64(rep.PaneRuns)
	l["runtime.ctrl_decisions"] = float64(rep.CtrlDecisions)
	l["runtime.generator_ns_per_rec"] = float64(gen.fillNs) / n
	p.heapMetrics(m0, m1)
	return p, nil
}
