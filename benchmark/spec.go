package main

// spec.go is the benchmark's contract in Go form: the workload table and
// the metric catalogue. BENCHMARK.json at the repository root repeats
// both for the driver; bench_test.go checks that the two agree.

// Shape constants shared by the workloads. Scaling a run changes record
// counts only, never these.
const (
	netConns      = 2      // ingest connections of every net_* workload
	bundleRecords = 10_000 // records per in-process ingress bundle
	valueRange    = 1 << 20
	replayWindows = 4  // windows the replay pass walks through the layers
	mergeFanIn    = 32 // mirrors runtime's loser-tree width cap
)

// spec describes one workload. Rate sizes the run: a run of s seconds
// offers Rate×s records (rounded to whole windows). For the open-loop
// workload Rate is also the paced offered rate; for closed loops it is a
// constant chosen so that a run takes about s seconds on a 2-core box.
type spec struct {
	Name string
	Why  string
	// Net workloads go loadgen → wire → Serve; the others drive
	// runtime.Start with a benchmark-owned generator.
	Net      bool
	Row      bool // PB row frames instead of columnar
	WAL      bool
	OpenLoop bool
	Rate     int64
	// FrameRecords is the records per wire frame of a net workload.
	FrameRecords int
	// WindowRecords records span one window of event time.
	WindowRecords int
	Keys          uint64
	WideKeys      bool // keys hashed to the full 64 bits
	// Slide is the sliding-window slide in records (0 = fixed windows).
	Slide int
	// Spill runs under the tiny memory budget of `sbx-bench -exp adaptive`.
	Spill          bool
	WatermarkEvery int // in-process watermark cadence, in bundles
	// HostSensitivity is the exponent b in "a pass's CPU per record goes
	// as (host factor)^b": how much of the host's slowness, as the probe
	// in host.go reads it, the workload feels. Fitted over 40 runs per
	// workload (README.md: 0.46-0.69, sliding 0.95) and rounded to two
	// values; it is a control-variate coefficient, so a
	// stale value costs steadiness, never correctness: runs of two
	// commits taken side by side see the same factors whatever b is.
	HostSensitivity float64
}

var workloads = []spec{
	{
		Name: "net_narrow", Net: true, FrameRecords: 4096, Rate: 9_000_000, WindowRecords: 1_000_000, Keys: 1024, HostSensitivity: 0.6,
		Why: "closed-loop columnar frames over v3 sessions, 1024 keys: wire, parse and feed-to-bundle copy dominate; engine changes must not show",
	},
	{
		Name: "net_wal_lat", Net: true, FrameRecords: 4096, WAL: true, OpenLoop: true, Rate: 3_000_000, WindowRecords: 100_000, Keys: 1024, HostSensitivity: 0.6,
		Why: "open loop at 3M rec/s with the write-ahead log on, below capacity: the only workload where wal runs; gated on CPU per record and on keeping up, its result delay is reported per layer but not gated",
	},
	{
		Name: "net_row", Net: true, Row: true, FrameRecords: 512, Rate: 4_000_000, WindowRecords: 1_000_000, Keys: 1024, HostSensitivity: 0.6,
		Why: "closed-loop PB row frames: guards the row decode pipeline and its memory growth; bypasses the columnar zero-copy receive",
	},
	{
		Name: "inproc_wide", Rate: 7_000_000, WindowRecords: 1_000_000, Keys: 1 << 20, WideKeys: true, WatermarkEvery: 25, HostSensitivity: 0.6,
		Why: "in-process, 1M distinct 64-bit keys: all 8 radix passes, merge-reduce and emission dominate; bypasses netio and wal",
	},
	{
		Name: "inproc_sliding", Rate: 3_500_000, WindowRecords: 1_000_000, Keys: 1024, Slide: 125_000, WatermarkEvery: 25, HostSensitivity: 1,
		Why: "in-process sliding windows with overlap 8: panes and window close do most of the work; fixed-window workloads bypass them",
	},
	{
		Name: "inproc_spill", Rate: 18_000_000, WindowRecords: 500_000, Keys: 1024, Spill: true, WatermarkEvery: 450, HostSensitivity: 0.6,
		Why: "in-process under a 32 MiB budget with 2x overshoot: mempool pressure, placement controller, evict and load; only user of spill",
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// metricDef names one metric; Bound is the share of the parent's median
// by which an end-to-end metric may worsen (unused for layer metrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd metrics are emitted by every untraced run of every workload:
// the median over the run's passes, each pass adjusted to the reference
// host speed by the probe readings around it (host.go). The bounds are
// as wide as the contract allows because of the reference machine (2
// vCPUs on a shared host): over four same-commit sets of ten runs the
// quartile spread reached 17 % and two sets' medians differed by up to
// 29 % as measured, 12 % and 9 % adjusted — and the driver's host has
// been seen twice as noisy. Result latency and peak RSS spread wider still (disk
// fsync phases, GC overshoot) and are reported as layer metrics instead;
// see README.md.
var endToEnd = []metricDef{
	{"throughput_rec_s", "1/s", "higher", 0.25},
	{"cpu_ns_per_rec", "ns", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are emitted by every traced run; a metric whose layer
// a workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"netio.send_ns_per_rec", "ns", "lower", 0},
	{"netio.close_drain_ms", "ms", "lower", 0},
	{"netio.frames_total", "count", "lower", 0},
	{"netio.duplicate_frames", "count", "lower", 0},
	{"netio.reconnects", "count", "lower", 0},
	{"netio.dropped_records", "count", "lower", 0},
	{"netio.checksum_errors", "count", "lower", 0},
	{"netio.wire_alone_rec_s", "1/s", "higher", 0},
	{"netio.publish_ns_per_row", "ns", "lower", 0},
	{"parsefmt.encode_ns_per_rec", "ns", "lower", 0},
	{"parsefmt.validate_ns_per_rec", "ns", "lower", 0},
	{"parsefmt.wire_bytes_per_rec", "B", "lower", 0},
	{"wal.bytes_per_rec", "B", "lower", 0},
	{"wal.syncs_total", "count", "lower", 0},
	{"wal.fsync_p99_ms", "ms", "lower", 0},
	{"wal.append_ns_per_rec", "ns", "lower", 0},
	{"wal.sync_ms_p50", "ms", "lower", 0},
	{"bundle.copy_ns_per_rec", "ns", "lower", 0},
	{"bundle.copy_bytes_per_rec", "B", "lower", 0},
	{"mempool.slab_recycle_share", "ratio", "higher", 0},
	{"mempool.alloc_failures", "count", "lower", 0},
	{"mempool.peak_hbm_util", "ratio", "lower", 0},
	{"mempool.peak_dram_util", "ratio", "lower", 0},
	{"mempool.alloc_ns_per_op", "ns", "lower", 0},
	{"kpa.extract_ns_per_rec", "ns", "lower", 0},
	{"algo.radix_ns_per_pair", "ns", "lower", 0},
	{"kpa.merge_reduce_ns_per_pair", "ns", "lower", 0},
	{"kpa.runs_per_window", "count", "lower", 0},
	{"spill.spilled_runs", "count", "lower", 0},
	{"spill.loads", "count", "lower", 0},
	{"spill.load_fallbacks", "count", "lower", 0},
	{"spill.load_ns_per_rec", "ns", "lower", 0},
	{"spill.evict_ns_per_pair", "ns", "lower", 0},
	{"spill.load_ns_per_pair", "ns", "lower", 0},
	{"runtime.extract_ns_per_rec", "ns", "lower", 0},
	{"runtime.paused_share", "ratio", "lower", 0},
	{"runtime.close_p99_ms", "ms", "lower", 0},
	{"runtime.tasks_per_rec", "1/rec", "lower", 0},
	{"runtime.steal_share", "ratio", "lower", 0},
	{"runtime.hbm_kpa_share", "ratio", "higher", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.allocs_per_rec", "1/rec", "lower", 0},
	{"runtime.alloc_bytes_per_rec", "B", "lower", 0},
	{"runtime.peak_state_bytes_per_rec", "B", "lower", 0},
	{"runtime.pane_runs", "count", "lower", 0},
	{"runtime.ctrl_decisions", "count", "lower", 0},
	{"runtime.generator_ns_per_rec", "ns", "lower", 0},
	{"streambox.serve_setup_ms", "ms", "lower", 0},
	{"streambox.shutdown_drain_ms", "ms", "lower", 0},
	{"streambox.result_latency_ms_p50", "ms", "lower", 0},
	{"streambox.result_latency_ms_p95", "ms", "lower", 0},
	{"streambox.metrics_poll_ms_p50", "ms", "lower", 0},
	{"streambox.model_cpu_ns_per_rec", "ns", "lower", 0},
	{"streambox.unattributed_share", "ratio", "lower", 0},
	{"bench.late_send_ms_max", "ms", "lower", 0},
	{"bench.achieved_rate_rec_s", "1/s", "higher", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.latency_samples", "count", "higher", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"host.copy_gb_s", "GB/s", "higher", 0},
	{"host.read_gb_s", "GB/s", "higher", 0},
	{"host.probe_ns", "ns", "lower", 0},
}
