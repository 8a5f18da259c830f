// Command benchmark is the repository's end-to-end and per-layer
// benchmark: six workloads over the whole path (load generator → wire →
// WAL → feed → extract → radix → close → /windows), every window checked
// against a reference. See README.md beside this file.
//
// The driver's contract runs it as
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads one JSON object from the last line of standard output.
// Without --workload it runs the whole suite with repetitions, writes
// out/results.json and can diff two such files (-compare a.json b.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// options are the settings of one run.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	reps     int
	deadline time.Duration
	outDir   string
	tmpDir   string // scratch space for WAL, spill and replay files
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The driver sees only
// correct, attempted, failed and metrics.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	Info      map[string]float64 `json:"info,omitempty"`
}

// An untraced run is a series of passes: each sets the workload up
// afresh, runs passSeconds' worth of records from first record offered
// to last result published, and verifies every window. Passes repeat
// until the run's --seconds are used, and the run reports the mean of
// its passes without the best and the worst — a run that one
// neighbour's burst or one slow Close hit in a single pass reads the
// same as one that was left alone.
const (
	passSeconds = 2.0
	// warmupSeconds sizes the untimed first pass, which grows the heap,
	// faults the probe buffers in and warms the loopback path.
	warmupSeconds = 0.7
)

func main() {
	var o options
	workload := flag.String("workload", "", "run this one workload and print the driver's JSON line (default: the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same keys and values")
	flag.Float64Var(&o.seconds, "seconds", 16, "run length: an untraced run repeats 2 s passes for this long, a traced run offers Rate x seconds records")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics (suite: add a traced pass)")
	flag.IntVar(&o.reps, "reps", 3, "suite: untraced repetitions per workload")
	flag.DurationVar(&o.deadline, "deadline", 120*time.Second, "hard deadline of one run; past it the run is dumped, failed and abandoned")
	flag.StringVar(&o.outDir, "out", "", "output directory (default benchmark/out)")
	compare := flag.Bool("compare", false, "diff two results.json files given as arguments against the bounds")
	child := flag.Bool("child", false, "internal: run the workload in this process")
	flag.StringVar(&o.tmpDir, "tmp", "", "internal: the child's scratch directory, made and removed by its parent")
	flag.Parse()
	o.trace = *trace != 0
	if o.outDir == "" {
		o.outDir = "out"
		if _, err := os.Stat("benchmark/go.mod"); err == nil {
			o.outDir = "benchmark/out" // started from the repository root
		}
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	if *workload == "" {
		if !runSuite(o) {
			os.Exit(1)
		}
		return
	}
	sp, ok := findSpec(*workload)
	if !ok {
		fatal("unknown workload %q", *workload)
	}
	if *child {
		goruntime.GOMAXPROCS(goruntime.NumCPU())
		if o.tmpDir == "" {
			o.tmpDir = o.outDir // started by hand rather than by spawn
		}
		res, err := runWorkload(sp, o)
		if err != nil {
			fatal("%s: %v", sp.Name, err)
		}
		printJSON(res)
		return
	}
	// Driver mode: one watched child, then the contract's JSON line.
	res := spawn(sp, o)
	printJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if len(res.Metrics) == 0 {
		os.Exit(1) // the run died or hung: there is nothing to measure
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
}

// runWorkload runs one workload in this process: untraced for the
// end-to-end metrics, traced for the per-layer ones.
func runWorkload(sp spec, o options) (*result, error) {
	res := &result{Workload: sp.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Metrics: make(map[string]value), Info: make(map[string]float64)}
	if o.trace {
		return res, runTraced(sp, o, runSize(sp, o.seconds), res)
	}
	return res, runUntraced(sp, o, res)
}

// runUntraced runs passes for o.seconds and reports the end-to-end
// metrics: the trimmed mean over passes of each pass's figure adjusted
// to the reference host speed by the probe readings taken before and
// after it.
func runUntraced(sp spec, o options, res *result) error {
	onePass := func(seconds float64) (p *pass, setupS float64, err error) {
		t0 := time.Now()
		e, err := setup(sp, o, runSize(sp, seconds))
		if err != nil {
			return nil, 0, err
		}
		setupS = time.Since(t0).Seconds()
		p, err = e.run(nil, 0)
		return p, setupS, err
	}
	// A run shorter than a pass (the smoke test's) is one pass.
	passS := min(passSeconds, o.seconds)
	warm, _, err := onePass(min(warmupSeconds, passS))
	if err != nil {
		return err
	}
	res.absorb(warm)

	var rate, cost, setups, rawRate, rawCost, rawSetups, factors, lat []float64
	before := hostProbe()
	for start := time.Now(); time.Since(start).Seconds() < o.seconds; {
		p, setupS, err := onePass(passS)
		if err != nil {
			return err
		}
		res.absorb(p)
		after := hostProbe()
		// factor > 1: the host is slower than the reference just now;
		// adj is how much slower that makes this workload.
		factor := (before + after) / 2 / probeRefNs
		adj := math.Pow(factor, sp.HostSensitivity)
		before = after
		r, c := float64(p.records)/p.wall.Seconds(), float64(p.cpu.Nanoseconds())/float64(p.records)
		rawRate, rawCost, rawSetups, factors = append(rawRate, r), append(rawCost, c), append(rawSetups, setupS), append(factors, factor)
		if sp.OpenLoop {
			// The offered rate is paced by the clock; while the server
			// keeps up the host's speed does not enter it.
			rate = append(rate, r)
		} else {
			rate = append(rate, r*adj)
		}
		cost, setups = append(cost, c/adj), append(setups, setupS/adj)
		fmt.Fprintf(os.Stderr, "%s pass %d: %.4g rec/s, %.4g ns/rec, set-up %.3g s, host factor %.3f\n", sp.Name, len(rate), r, c, setupS, factor)
		lat = append(lat, p.latMs...)
	}
	vals := map[string]float64{
		"throughput_rec_s": trimmedMean(rate),
		"cpu_ns_per_rec":   trimmedMean(cost),
		"setup_s":          trimmedMean(setups),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	// Ungated: the same three as measured, the host factor that relates
	// them to the gated ones, and what else is worth a look beside them.
	res.Info["passes"] = float64(len(rate))
	res.Info["host_factor"] = trimmedMean(factors)
	res.Info["raw_throughput_rec_s"] = trimmedMean(rawRate)
	res.Info["raw_cpu_ns_per_rec"] = trimmedMean(rawCost)
	res.Info["raw_setup_s"] = trimmedMean(rawSetups)
	res.Info["result_latency_ms_p50"] = median(lat)
	res.Info["latency_samples"] = float64(len(lat))
	res.Info["peak_rss_mb"] = peakRSSMB()
	return nil
}

// runTraced spends the run's measuring time on two live passes of half
// the length — one untraced, one traced, whose difference is the tracing
// overhead — then replays the layers and measures the host roofs. It
// reports the per-layer metrics and writes the trace file.
func runTraced(sp spec, o options, cycles int, res *result) error {
	half := max(2, cycles/2)
	e, err := setup(sp, o, half)
	if err != nil {
		return err
	}
	base, err := e.run(nil, 0)
	if err != nil {
		return err
	}
	res.absorb(base)

	rec := newRecorder()
	root := rec.begin("run", "bench", 0, 0)
	st := rec.begin("setup", "bench", root, 0)
	e, err = setup(sp, o, half)
	rec.end(st, 0)
	if err != nil {
		return err
	}
	lv := rec.begin("live", "bench", root, 0)
	p, err := e.run(rec, lv)
	if err != nil {
		return err
	}
	rec.end(lv, p.records)
	res.absorb(p)
	peakRSS := peakRSSMB() // before the replay and calibration buffers
	rs := rec.begin("replay", "bench", root, 0)
	rp, err := replay(sp, o, rec, rs)
	if err != nil {
		return err
	}
	rec.end(rs, rp.records)
	rec.end(root, 0)

	vals := make(map[string]float64)
	for k, v := range p.live {
		vals[k] = v
	}
	for k, v := range rp.metrics {
		vals[k] = v
	}
	cpuPerRec := float64(p.cpu.Nanoseconds()) / float64(p.records)
	mdl := costModel(sp, rp, p.live, p.records)
	vals["streambox.model_cpu_ns_per_rec"] = mdl.Total
	vals["streambox.unattributed_share"] = 1 - mdl.Total/cpuPerRec
	vals["streambox.result_latency_ms_p50"] = median(p.latMs)
	vals["streambox.result_latency_ms_p95"] = percentile(p.latMs, 0.95)
	vals["bench.latency_samples"] = float64(len(p.latMs))
	vals["bench.peak_rss_mb"] = peakRSS
	vals["bench.trace_overhead_share"] = cpuPerRec/(float64(base.cpu.Nanoseconds())/float64(base.records)) - 1
	vals["host.copy_gb_s"], vals["host.read_gb_s"] = calibrate()
	vals["host.probe_ns"] = hostProbe()
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}

	// Each replayed byte stream, at the live run's record rate, as a
	// fraction of the host's copy roof.
	rate := float64(p.records) / p.wall.Seconds()
	for _, name := range []string{"parsefmt.wire_bytes_per_rec", "bundle.copy_bytes_per_rec", "wal.bytes_per_rec"} {
		frac := vals[name] * rate / (vals["host.copy_gb_s"] * 1e9)
		res.Info["roof_share."+name] = frac
		fmt.Fprintf(os.Stderr, "%s: %s x %.3g rec/s = %.4f of the copy roof\n", sp.Name, name, rate, frac)
	}
	res.Info["cpu_ns_per_rec_traced"] = cpuPerRec
	res.Info["spans_dropped"] = float64(rec.dropped.Load())
	return writeTrace(filepath.Join(o.outDir, sp.Name+".trace.json"), sp, o, rec, mdl)
}

// absorb folds one pass's operation counts into the result.
func (r *result) absorb(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
	r.Correct = r.Failed == 0
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Model    model      `json:"model"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}

func writeTrace(path string, sp spec, o options, rec *recorder, mdl model) error {
	spans := rec.recorded()
	b, err := json.Marshal(traceFile{sp.Name, o.seed, mdl, layerTable(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- small statistics ----------------------------------------------------------

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean is the mean of xs without its smallest and largest value
// (the plain mean below four values). Over a run's six to eight passes
// it shrugs off one bad pass as the median does, and spread about a
// fifth less than the median over two sets of 10 runs x 6 workloads.
func trimmedMean(xs []float64) float64 {
	s := sorted(xs)
	if len(s) > 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(max(1, len(s)))
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[min(len(s)-1, max(0, int(math.Ceil(q*float64(len(s))))-1))]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's rule); a
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
