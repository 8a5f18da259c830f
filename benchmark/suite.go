package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spawn runs one (workload, seed) in a fresh child process — clean
// getrusage, clean VmHWM — under a hard deadline. A child that
// outlives it gets SIGQUIT, its goroutine dump is kept in the output
// directory, and the run comes back with every operation failed, so a
// hang costs one repetition, not the benchmark.
func spawn(sp spec, o options) *result {
	// What a run that never reports is charged: about the operations it
	// would have attempted (sliding windows and the warm-up pass aside).
	cycles := runSize(sp, o.seconds)
	lost := &result{Workload: sp.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Metrics: map[string]value{}}
	lost.Attempted = int64(cycles) + (int64(cycles)*int64(sp.WindowRecords)+999_999)/1_000_000
	lost.Failed = lost.Attempted
	fail := func(format string, args ...any) *result {
		lost.Problems = []string{fmt.Sprintf(format, args...)}
		return lost
	}

	exe, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	// The parent owns the child's scratch directory, so that a killed
	// child leaves no WAL segments or spill files behind.
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(tmp)
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", sp.Name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-out", o.outDir, "-tmp", tmp)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	if err := cmd.Start(); err != nil {
		return fail("%v", err)
	}
	// SIGQUIT makes the Go runtime print every goroutine's stack and
	// exit; SIGKILL follows for a child too wedged even for that.
	quit := time.AfterFunc(o.deadline, func() { cmd.Process.Signal(syscall.SIGQUIT) })
	kill := time.AfterFunc(o.deadline+10*time.Second, func() { cmd.Process.Kill() })
	werr := cmd.Wait()
	hung := !quit.Stop()
	kill.Stop()
	if hung {
		dump := filepath.Join(o.outDir, fmt.Sprintf("%s.seed%d.dump.txt", sp.Name, o.seed))
		if err := os.WriteFile(dump, stderr.Bytes(), 0o644); err != nil {
			return fail("no result within %v; goroutine dump lost: %v", o.deadline, err)
		}
		return fail("no result within %v; goroutine dump in %s", o.deadline, dump)
	}
	if werr != nil {
		return fail("child: %v", werr)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return fail("child output: %v", err)
	}
	return &res
}

// summary is one metric of one workload over the suite's repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(unit string, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{unit, values, median(values), q1, q3}
}

// workloadResults is one workload's section of results.json.
type workloadResults struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
}

// resultsFile is out/results.json.
type resultsFile struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Workloads map[string]workloadResults `json:"workloads"`
}

// runSuite runs every workload reps times untraced (seeds seed,
// seed+1, ...) plus, with -trace 1, one traced pass; prints every
// metric by name with its unit as the median over repetitions; and
// writes results.json. It reports whether every operation succeeded.
func runSuite(o options) bool {
	host := gatherHost(o.outDir)
	host.CopyGBs, host.ReadGBs = calibrate()
	fmt.Printf("host: %d x %s, %s, linux %s, %s; copy %.2f GB/s, read %.2f GB/s\n",
		host.NProc, host.CPUModel, host.GoVersion, host.Kernel, host.TempFS, host.CopyGBs, host.ReadGBs)
	out := resultsFile{Host: host, Seed: o.seed, Seconds: o.seconds, Reps: o.reps,
		Workloads: make(map[string]workloadResults)}
	ok := true
	for _, sp := range workloads {
		wr := workloadResults{EndToEnd: make(map[string]summary)}
		values := make(map[string][]float64)
		run := func(seed uint64, trace bool) *result {
			ro := o
			ro.seed, ro.trace = seed, trace
			res := spawn(sp, ro)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Problems = append(wr.Problems, res.Problems...)
			return res
		}
		for rep := 0; rep < o.reps; rep++ {
			res := run(o.seed+uint64(rep), false)
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		if o.trace {
			wr.PerLayer = run(o.seed, true).Metrics
		}
		fmt.Printf("\n%s  (failed_share %d/%d)\n", sp.Name, wr.Failed, wr.Attempted)
		for _, d := range endToEnd {
			s := summarize(d.Unit, values[d.Name])
			wr.EndToEnd[d.Name] = s
			fmt.Printf("  %-34s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, len(s.Values))
		}
		for _, d := range perLayer {
			if v, have := wr.PerLayer[d.Name]; have {
				fmt.Printf("  %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
		for _, p := range wr.Problems {
			fmt.Printf("  problem: %s\n", p)
		}
		ok = ok && wr.Failed == 0
		out.Workloads[sp.Name] = wr
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.outDir, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return false
	}
	return ok
}

// compareFiles prints, per workload × end-to-end metric, both files'
// medians and quartiles, how much worse b is than a, the bound, and a
// verdict: regressed when b's median is worse by more than the bound;
// unresolved when either side's quartile spread is wider than the bound
// (unless every run of b beats every run of a); ok otherwise.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	// The machine's own speed drifts (shared host); say so before any
	// difference below is read as the code's.
	fmt.Fprintf(w, "host roofs: a copy %.2f read %.2f GB/s, b copy %.2f read %.2f GB/s\n",
		a.Host.CopyGBs, a.Host.ReadGBs, b.Host.CopyGBs, b.Host.ReadGBs)
	fmt.Fprintf(w, "%-15s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a [q1,q3]", "b median", "b [q1,q3]", "worse", "bound", "verdict")
	for _, sp := range workloads {
		wa, wb := a.Workloads[sp.Name], b.Workloads[sp.Name]
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-15s %-22s %12d %25s %12d %25s %8s %6s  regressed\n", sp.Name, "failed", wa.Failed, "", wb.Failed, "", "", "0")
			regressed = true
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(sa.Values) == 0 || len(sb.Values) == 0 || sa.Median == 0 {
				continue
			}
			// worse > 0 means b is worse, as a share of a's median.
			worse := (sb.Median - sa.Median) / sa.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			switch {
			case worse > d.Bound && !(d.Name == "setup_s" && sb.Median-sa.Median <= 0.1):
				// Set-up of a few dozen milliseconds jitters by more than a
				// quarter; it regresses only when also worse by 0.1 s.
				verdict = "regressed"
				regressed = true
			case spread > d.Bound && !allBetter(sa.Values, sb.Values, d.Better):
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-22s %12.6g %25s %12.6g %25s %+7.1f%% %5.0f%%  %s\n", sp.Name, d.Name,
				sa.Median, fmt.Sprintf("[%.5g,%.5g]", sa.Q1, sa.Q3), sb.Median, fmt.Sprintf("[%.5g,%.5g]", sb.Q1, sb.Q3),
				100*worse, 100*d.Bound, verdict)
		}
	}
	return regressed, nil
}

func loadResults(path string) (resultsFile, error) {
	var rf resultsFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
