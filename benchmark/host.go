package main

import (
	"bufio"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostInfo records the machine class a result file was measured on.
type hostInfo struct {
	NProc     int     `json:"nproc"`
	CPUModel  string  `json:"cpu_model"`
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"kernel"`
	TempFS    string  `json:"temp_fs"`
	CopyGBs   float64 `json:"copy_gb_s"`
	ReadGBs   float64 `json:"read_gb_s"`
}

// calibrationBytes is the size of the copy and read sweeps: well past
// any cache, so the figures are the host's memory-bandwidth roof.
const calibrationBytes = 256 << 20

var readSink uint64

// calibrate measures the host's copy and sequential-read bandwidth
// (GB/s of bytes touched: copy counts the read and the write), best of
// three sweeps each.
func calibrate() (copyGBs, readGBs float64) {
	words := calibrationBytes / 8
	src, dst := make([]uint64, words), make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)
	}
	copy(dst, src) // fault the destination in before timing
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(dst, src)
		if gbs := 2 * calibrationBytes / time.Since(t0).Seconds() / 1e9; gbs > copyGBs {
			copyGBs = gbs
		}
		t0 = time.Now()
		var sum uint64
		for _, v := range dst {
			sum += v
		}
		readSink += sum
		if gbs := calibrationBytes / time.Since(t0).Seconds() / 1e9; gbs > readGBs {
			readGBs = gbs
		}
	}
	return copyGBs, readGBs
}

// The host-speed probe. The reference machine is a few vCPUs of a shared
// host whose memory system (L3, memory controllers) the neighbours load
// in phases that last seconds to minutes, and a pipeline's CPU cost per
// record moves 15-25 % with them — wider than any bound the gate may
// carry. The probe times a fixed kernel that is slowed the way the
// pipelines are: on every core at once, independent random
// read-modify-writes over a buffer far larger than the private caches
// (three quarters of its time on a quiet host) and a dependent chain of
// integer arithmetic (the rest). It runs between passes, while the
// pipeline is idle, so the program's own memory traffic does not enter
// it, and it is timed in CPU time, so neither does the scheduler.
//
// Sizing run, 134 passes each of inproc_wide, inproc_sliding and
// net_narrow with a probe before each: the probe correlated 0.5-0.7 with
// the CPU per record of the pass beside it, and dividing each pass by it
// cut the quartile spread of 8-pass medians from 10.7/14.5/8.5 % to
// 4.0/2.6/3.5 %. Random access alone over-corrects (the pipelines are
// not all stalls: 4.1/3.4/5.0 %), which is what the arithmetic quarter
// is for; copy and radix-scatter kernels tracked the pipelines worse.
const (
	probeWords     = 8 << 20    // 64 MiB per core
	probeAccesses  = 8_000_000  // per core and burst, ~0.13 s
	probeALURounds = 10_000_000 // per core and burst, ~0.04 s
	// probeRefNs is the probe's reading on a quiet host of the reference
	// class; an adjusted metric reads what it would on such a host.
	probeRefNs = 21.0
)

var (
	probeBufs [][]uint64
	probeSink atomic.Uint64
)

// hostProbe returns how slow the host is right now: the probe's CPU
// nanoseconds per memory access, arithmetic share included.
func hostProbe() float64 {
	if probeBufs == nil {
		probeBufs = make([][]uint64, goruntime.GOMAXPROCS(0))
		for i := range probeBufs {
			probeBufs[i] = make([]uint64, probeWords)
			for j := range probeBufs[i] {
				probeBufs[i][j] = uint64(j) // fault the pages in before any timing
			}
		}
	}
	// Collect the last pass's garbage now, so that no concurrent
	// collection of it is billed to the probe or to the next pass.
	goruntime.GC()
	var wg sync.WaitGroup
	c0 := cpuTime()
	for i, buf := range probeBufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for n := 0; n < probeAccesses; n++ {
				x = x*6364136223846793005 + 1442695040888963407
				buf[(x>>33)&(probeWords-1)]++
			}
			for n := 0; n < probeALURounds; n++ {
				x = splitmix64(x)
			}
			probeSink.Add(x)
		}()
	}
	wg.Wait()
	return float64(cpuTime()-c0) / float64(len(probeBufs)*probeAccesses)
}

func gatherHost(tempDir string) hostInfo {
	h := hostInfo{NProc: goruntime.NumCPU(), GoVersion: goruntime.Version(), CPUModel: "unknown", Kernel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	h.TempFS = fsName(tempDir)
	return h
}

// fsName names the filesystem holding dir — WAL fsync cost depends on it.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("magic-%#x", uint64(st.Type))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process image's resident-set high-water mark, VmHWM
// of /proc/self/status. ru_maxrss will not do: a child started with
// vfork+exec inherits its parent's peak there, and the suite's parent has
// touched the 512 MiB of calibration buffers.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, _ := strings.Cut(string(b), "VmHWM:")
	var kb float64
	fmt.Sscan(rest, &kb)
	return kb / 1024
}
