package memsim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Task is a unit of work scheduled on a virtual core. Its Body runs the
// real computation (on real Go data) when the task is dispatched; its
// Demand determines how long the task occupies the virtual core; OnDone
// fires when the virtual completion time is reached and may submit
// successor tasks.
type Task struct {
	Name     string
	Priority int // higher dispatches first
	Demand   Demand
	Body     func()
	OnDone   func(now float64)

	seq       uint64
	phase     int
	remaining float64 // ops or bytes left in the current phase
	rate      float64 // current progress rate of the current phase
	startedAt float64
}

// readyQueue orders tasks by (priority desc, seq asc).
type readyQueue []*Task

func (q readyQueue) Len() int { return len(q) }
func (q readyQueue) Less(i, j int) bool {
	if q[i].Priority != q[j].Priority {
		return q[i].Priority > q[j].Priority
	}
	return q[i].seq < q[j].seq
}
func (q readyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *readyQueue) Push(x interface{}) { *q = append(*q, x.(*Task)) }
func (q *readyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}

// timer is a scheduled callback at an absolute virtual time.
type timer struct {
	at  float64
	seq uint64
	fn  func(now float64)
}

type timerQueue []timer

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x interface{}) { *q = append(*q, x.(timer)) }
func (q *timerQueue) Pop() interface{} {
	old := *q
	n := len(old)
	t := old[n-1]
	*q = old[:n-1]
	return t
}

// Stats accumulates simulator-wide counters.
type Stats struct {
	TasksRun     int64
	BytesByTier  [numTiers]int64
	SeqBytes     [numTiers]int64
	RandBytes    [numTiers]int64
	CPUOps       int64
	CoreBusyTime float64 // core-seconds of occupied virtual cores
}

// Sim is the discrete-event simulator: a set of virtual cores executing
// tasks whose memory phases share per-tier bandwidth pools under
// water-filling processor sharing.
type Sim struct {
	cfg     Config
	now     float64
	seq     uint64
	ready   readyQueue
	timers  timerQueue
	running []*Task
	free    int
	stats   Stats

	// peak bandwidth observed per tier (bytes/s, instantaneous).
	peakBW [numTiers]float64
	// bwIntegral accumulates rate*dt per tier for interval averaging.
	bwIntegral [numTiers]float64

	stopped bool
}

// NewSim creates a simulator for the given machine configuration.
func NewSim(cfg Config) *Sim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Sim{cfg: cfg, free: cfg.Cores}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Stats returns a copy of the accumulated counters.
func (s *Sim) Stats() Stats { return s.stats }

// PeakBW returns the highest instantaneous bandwidth seen on tier t.
func (s *Sim) PeakBW(t Tier) float64 { return s.peakBW[t] }

// Submit enqueues a task for execution. Safe to call from Body, OnDone
// and timer callbacks.
func (s *Sim) Submit(t *Task) {
	if t == nil {
		panic("memsim: Submit(nil)")
	}
	s.seq++
	t.seq = s.seq
	heap.Push(&s.ready, t)
}

// At schedules fn to run at absolute virtual time at (clamped to now).
func (s *Sim) At(at float64, fn func(now float64)) {
	if fn == nil {
		panic("memsim: At(nil)")
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.timers, timer{at: at, seq: s.seq, fn: fn})
}

// After schedules fn to run d virtual seconds from now.
func (s *Sim) After(d float64, fn func(now float64)) { s.At(s.now+d, fn) }

// Run processes events until the simulator is idle or stopped.
func (s *Sim) Run() {
	s.RunUntil(math.Inf(1))
}

// RunUntil processes events until virtual time reaches deadline, the
// simulator goes idle, or Stop is called. The clock never advances past
// deadline.
func (s *Sim) RunUntil(deadline float64) {
	s.stopped = false
	stalls := 0
	for !s.stopped {
		s.dispatch()
		if len(s.running) == 0 && len(s.timers) == 0 {
			return // idle (ready non-empty only if zero cores, impossible)
		}

		s.recomputeRates()

		// Earliest next event: a running-task phase completion or a timer.
		next := math.Inf(1)
		for _, t := range s.running {
			if t.rate <= 0 {
				continue
			}
			if fin := s.now + t.remaining/t.rate; fin < next {
				next = fin
			}
		}
		if len(s.timers) > 0 && s.timers[0].at < next {
			next = s.timers[0].at
		}
		if next > deadline {
			s.advanceTo(deadline)
			return
		}
		if math.IsInf(next, 1) {
			return
		}
		// Stall detector: a bounded number of zero-width events (task
		// completions, timer cascades) at one instant is normal; an
		// unbounded run means an accounting bug and must fail loudly
		// rather than spin forever.
		if next == s.now {
			stalls++
			if stalls > 1_000_000 {
				panic(fmt.Sprintf("memsim: event loop stalled at t=%g\n%s", s.now, s.DebugRunning()))
			}
		} else {
			stalls = 0
		}
		s.advanceTo(next)
		s.completePhases()
		s.fireTimers()
	}
}

// dispatch moves ready tasks onto free cores, executing bodies.
func (s *Sim) dispatch() {
	for s.free > 0 && len(s.ready) > 0 {
		t := heap.Pop(&s.ready).(*Task)
		s.free--
		t.phase = 0
		t.startedAt = s.now
		t.remaining = s.phaseSize(t)
		if t.Body != nil {
			t.Body()
		}
		s.stats.TasksRun++
		s.running = append(s.running, t)
		// An empty demand completes immediately at the same timestamp.
	}
}

// phaseSize returns the size (ops or bytes) of the task's current phase,
// skipping empty phases; returns 0 when the task has no work left.
func (t *Task) currentPhase() (Phase, bool) {
	for t.phase < len(t.Demand.Phases) {
		p := t.Demand.Phases[t.phase]
		if p.CPUOps > 0 || p.Bytes > 0 {
			return p, true
		}
		t.phase++
	}
	return Phase{}, false
}

func (s *Sim) phaseSize(t *Task) float64 {
	p, ok := t.currentPhase()
	if !ok {
		return 0
	}
	if p.isCPU() {
		return float64(p.CPUOps)
	}
	return float64(p.Bytes)
}

// recomputeRates assigns progress rates to all running tasks: CPU phases
// run at the core's instruction rate; memory phases share each tier's
// bandwidth pool by water-filling subject to per-core caps.
func (s *Sim) recomputeRates() {
	type memPhase struct {
		t   *Task
		cap float64
	}
	var pools [numTiers][2][]memPhase // [tier][pattern]

	for _, t := range s.running {
		p, ok := t.currentPhase()
		if !ok {
			t.rate = math.Inf(1) // completes instantly
			continue
		}
		if p.isCPU() {
			hz := s.cfg.ClockHz * s.cfg.IPC
			if p.Vector {
				hz = s.cfg.ClockHz * s.cfg.VectorIPC
			}
			t.rate = hz
			continue
		}
		cap := s.cfg.Tiers[p.Tier].PerCoreSeq
		if p.Pattern == Random {
			cap = s.cfg.PerCoreRandomBW(p.Tier, p.MLP)
		}
		pools[p.Tier][p.Pattern] = append(pools[p.Tier][p.Pattern], memPhase{t, cap})
	}

	for tier := Tier(0); tier < numTiers; tier++ {
		for pat := 0; pat < 2; pat++ {
			phases := pools[tier][pat]
			if len(phases) == 0 {
				continue
			}
			total := s.cfg.Tiers[tier].Bandwidth
			if Pattern(pat) == Random {
				total = s.cfg.Tiers[tier].RandomBW
			}
			caps := make([]float64, len(phases))
			for i, mp := range phases {
				caps[i] = mp.cap
			}
			rates := waterFill(caps, total)
			for i, mp := range phases {
				mp.t.rate = rates[i]
			}
		}
	}
}

// waterFill distributes total capacity among consumers with individual
// caps: consumers below the fair share keep their cap; the remainder is
// split evenly among the rest.
func waterFill(caps []float64, total float64) []float64 {
	n := len(caps)
	rates := make([]float64, n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return caps[idx[a]] < caps[idx[b]] })
	remaining := total
	left := n
	for _, i := range idx {
		share := remaining / float64(left)
		r := math.Min(caps[i], share)
		rates[i] = r
		remaining -= r
		left--
	}
	return rates
}

// advanceTo moves the clock to t, draining phase progress and recording
// bandwidth statistics.
func (s *Sim) advanceTo(t float64) {
	dt := t - s.now
	if dt < 0 {
		panic(fmt.Sprintf("memsim: clock moving backwards: %g -> %g", s.now, t))
	}
	if dt == 0 {
		s.now = t
		s.observeBW(0)
		return
	}
	for _, task := range s.running {
		if math.IsInf(task.rate, 1) {
			task.remaining = 0
			continue
		}
		progress := task.rate * dt
		if p, ok := task.currentPhase(); ok && !p.isCPU() {
			bytes := progress
			if bytes > task.remaining {
				bytes = task.remaining
			}
			b := int64(bytes)
			s.stats.BytesByTier[p.Tier] += b
			if p.Pattern == Sequential {
				s.stats.SeqBytes[p.Tier] += b
			} else {
				s.stats.RandBytes[p.Tier] += b
			}
			s.bwIntegral[p.Tier] += bytes
		} else if ok && p.isCPU() {
			ops := progress
			if ops > task.remaining {
				ops = task.remaining
			}
			s.stats.CPUOps += int64(ops)
		}
		task.remaining -= progress
		// Demands are integral bytes/ops: residues below half a unit are
		// floating-point noise and would otherwise stall the clock (a
		// residual finish time can round to now+0, never advancing).
		if task.remaining < 0.5 {
			task.remaining = 0
		}
	}
	s.stats.CoreBusyTime += float64(len(s.running)) * dt
	s.observeBW(dt)
	s.now = t
}

// observeBW records instantaneous per-tier bandwidth for peak tracking.
func (s *Sim) observeBW(dt float64) {
	var cur [numTiers]float64
	for _, task := range s.running {
		if p, ok := task.currentPhase(); ok && !p.isCPU() && !math.IsInf(task.rate, 1) {
			cur[p.Tier] += task.rate
		}
	}
	for t := Tier(0); t < numTiers; t++ {
		if cur[t] > s.peakBW[t] {
			s.peakBW[t] = cur[t]
		}
	}
}

// IntervalBytes returns and resets the per-tier byte integral, used by
// the resource monitor to compute average bandwidth over its sampling
// interval.
func (s *Sim) IntervalBytes() [numTiers]float64 {
	out := s.bwIntegral
	s.bwIntegral = [numTiers]float64{}
	return out
}

// completePhases advances finished phases and retires finished tasks.
func (s *Sim) completePhases() {
	kept := s.running[:0]
	var done []*Task
	for _, t := range s.running {
		for t.remaining == 0 {
			if _, ok := t.currentPhase(); ok {
				t.phase++
			}
			if _, ok := t.currentPhase(); !ok {
				break
			}
			t.remaining = s.phaseSize(t)
			if t.remaining > 0 {
				break
			}
		}
		if _, ok := t.currentPhase(); !ok && t.remaining == 0 {
			done = append(done, t)
			continue
		}
		kept = append(kept, t)
	}
	s.running = kept
	for _, t := range done {
		s.free++
		if t.OnDone != nil {
			t.OnDone(s.now)
		}
	}
}

// fireTimers runs all timers due at or before the current time.
func (s *Sim) fireTimers() {
	for len(s.timers) > 0 && s.timers[0].at <= s.now {
		tm := heap.Pop(&s.timers).(timer)
		tm.fn(s.now)
	}
}

// DebugRunning renders the running set for diagnostics.
func (s *Sim) DebugRunning() string {
	out := ""
	for _, t := range s.running {
		p, ok := t.currentPhase()
		out += fmt.Sprintf("task=%q phase=%d/%d cur=%v ok=%v remaining=%g rate=%g\n",
			t.Name, t.phase, len(t.Demand.Phases), p, ok, t.remaining, t.rate)
	}
	return out
}
