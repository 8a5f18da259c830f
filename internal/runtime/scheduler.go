package runtime

import (
	"sync"

	"streambox/internal/engine"
	"streambox/internal/metrics"
)

// numPriorities covers engine.Tag's Low/High/Urgent dispatch classes.
const numPriorities = int(engine.Urgent) + 1

// SchedStats summarises scheduler activity.
type SchedStats struct {
	// Executed counts completed tasks per priority class (indexed by
	// engine.Tag.Priority()).
	Executed [numPriorities]int64
	// Stolen reads 0: the pool has one ready queue, so no task is taken
	// from another worker's. The field stays while benchmark/ reads it.
	Stolen int64
}

// scheduler is the native backend's worker pool: one goroutine per
// worker over one ready queue. A worker takes the oldest task of the
// highest priority waiting — Urgent before High before Low, then
// submission order — exactly as the simulator dispatches. One mutex
// guards the queue and the counters: a task costs one acquisition to
// submit and one shared by its finish and the worker's next pop.
type scheduler struct {
	workers int

	mu       sync.Mutex
	cond     *sync.Cond
	ready    [numPriorities][]func() // FIFO per priority class
	inflight int                     // tasks submitted, not yet finished
	closed   bool
	executed [numPriorities]int64

	wg sync.WaitGroup
}

// newScheduler starts a pool of n workers (n >= 1).
func newScheduler(n int) *scheduler {
	if n < 1 {
		n = 1
	}
	s := &scheduler{workers: n}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(n)
	for range n {
		go s.run()
	}
	return s
}

// Workers returns the pool size.
func (s *scheduler) Workers() int { return s.workers }

// Submit enqueues run at tag's priority. Tasks may submit further tasks
// (merge-tree continuations); submission never blocks.
func (s *scheduler) Submit(tag engine.Tag, run func()) {
	pri := tag.Priority()
	s.mu.Lock()
	s.ready[pri] = append(s.ready[pri], run)
	s.inflight++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// QueuedByPriority returns the waiting tasks per priority class
// (indexed by engine.Tag.Priority()) for the /metrics endpoint.
func (s *scheduler) QueuedByPriority() [numPriorities]int {
	var out [numPriorities]int
	s.mu.Lock()
	for pri := range s.ready {
		out[pri] = len(s.ready[pri])
	}
	s.mu.Unlock()
	return out
}

// WaitQueuedBelow blocks until fewer than n tasks are waiting — the
// ingest path's backpressure hook — and reports whether it had to wait.
func (s *scheduler) WaitQueuedBelow(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	waited := false
	for s.queued() >= n && !s.closed {
		waited = true
		s.cond.Wait()
	}
	return waited
}

// Wait blocks until every submitted task (including tasks submitted by
// tasks) has finished.
func (s *scheduler) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inflight > 0 {
		s.cond.Wait()
	}
}

// Close drains remaining tasks and stops the workers. No Submit may
// race or follow Close.
func (s *scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Stats returns a snapshot of scheduler counters.
func (s *scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedStats{Executed: s.executed}
}

// queued counts the waiting tasks; s.mu must be held.
func (s *scheduler) queued() int {
	n := 0
	for pri := range s.ready {
		n += len(s.ready[pri])
	}
	return n
}

// run is one worker's loop. It holds s.mu except while a task runs. A
// task enters its own stage (metrics.Stage) first; the worker is back in
// sched before it waits or takes the next.
func (s *scheduler) run() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		metrics.StageSched.Enter()
		pri := numPriorities - 1
		for pri >= 0 && len(s.ready[pri]) == 0 {
			pri--
		}
		if pri < 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		task := s.ready[pri][0]
		s.ready[pri][0] = nil
		s.ready[pri] = s.ready[pri][1:]
		s.cond.Broadcast() // unblock WaitQueuedBelow
		s.mu.Unlock()

		task()

		s.mu.Lock()
		s.executed[pri]++
		if s.inflight--; s.inflight == 0 {
			s.cond.Broadcast() // unblock Wait
		}
	}
}
