package netio

import (
	"fmt"
	"os"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/bundle"
	"streambox/internal/engine"
	"streambox/internal/faultinject"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/ops"
	"streambox/internal/parsefmt"
	"streambox/internal/runtime"
	"streambox/internal/wm"
)

// TestMain runs the package under the pool's poison mode: a column slab
// is overwritten the moment it goes back, so a batch or bundle read
// after its Recycle shows up as a wrong digest here rather than as rows
// that happened to survive.
func TestMain(m *testing.M) {
	mempool.PoisonCols.Store(true)
	os.Exit(m.Run())
}

// slabRig is the whole receive path on one pool — server, feed, and the
// native runtime sealing bundles over the feed's batches — with the
// runtime's side of the feed behind a gate, so a test can let batches
// pile up in the queue first. The pipeline sums column 3 per key and
// window; sums is what its sink delivered.
type slabRig struct {
	t    *testing.T
	feed *Feed
	srv  *Server
	exec *runtime.Execution
	pool *mempool.Pool
	gate chan struct{}

	mu   sync.Mutex
	sums map[uint64]map[uint64]uint64 // window start → key → sum
}

// gatedFeed holds the runtime's Recv until the gate opens; Recycle and
// the rest are the feed's own.
type gatedFeed struct {
	*Feed
	gate <-chan struct{}
}

func (g gatedFeed) Recv(maxWait time.Duration) ([][]uint64, bool, bool) {
	<-g.gate
	return g.Feed.Recv(maxWait)
}

// startSlabRig starts the rig with its gate shut; rcfg sizes the engine
// and scfg the server, whose Feed the rig fills in.
func startSlabRig(t *testing.T, feedBuf int, rcfg runtime.Config, scfg ServerConfig) *slabRig {
	t.Helper()
	r := &slabRig{t: t, feed: NewFeed(WireSchema(), feedBuf), gate: make(chan struct{}), sums: make(map[uint64]map[uint64]uint64)}
	rcfg.WindowSink = func(start, _ wm.Time, rows []runtime.Row) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.sums[start] != nil {
			t.Errorf("window %d delivered twice", start)
		}
		w := make(map[uint64]uint64, len(rows))
		for _, row := range rows {
			w[row.Key] = row.Val
		}
		r.sums[start] = w
	}
	var err error
	r.exec, err = runtime.Start(runtime.Plan{
		Feed:   gatedFeed{r.feed, r.gate},
		Source: engine.SourceConfig{Name: "net", WatermarkEvery: 4},
		Win:    wm.Fixed(WindowTicks),
		TsCol:  6, KeyCol: 0, ValCol: 3,
		NewAgg: ops.Sum(),
		Label:  "sum",
	}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	r.pool = r.exec.MemPool()
	r.feed.UsePool(r.pool)
	scfg.Feed = r.feed
	if r.srv, err = Listen("127.0.0.1:0", scfg); err != nil {
		r.feed.Close()
		t.Fatal(err)
	}
	return r
}

func (r *slabRig) open() { close(r.gate) }

// settle closes the server, waits the engine out and reclaims what it
// left queued, then holds the ledger to zero: no column slab still out
// of the pool and no bundle still charged to it. Records dropped behind
// the watermark are reported, so a short sum explains itself. It returns
// the engine's error.
func (r *slabRig) settle() error {
	r.t.Helper()
	r.srv.Close()
	rep, err := r.exec.Wait()
	r.feed.Reclaim()
	if rep.LateRecords != 0 {
		r.t.Logf("%d records arrived behind the watermark and were dropped, by policy", rep.LateRecords)
	}
	if out := r.pool.Stats().ColsOut; out != 0 {
		r.t.Errorf("%d column slabs still out of the pool at rest", out)
	}
	if used := r.pool.Used(memsim.DRAM); used != 0 {
		r.t.Errorf("%d B still charged to DRAM at rest", used)
	}
	return err
}

// wantSums folds copies sends of records [0, n) of gen the way the
// pipeline does.
func wantSums(gen RecordGen, n, copies uint64) map[uint64]map[uint64]uint64 {
	want := make(map[uint64]map[uint64]uint64)
	for i := uint64(0); i < n; i++ {
		c := gen.ColsAt(i)
		start := c[6] / WindowTicks * WindowTicks
		if want[start] == nil {
			want[start] = make(map[uint64]uint64)
		}
		want[start][c[0]] += copies * c[3]
	}
	return want
}

// checkSums requires the delivered windows to equal want exactly: the
// exactly-once digest.
func (r *slabRig) checkSums(want map[uint64]map[uint64]uint64) {
	r.t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.sums) != len(want) {
		r.t.Errorf("%d windows delivered, want %d", len(r.sums), len(want))
	}
	for start, keys := range want {
		got := r.sums[start]
		if len(got) != len(keys) {
			r.t.Errorf("window %d: %d keys, want %d", start, len(got), len(keys))
			continue
		}
		for k, v := range keys {
			if got[k] != v {
				r.t.Errorf("window %d key %d: sum %d, want %d", start, k, got[k], v)
				return
			}
		}
	}
}

// sendAll streams records [0, n) of gen over c and closes it.
func sendAll(t *testing.T, c *Client, gen RecordGen, n uint64) {
	t.Helper()
	if err := c.Send(gen.Records(0, n)); err != nil {
		t.Errorf("send: %v", err)
		return
	}
	if err := c.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// slabGen varies keys and values, so a stale or poisoned read cannot
// cancel out of the digest.
var slabGen = RecordGen{Keys: 64, ValueRange: 1000, WindowRecords: 4000, Random: true, Seed: 21}

// TestSlabOwnershipSumsToZero walks a column slab's owners — handler,
// feed queue, bundle — through every way a batch's life can end, and
// requires the pool's ledger back at zero each time (with the digest
// exact, under poison: nothing was read after it went back). The frame
// that fails its checksum and is replayed is
// TestReplayRingRetransmitsIntact's, on the same rig; recovery's Inject
// is internal/serve's TestRecoveryReturnsEverySlab.
func TestSlabOwnershipSumsToZero(t *testing.T) {
	const total = 20_000 // five windows

	t.Run("two connections", func(t *testing.T) {
		r := startSlabRig(t, 0, runtime.Config{Workers: 2}, ServerConfig{})
		r.open()
		// Dial every client before any sends: a connection streaming alone
		// holds the only cursor, so the watermark would pass whole windows
		// and the other connection's copies of them be dropped as late.
		var clients []*Client
		for _, format := range sessionFormats {
			c, err := Dial(r.srv.Addr().String(), ClientConfig{Format: format, FrameRecords: 500})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, c)
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sendAll(t, c, slabGen, total)
			}()
		}
		wg.Wait()
		if err := r.settle(); err != nil {
			t.Fatal(err)
		}
		r.checkSums(wantSums(slabGen, total, 2))
	})

	// A one-slot queue behind a shut gate: frame 1 fills it, frame 2
	// stalls in the push holding the session's delivery lock, and the
	// takeover waits it out. Then the successor's frame 3 stalls the same
	// way and the shutdown refuses its push: that batch is dropped, and
	// recycled.
	t.Run("takeover, then a push refused by shutdown", func(t *testing.T) {
		r := startSlabRig(t, 1, runtime.Config{Workers: 2}, ServerConfig{})
		addr := r.srv.Addr().String()
		connA, _, token, _ := rawSessionDial(t, addr, parsefmt.Columnar, 0)
		defer connA.Close()
		for seq := uint64(1); seq <= 2; seq++ {
			if err := writeSeqFrame(connA, seq, genPayload(parsefmt.Columnar, &slabGen, int(seq-1)*500, 500)); err != nil {
				t.Fatal(err)
			}
		}
		awaitAck(t, connA, 1)
		stalled := r.srv.lookup(token).delivering
		waitFor(t, 5*time.Second, stalled, "frame 2 to stall in the push")
		connB := rawSessionRequest(t, addr, parsefmt.Columnar, token)
		defer connB.Close()
		waitFor(t, 5*time.Second, func() bool { return r.srv.Counters().SessionsResumed == 1 }, "the takeover")
		// Let exactly frame 1 through: frame 2 lands in the queue and the
		// takeover's grant says so.
		r.gate <- struct{}{}
		if g, err := readGrant(connB); err != nil || g.lastSeq != 2 {
			t.Fatalf("takeover grant lastSeq=%d err=%v, want 2", g.lastSeq, err)
		}
		if err := writeSeqFrame(connB, 3, genPayload(parsefmt.Columnar, &slabGen, 1000, 500)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, stalled, "frame 3 to stall in the push")
		go func() {
			// Once the shutdown has refused frame 3, let the engine drain.
			for r.srv.Counters().DroppedRecords == 0 {
				time.Sleep(time.Millisecond)
			}
			r.open()
		}()
		if err := r.settle(); err != nil {
			t.Fatal(err)
		}
		if n := r.srv.Counters().DroppedRecords; n != 500 {
			t.Fatalf("%d records dropped, want frame 3's 500", n)
		}
		r.checkSums(wantSums(slabGen, 1000, 1))
	})

	// Batches still queued when the server closes are the engine's to
	// ingest: it drains the closed feed, and they end as bundles.
	t.Run("shutdown with batches queued", func(t *testing.T) {
		r := startSlabRig(t, 64, runtime.Config{Workers: 2}, ServerConfig{})
		c, err := Dial(r.srv.Addr().String(), ClientConfig{Format: parsefmt.PB, FrameRecords: 500})
		if err != nil {
			t.Fatal(err)
		}
		sendAll(t, c, slabGen, total)
		if n := len(r.feed.ch); n < total/500 {
			t.Fatalf("%d batches queued behind the shut gate, want %d and the retire sentinel", n, total/500)
		}
		go func() {
			for !r.srv.closing.Load() {
				time.Sleep(time.Millisecond)
			}
			r.open()
		}()
		if err := r.settle(); err != nil {
			t.Fatal(err)
		}
		r.checkSums(wantSums(slabGen, total, 1))
	})

	// An engine whose DRAM cannot hold one bundle gives up: the batch in
	// hand goes back on its error return, the ones behind it when the
	// feed is reclaimed.
	t.Run("engine gives up", func(t *testing.T) {
		machine := memsim.KNLConfig()
		machine.Tiers[memsim.DRAM].Capacity = 16 << 10
		r := startSlabRig(t, 64, runtime.Config{Workers: 2, Machine: machine, ExhaustTimeout: 20 * time.Millisecond}, ServerConfig{})
		c, err := Dial(r.srv.Addr().String(), ClientConfig{Format: parsefmt.Columnar, FrameRecords: 500})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(slabGen.Records(0, 4000)); err != nil {
			t.Fatal(err)
		}
		r.open()
		<-r.exec.Done()
		c.Close() // the session ends however it can: the engine is gone
		if err := r.settle(); err == nil {
			t.Fatal("a 16 KiB DRAM tier hosted a 28 000 B bundle")
		}
	})
}

// TestReplayRingRetransmitsIntact pins the replay ring's one obligation:
// a frame's buffer is not reused while the frame may still have to be
// sent again. With only 2 or 4 buffers cycling, seeded resets, cuts
// mid-frame and bit flips force retransmissions out of buffers whose
// neighbours are being recycled around them; every payload the server
// accepts passed its checksum, and the digest is exact, so every
// retransmitted frame arrived as it was first encoded — and the slabs
// it was received into all came back.
func TestReplayRingRetransmitsIntact(t *testing.T) {
	// Which call a seeded fault lands on depends on how the client's
	// writes interleave with its ack reads, so the stream is sent in
	// rounds until every kind has fired (one round nearly always does).
	const (
		round     = 40_000 // ten windows
		maxRounds = 8
	)
	for _, format := range sessionFormats {
		for _, frames := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/%d", format, frames), func(t *testing.T) {
				r := startSlabRig(t, 0, runtime.Config{Workers: 2}, ServerConfig{CursorGrace: time.Minute})
				r.open()
				faults := faultinject.New(faultinject.Config{ResetProb: 0.02, PartialWriteProb: 0.02, CorruptProb: 0.03, Seed: uint64(frames)})
				c, err := Dial(r.srv.Addr().String(), ClientConfig{
					Format: format, FrameRecords: 250, ReplayFrames: frames,
					// Bounds the one wait a damaged frame header can cause.
					WriteTimeout: 500 * time.Millisecond,
					Reconnect:    &ReconnectConfig{MaxRetries: 500, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 9},
					Faults:       faults,
				})
				if err != nil {
					t.Fatal(err)
				}
				var total uint64
				for fired := false; !fired && total < maxRounds*round; total += round {
					if err := c.Send(slabGen.Records(total, total+round)); err != nil {
						t.Fatalf("send: %v", err)
					}
					fc := faults.Counters()
					fired = fc.Resets > 0 && fc.PartialWrites > 0 && fc.Corruptions > 0 &&
						c.Replayed() > 0 && r.srv.Counters().ChecksumErrors > 0
				}
				if err := c.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
				fc := faults.Counters()
				if fc.Resets == 0 || fc.PartialWrites == 0 || fc.Corruptions == 0 {
					t.Errorf("faults fired: %+v, want some of each", fc)
				}
				if c.Replayed() == 0 {
					t.Error("no frame was retransmitted")
				}
				if r.srv.Counters().ChecksumErrors == 0 {
					t.Error("no frame failed its checksum: the server's drop path was not exercised")
				}
				if n := len(c.core.free) + len(c.core.replay); n > frames {
					t.Errorf("%d payload buffers in the ring, ReplayFrames is %d", n, frames)
				}
				if err := r.settle(); err != nil {
					t.Fatal(err)
				}
				r.checkSums(wantSums(slabGen, total, 1))
			})
		}
	}
}

// TestIngestSteadyStateAllocs holds the whole wire path to "no garbage
// per frame": columns → SendColumns (encoded into a recycled ring
// buffer) → socket → pooled slabs → Feed.Recv → a bundle sealed over the
// batch → Release (slabs back to the pool). Once the ring and the free
// lists are warm, 256 frames of 4 096 records may allocate under 8 bytes
// and 0.01 objects per record, everything in the process counted.
func TestIngestSteadyStateAllocs(t *testing.T) {
	const (
		frameRows = 4096
		frames    = 256
	)
	feed := NewFeed(WireSchema(), 16)
	pool := mempool.New(memsim.KNLConfig(), 0)
	feed.UsePool(pool)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	var adopted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg, schema := bundle.NewRegistry(), feed.Schema()
		for {
			cols, ok, _ := feed.Recv(0)
			if !ok {
				return
			}
			n := len(cols[0])
			alloc, err := pool.Alloc(memsim.DRAM, int64(n)*schema.RecordBytes())
			if err != nil {
				t.Error(err)
				return
			}
			bd, err := reg.NewBuilderOver(schema, cols, memsim.DRAM, feed.Recycle)
			if err != nil {
				t.Error(err)
				return
			}
			bd.AttachAlloc(alloc)
			bd.Seal().Release()
			adopted.Add(int64(n))
		}
	}()
	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.Columnar, FrameRecords: frameRows})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([][]uint64, 7)
	for k := range cols {
		cols[k] = make([]uint64, frameRows)
	}
	for i := range cols[0] {
		rc := slabGen.ColsAt(uint64(i))
		for k := range cols {
			cols[k][i] = rc[k]
		}
	}
	send := func(n int) {
		t.Helper()
		want := adopted.Load() + int64(n)*frameRows
		for i := 0; i < n; i++ {
			if err := c.SendColumns(cols); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 10*time.Second, func() bool { return adopted.Load() == want }, "the frames to be adopted and released")
	}
	send(64) // warm-up: the ring grows to the credit window, the free lists fill

	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	send(frames)
	goruntime.ReadMemStats(&m1)
	const records = frames * frameRows
	bytesPerRec := float64(m1.TotalAlloc-m0.TotalAlloc) / records
	allocsPerRec := float64(m1.Mallocs-m0.Mallocs) / records
	t.Logf("steady state: %.3f B and %.5f allocations per record", bytesPerRec, allocsPerRec)
	if bytesPerRec >= 8 || allocsPerRec >= 0.01 {
		t.Errorf("%.2f B and %.4f allocations per record over %d frames, want under 8 and 0.01", bytesPerRec, allocsPerRec, frames)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done
	if out := pool.Stats().ColsOut; out != 0 {
		t.Errorf("%d column slabs still out of the pool at rest", out)
	}
}
