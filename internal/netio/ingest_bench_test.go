package netio

import (
	"sync/atomic"
	"testing"

	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

// benchIngest measures the wire→feed ingest path over real loopback
// TCP: one client streams b.N records, a drain goroutine plays the
// runtime (Recv + Recycle against a mempool), and the reported metrics
// are records/second of wall time plus — via -benchmem — allocations
// per record on the whole path. A non-nil log additionally appends
// every frame to the write-ahead log, pinning the durability overhead
// against the log-free baseline.
func benchIngest(b *testing.B, format parsefmt.Format, log *wal.Log) {
	feed := NewFeed(WireSchema(), 64)
	pool := mempool.New(memsim.KNLConfig(), 0)
	feed.UsePool(pool)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, FrameCredits: 256, WAL: log})
	if err != nil {
		b.Fatal(err)
	}
	var drained atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			cols, ok, _ := feed.Recv(0)
			if !ok {
				return
			}
			drained.Add(int64(len(cols[0])))
			feed.Recycle(cols)
		}
	}()

	const frameRows = 4096
	c, err := Dial(srv.Addr().String(), ClientConfig{Format: format, FrameRecords: frameRows})
	if err != nil {
		b.Fatal(err)
	}

	// Pre-materialize one batch outside the timer; the send loop replays
	// it, so the measurement is the wire path, not the generator.
	const batch = 1 << 16
	gen := RecordGen{Keys: 1024, WindowRecords: 100_000}
	var recs []parsefmt.Record
	var cols [][]uint64
	if format == parsefmt.Columnar {
		cols = make([][]uint64, 7)
		for i := range cols {
			cols[i] = make([]uint64, batch)
		}
		for i := uint64(0); i < batch; i++ {
			rc := gen.ColsAt(i)
			for k := range cols {
				cols[k][i] = rc[k]
			}
		}
	} else {
		recs = gen.Records(0, batch)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += batch {
		if format == parsefmt.Columnar {
			err = c.SendColumns(cols)
		} else {
			err = c.Send(recs)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	srv.Close()
	<-done
	b.StopTimer()
	if n := drained.Load(); n < int64(b.N) {
		b.Fatalf("drained %d records, want at least %d", n, b.N)
	}
	b.ReportMetric(float64(drained.Load())/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkIngest compares the two wire formats end to end.
func BenchmarkIngest(b *testing.B) {
	b.Run("PB", func(b *testing.B) { benchIngest(b, parsefmt.PB, nil) })
	b.Run("Columnar", func(b *testing.B) { benchIngest(b, parsefmt.Columnar, nil) })
}

// BenchmarkColumnarIngest is the zero-copy receive pin on its own name:
// loopback columnar ingest, records/second and allocations per record
// (the bytes per record are the replay ring and the slab free lists
// warming up, spread over b.N; TestIngestSteadyStateAllocs holds the
// steady state).
func BenchmarkColumnarIngest(b *testing.B) {
	benchIngest(b, parsefmt.Columnar, nil)
}

// BenchmarkColumnarIngestWAL is the durability-overhead pin: the same
// loopback columnar path with every frame also appended to a real
// write-ahead log on disk. Each frame's ack waits for the group-commit
// fsync that covers it, and one connection delivers one frame at a
// time, so this is fsync-bound: about a quarter of
// BenchmarkColumnarIngest on the development box.
func BenchmarkColumnarIngestWAL(b *testing.B) {
	log, err := wal.Open(wal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	benchIngest(b, parsefmt.Columnar, log)
}
