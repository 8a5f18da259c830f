package serve

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"streambox/internal/engine"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/netio"
	"streambox/internal/ops"
	"streambox/internal/parsefmt"
	"streambox/internal/runtime"
	"streambox/internal/wal"
	"streambox/internal/wm"
)

// testPlan is the served shape of the root package's network tests:
// fixed one-second windows summing column 3 per key of column 0.
func testPlan() runtime.Plan {
	return runtime.Plan{
		Source: engine.SourceConfig{Name: "net", WatermarkEvery: 4},
		Win:    wm.Fixed(netio.WindowTicks),
		TsCol:  6, KeyCol: 0, ValCol: 3,
		NewAgg: ops.Sum(),
		Label:  "sum",
	}
}

// TestCheckpointParentFormatRecovers pins the checkpoint's on-disk
// format against the commit before its types moved: the bytes are
// spelled out here — the SBXK version-1 frame around JSON with the
// field names internal/wal's structs used to carry, windows without a
// "records" member — not produced by today's writer. Recovery must
// restore each session (token, cursor id, durable ack, parked bit, and
// the cursor floored at the sealed watermark) and each sealed window.
func TestCheckpointParentFormatRecovers(t *testing.T) {
	payload := []byte(`{"sealed_wm":2000000,"high_ts":2400000,"next_conn_id":9,` +
		`"sessions":[{"token":11,"conn":3,"last_seq":40,"cursor_ts":2300000,"parked":false},` +
		`{"token":12,"conn":4,"last_seq":7,"cursor_ts":900000,"parked":true}],` +
		`"windows":[{"sink":"capture","start":0,"end":1000000,"rows":[{"key":1,"val":10},{"key":2,"val":20}]},` +
		`{"sink":"capture","start":1000000,"end":2000000,"rows":[{"key":1,"val":11}]}]}`)
	frame := []byte("SBXK\x01\x00\x00\x00")
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, wal.CheckpointFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: "127.0.0.1:0", WALDir: dir,
		// Neither restored session may be parked or expired under the test.
		CursorGrace: time.Minute, SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessions := srv.ingest.SessionSnapshot()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].Token < sessions[j].Token })
	wantSessions := []netio.SessionState{
		{Token: 11, Conn: 3, LastSeq: 40, CursorTs: 2_000_000}, // 2.3M, floored at the sealed watermark
		{Token: 12, Conn: 4, LastSeq: 7, CursorTs: 900_000, Parked: true},
	}
	if !reflect.DeepEqual(sessions, wantSessions) || srv.RecoveredSessions() != 2 {
		t.Errorf("restored %d sessions %+v, want %+v", srv.RecoveredSessions(), sessions, wantSessions)
	}
	if id := srv.ingest.NextID(); id < 9 {
		t.Errorf("next connection id %d could collide with a checkpointed cursor (ids through 9 are taken)", id)
	}
	wantWindows := []netio.WindowResult{
		{Sink: "capture", Start: 0, End: 1_000_000, Records: 2, Rows: []netio.ResultRow{{Key: 1, Val: 10}, {Key: 2, Val: 20}}},
		{Sink: "capture", Start: 1_000_000, End: 2_000_000, Records: 1, Rows: []netio.ResultRow{{Key: 1, Val: 11}}},
	}
	if got := srv.Results(); !reflect.DeepEqual(got, wantWindows) {
		t.Errorf("restored windows %+v, want %+v", got, wantWindows)
	}

	// The sealing drain writes the checkpoint back: what today's writer
	// produces, today's reader restores to the same windows.
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	ck, err := readCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Windows, wantWindows) || ck.SealedWM < 2_000_000 || len(ck.Sessions) != 0 {
		t.Errorf("final checkpoint %+v: want the two sealed windows, no live session", ck)
	}

	// Damage is an error, never a fresh start.
	frame[len(frame)-9] ^= 1
	if err := os.WriteFile(filepath.Join(dir, wal.CheckpointFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{IngestAddr: "127.0.0.1:0", WALDir: dir}); err == nil {
		srv.Shutdown(0)
		t.Error("recovery started from a checkpoint that fails its checksum")
	}
}

// TestServeStartupFailureReleasesEverything takes Serve's last failure
// exit — the HTTP address is already bound, so by then the log is open,
// the engine is running, the ingest listener accepts and the checkpoint
// loop ticks. Serve must return the error having stopped all of it: no
// goroutine outlives the call, and the same WAL directory serves again.
func TestServeStartupFailureReleasesEverything(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cfg := Config{
		IngestAddr:         "127.0.0.1:0",
		HTTPAddr:           busy.Addr().String(),
		WALDir:             t.TempDir(),
		CheckpointInterval: time.Millisecond,
	}
	before := goruntime.NumGoroutine()
	if srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", cfg); err == nil {
		srv.Shutdown(0)
		t.Fatalf("Serve bound HTTP address %s twice", cfg.HTTPAddr)
	}
	// The watcher that closes ingestion when the engine dies may be a few
	// instructions from returning; everything else was waited for.
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines before the failed Serve, %d after:\n%s", before, goruntime.NumGoroutine(), buf[:goruntime.Stack(buf, true)])
		}
	}

	cfg.HTTPAddr = "127.0.0.1:0"
	srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", cfg)
	if err != nil {
		t.Fatalf("second Serve on the same WAL directory: %v", err)
	}
	if srv.HTTPAddr() == "" {
		t.Error("second Serve has no HTTP endpoint")
	}
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
}

// TestMain runs the package under the pool's poison mode, so a bundle
// read after its columns went back to the pool breaks the results below
// instead of passing on rows that happened to survive.
func TestMain(m *testing.M) {
	mempool.PoisonCols.Store(true)
	os.Exit(m.Run())
}

// TestRecoveryReturnsEverySlab is the recovery leg of the slab ledger
// (netio's TestSlabOwnershipSumsToZero has the live ones): frames found
// in the log re-enter through BorrowCols and Inject, end as bundles like
// any received batch, and after the drain the pool has every column slab
// back and nothing charged — with the replayed windows exact.
func TestRecoveryReturnsEverySlab(t *testing.T) {
	const frames, rows = 24, 500 // three windows
	gen := netio.RecordGen{Keys: 32, ValueRange: 1000, WindowRecords: 4000, Random: true, Seed: 4}
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]map[uint64]uint64) // window start → key → sum
	for f := uint64(0); f < frames; f++ {
		cols := make([][]uint64, 7)
		for i := f * rows; i < (f+1)*rows; i++ {
			c := gen.ColsAt(i)
			for k := range cols {
				cols[k] = append(cols[k], c[k])
			}
			start := c[6] / netio.WindowTicks * netio.WindowTicks
			if want[start] == nil {
				want[start] = make(map[uint64]uint64)
			}
			want[start][c[0]] += c[3]
		}
		if err := appendFrame(log, 7, 1, f+1, cols[6][rows-1], cols); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: "127.0.0.1:0", WALDir: dir,
		CursorGrace: time.Minute, SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.ReplayedFrames(); n != frames {
		t.Errorf("%d frames replayed, want %d", n, frames)
	}
	pool := srv.exec.MemPool()
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	if out := pool.Stats().ColsOut; out != 0 {
		t.Errorf("%d column slabs still out of the pool after the drain", out)
	}
	if used := pool.Used(memsim.DRAM); used != 0 {
		t.Errorf("%d B still charged to DRAM after the drain", used)
	}
	got := make(map[uint64]map[uint64]uint64)
	for _, w := range srv.Results() {
		got[w.Start] = make(map[uint64]uint64, len(w.Rows))
		for _, r := range w.Rows {
			got[w.Start][r.Key] = r.Val
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed windows differ from the logged stream:\n got %v\nwant %v", got, want)
	}
}

// TestSessionDurableFromGrant: a crash after a session's grant and
// before its first frame reaches the log must not lose the session. The
// copy of the log directory taken as the dial returns is what such a
// crash leaves; a server restarted on it at the same address restores
// the session at sequence 0, and the client resumes it and lands every
// record exactly once.
func TestSessionDurableFromGrant(t *testing.T) {
	gen := netio.RecordGen{Keys: 8, ValueRange: 100, WindowRecords: 1000, Random: true, Seed: 3}
	recs := gen.Records(0, 2500)
	want := windowsOf(t, serveRun(t, testPlan(), "", recs))

	live := t.TempDir()
	srv := serveRun(t, testPlan(), live, nil)
	addr := srv.IngestAddr()
	c, err := netio.Dial(addr, netio.ClientConfig{
		Format: parsefmt.Columnar, FrameRecords: 256,
		Reconnect: &netio.ReconnectConfig{MaxRetries: 100, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	crashed := snapshotDir(t, live) // granted; no frame sent
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}

	srv, err = Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: addr, WALDir: crashed, CheckpointInterval: time.Hour,
		CursorGrace: time.Minute, SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.RecoveredSessions(); n != 1 {
		t.Errorf("recovered %d sessions, want the one granted", n)
	}
	if err := c.Send(recs); err != nil {
		t.Fatalf("send across the restart: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Reconnects() == 0 {
		t.Error("the client never reconnected: it did not cross the restart")
	}
	if got := windowsOf(t, srv); len(want) != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("windows after the restart:\n got %v\nwant %v", got, want)
	}
}

// TestReplayHoldsWatermarkForLaterSessions: recovery meets a session the
// checkpoint does not name only at its first logged frame. When the log
// reads one session windows ahead — more frames than the feed buffers —
// before the first frame of another, the window both feed must still
// hold the later session's records.
func TestReplayHoldsWatermarkForLaterSessions(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendOne := func(token uint64, conn int64, seq, ts uint64) {
		t.Helper()
		cols := make([][]uint64, 7)
		for k := range cols {
			cols[k] = []uint64{0}
		}
		cols[3][0], cols[6][0] = 1, ts // key 0, value 1
		if err := appendFrame(log, token, conn, seq, ts, cols); err != nil {
			t.Fatal(err)
		}
	}
	const ahead = 200
	appendOne(7, 1, 1, 0)
	for i := uint64(0); i < ahead; i++ {
		appendOne(7, 1, i+2, netio.WindowTicks+i*2*netio.WindowTicks/ahead)
	}
	appendOne(8, 2, 1, 1)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: "127.0.0.1:0", WALDir: dir,
		CursorGrace: time.Minute, SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	var got []netio.ResultRow
	for _, w := range srv.Results() {
		if w.Start == 0 {
			got = w.Rows
		}
	}
	if want := []netio.ResultRow{{Key: 0, Val: 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("window 0 holds %v, want %v: session 8's frame arrived behind the watermark", got, want)
	}
}

// TestRestartAfterShutdownPublishesNewWindows: a clean Shutdown seals
// its run, and a restart on the same WAL directory serves that run's
// windows and publishes the windows new data fills after them. The
// sealing checkpoint claims no window past the data, though the drain
// pushed the watermark to the end of time.
func TestRestartAfterShutdownPublishesNewWindows(t *testing.T) {
	dir := t.TempDir()
	gen := netio.RecordGen{Keys: 4, WindowRecords: 1000}
	var starts []uint64
	for _, from := range []uint64{0, 5000} { // windows 0–2, then 5–7
		srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{IngestAddr: "127.0.0.1:0", WALDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(gen.Records(from, from+3000)); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Shutdown(0); err != nil {
			t.Fatal(err)
		}
		starts = starts[:0]
		for _, w := range srv.Results() {
			starts = append(starts, w.Start/netio.WindowTicks)
		}
	}
	if want := []uint64{0, 1, 2, 5, 6, 7}; !reflect.DeepEqual(starts, want) {
		t.Errorf("the restarted server holds windows %v, want %v", starts, want)
	}
}

// serveRun serves plan on dir (empty: no log), streams recs through one
// columnar client and returns the server, still running.
func serveRun(t *testing.T, plan runtime.Plan, dir string, recs []parsefmt.Record) *Server {
	t.Helper()
	srv, err := Serve(plan, runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: "127.0.0.1:0", WALDir: dir,
		// No checkpoint seals a window: the log alone carries the run.
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) > 0 {
		c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar, FrameRecords: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Send(recs); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// windowsOf shuts srv down and returns its windows' rows by start.
func windowsOf(t *testing.T, srv *Server) map[uint64][]netio.ResultRow {
	t.Helper()
	if _, err := srv.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]netio.ResultRow)
	for _, w := range srv.Results() {
		out[w.Start] = w.Rows
	}
	return out
}

// snapshotDir copies every file of dir into a fresh directory: the log
// as a crash at this moment would leave it.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	for name, b := range dirContents(t, dir) {
		if err := os.WriteFile(filepath.Join(out, name), []byte(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// dirContents maps each file of dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestRecoveryAcrossColumnSets: a server logs the columns its plan reads
// and no others, with their mask. The log of a SumPerKey(0, 3) run —
// ad_id, user_id and event_time — recovers under a plan that reads a
// subset of them, as a fresh run of that plan would have computed it;
// under a plan that reads a column the log lacks, Serve fails naming
// both column sets and leaves the directory as it was. A version-1
// segment, seven columns a frame as the wire format before the mask
// wrote them, still recovers.
func TestRecoveryAcrossColumnSets(t *testing.T) {
	gen := netio.RecordGen{Keys: 16, ValueRange: 100, WindowRecords: 1000, Random: true, Seed: 5}
	recs := gen.Records(0, 3500) // three whole windows and half of a fourth
	sum, count, sumPage := testPlan(), testPlan(), testPlan()
	count.ValCol, count.NewAgg, count.Label = 0, ops.Count(), "count"
	sumPage.ValCol = 4

	live := t.TempDir()
	srv := serveRun(t, sum, live, recs)
	crashed := snapshotDir(t, live) // every frame acked, so fsynced
	wantSum := windowsOf(t, srv)

	t.Run("a subset of the logged columns", func(t *testing.T) {
		want := windowsOf(t, serveRun(t, count, "", recs))
		srv := serveRun(t, count, snapshotDir(t, crashed), nil)
		if srv.ReplayedFrames() == 0 {
			t.Fatal("no logged frame replayed")
		}
		got := windowsOf(t, srv)
		if len(want) != 4 || !reflect.DeepEqual(got, want) {
			t.Errorf("recovered under CountPerKey(0):\n got %v\nwant %v", got, want)
		}
	})

	t.Run("a column the log lacks", func(t *testing.T) {
		dir := snapshotDir(t, crashed)
		before := dirContents(t, dir)
		srv, err := Serve(sumPage, runtime.Config{Workers: 2}, "capture", Config{IngestAddr: "127.0.0.1:0", WALDir: dir})
		if err == nil {
			srv.Shutdown(0)
			t.Fatal("recovered a log of {ad_id,user_id,event_time} under a plan that reads page_id")
		}
		for _, set := range []string{"{ad_id,user_id,event_time}", "{ad_id,page_id,event_time}"} {
			if !strings.Contains(err.Error(), set) {
				t.Errorf("error %q does not name %s", err, set)
			}
		}
		if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("the failed Serve changed the directory: %d files before, %d after", len(before), len(after))
		}
	})

	t.Run("a version-1 segment of seven columns", func(t *testing.T) {
		dir := t.TempDir()
		log, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(recs); lo += 256 {
			chunk := recs[lo:min(lo+256, len(recs))]
			cols := make([][]uint64, 7)
			for _, r := range chunk {
				for k, v := range r.Cols() {
					cols[k] = append(cols[k], v)
				}
			}
			if err := appendFrame(log, 7, 1, uint64(lo/256+1), chunk[len(chunk)-1].EventTime, cols); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		for _, seg := range segs {
			toVersion1(t, seg)
		}
		srv := serveRun(t, sum, dir, nil)
		if srv.ReplayedFrames() == 0 {
			t.Fatal("no logged frame replayed")
		}
		got := windowsOf(t, srv)
		if !reflect.DeepEqual(got, wantSum) {
			t.Errorf("recovered from a version-1 segment:\n got %v\nwant %v", got, wantSum)
		}
	})
}

// toVersion1 rewrites a segment as the log wrote it before records
// carried their column mask: header version 1, the two mask bytes of
// every record zero, each record's CRC-32C recomputed.
func toVersion1(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b[:4]) != "SBXW" || b[4] != 3 {
		t.Fatalf("%s: header % x, want a version-3 segment", path, b[:8])
	}
	b[4] = 1
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for off := 16; off < len(b); {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		body := b[off+4 : off+4+n]
		if body[0] == wal.KindFrame && binary.LittleEndian.Uint16(body[33:]) != 7 {
			t.Fatalf("%s: a frame record of %d columns, want 7", path, binary.LittleEndian.Uint16(body[33:]))
		}
		body[39], body[40] = 0, 0
		binary.LittleEndian.PutUint32(body[n-4:], crc32.Checksum(body[:n-4], castagnoli))
		off += 4 + n
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendFrame logs cols durably with the exact ranges AppendFrame takes.
func appendFrame(log *wal.Log, token uint64, conn int64, seq, maxTs uint64, cols [][]uint64) error {
	ranges := make([]parsefmt.ColRange, len(cols))
	parsefmt.ColumnRanges(cols, ranges)
	return log.AppendFrame(token, conn, seq, maxTs, cols, ranges, true)
}
