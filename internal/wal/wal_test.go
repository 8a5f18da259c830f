package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/parsefmt"
)

// testFields are the wire columns of testCols' frames.
const testFields parsefmt.FieldSet = 1<<3 - 1

func testCols(base uint64, rows int) [][]uint64 {
	cols := make([][]uint64, 3)
	for c := range cols {
		cols[c] = make([]uint64, rows)
		for r := range cols[c] {
			cols[c][r] = base + uint64(c*rows+r)
		}
	}
	return cols
}

// appendFrame appends cols with the exact ranges AppendFrame takes.
func appendFrame(l *Log, token uint64, conn int64, seq, maxTs uint64, cols [][]uint64, durable bool) error {
	ranges := make([]parsefmt.ColRange, len(cols))
	parsefmt.ColumnRanges(cols, ranges)
	return l.AppendFrame(token, conn, seq, maxTs, cols, ranges, durable)
}

// segFiles lists dir's segment files, oldest first.
func segFiles(dir string) []string {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	return segs
}

// openLog opens a log of testFields frames in dir and closes it when the
// test ends; a second Close of a log the test closed itself is a no-op.
func openLog(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	if err := l.AppendSessionOpen(7, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFrame(7, 3, 1, 0, testCols(0, 4), nil, false); err == nil {
		t.Fatal("a frame without its column ranges was appended")
	}
	for i := 0; i < 10; i++ {
		cols := testCols(uint64(i*100), 4)
		if err := appendFrame(l, 7, 3, uint64(i+1), uint64(i*1000), cols, i%2 == 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.AppendSessionEnd(7, 3); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.AppendedFrames != 10 {
		t.Fatalf("AppendedFrames = %d, want 10", st.AppendedFrames)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the previous segment is indexed and replayable.
	l2 := openLog(t, dir)
	var frames, opens, ends int
	var lastSeq uint64
	n, err := l2.ReplayExisting(func(r *Record) error {
		switch r.Kind {
		case KindFrame:
			frames++
			lastSeq = r.Seq
			if r.Token != 7 || r.Conn != 3 || r.NCols != 3 || r.NRows != 4 {
				t.Fatalf("bad frame record: %+v", r)
			}
			cols := make([][]uint64, r.NCols)
			for c := range cols {
				cols[c] = make([]uint64, r.NRows)
			}
			got := r.Project(r.Fields, cols)
			want := testCols(uint64((frames-1)*100), 4)
			if !reflect.DeepEqual([][]uint64(got), want) {
				t.Fatalf("frame %d cols = %v, want %v", frames, got, want)
			}
		case KindSessionOpen:
			if frames != 0 || r.Token != 7 || r.Conn != 3 {
				t.Fatalf("session open %+v after %d frames", r, frames)
			}
			opens++
		case KindSessionEnd:
			ends++
			if r.Token != 7 {
				t.Fatalf("session end token = %d", r.Token)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || frames != 10 || opens != 1 || ends != 1 || lastSeq != 10 {
		t.Fatalf("replayed %d frames (%d seen, %d opens, %d ends, lastSeq %d)", n, frames, opens, ends, lastSeq)
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	for i := 0; i < 5; i++ {
		if err := appendFrame(l, 1, 1, uint64(i+1), uint64(i), testCols(0, 2), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the tail and flip one byte of
	// what remains of it.
	segs := segFiles(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %v", segs)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b = b[:len(b)-10]
	b[len(b)-1] ^= 0x40
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	// And a crash between creating the next segment and writing its
	// header: a zero-length newest file is part of the torn tail too.
	torn := segPath(dir, 99)
	if err := os.WriteFile(torn, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	var seqs []uint64
	n, err := l2.ReplayExisting(func(r *Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(seqs) != 4 || seqs[3] != 4 {
		t.Fatalf("replay after torn tail: %d frames, seqs %v (want the 4 intact records)", n, seqs)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("headerless newest segment still on disk (stat: %v)", err)
	}
}

func TestSegmentRollAndRetire(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	// Four segments of ten frames each, timestamps ascending: segment g
	// holds ts g*1000 … g*1000+900.
	for g := 0; g < 4; g++ {
		for i := 0; i < 10; i++ {
			if err := appendFrame(l, 0, 1, 0, uint64(g*1000+i*100), testCols(0, 8), i == 9); err != nil {
				t.Fatal(err)
			}
		}
		if mark := l.Roll(); mark != uint64(g+1) {
			t.Fatalf("Roll after segment %d = %d, want %d", g, mark, g+1)
		}
	}
	st := l.Stats()
	if st.SegmentsActive != 5 {
		t.Fatalf("SegmentsActive = %d, want 4 rolled and the active one", st.SegmentsActive)
	}
	// A segment completed after the mark stays, whatever its frames:
	// it may hold a session open record the checkpoint lacks.
	if n, err := l.RetireThrough(2000, 0); n != 0 || err != nil {
		t.Fatalf("RetireThrough below mark 0 removed %d segments (%v), want none", n, err)
	}
	// Through ts 2000 the first two segments retire; the third holds
	// ts 2000…2900.
	n, err := l.RetireThrough(2000, l.Roll())
	if err != nil || n != 2 {
		t.Fatalf("RetireThrough(2000) retired %d (%v), want 2", n, err)
	}
	st2 := l.Stats()
	if st2.SegmentsRetired != 2 || st2.SegmentsActive != 3 {
		t.Fatalf("after retire: %+v (was %+v)", st2, st)
	}
	if segs := segFiles(dir); int64(len(segs)) != st2.SegmentsActive {
		t.Fatalf("%d segment files on disk, stats say %d active", len(segs), st2.SegmentsActive)
	}
	// Retire everything: the active segment stays.
	if _, err := l.RetireThrough(^uint64(0), l.Roll()); err != nil {
		t.Fatal(err)
	}
	if st3 := l.Stats(); st3.SegmentsActive != 1 {
		t.Fatalf("retire-all left %d active segments, want just the active one", st3.SegmentsActive)
	}
}

// TestRollSkipsEmptySegment: a Roll on a segment no commit has written
// to opens no file, so an idle log keeps one segment across checkpoints.
func TestRollSkipsEmptySegment(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	for range 3 {
		if mark := l.Roll(); mark != 0 {
			t.Fatalf("Roll on an empty log = %d, want 0", mark)
		}
	}
	// Buffered but uncommitted records do not make the segment roll
	// either: they go wherever the next commit writes.
	if err := appendFrame(l, 1, 1, 1, 1, testCols(0, 2), false); err != nil {
		t.Fatal(err)
	}
	if mark := l.Roll(); mark != 0 {
		t.Fatalf("Roll with nothing committed = %d, want 0", mark)
	}
	if segs := segFiles(dir); len(segs) != 1 {
		t.Fatalf("segment files %v, want one", segs)
	}
}

// TestRollCarriesBufferedRecords: records appended before a Roll and
// not yet committed go to the new segment, and replay after the old
// segment's records, each exactly once.
func TestRollCarriesBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	for seq := uint64(1); seq <= 6; seq++ {
		// 1–3 are committed to segment 0; 4–6 are buffered at the Roll.
		if err := appendFrame(l, 1, 1, seq, seq*10, testCols(seq, 2), seq == 3); err != nil {
			t.Fatal(err)
		}
		if seq == 5 {
			if mark := l.Roll(); mark != 1 {
				t.Fatalf("Roll = %d, want 1", mark)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segFiles(dir); len(segs) != 2 {
		t.Fatalf("segment files %v, want two", segs)
	}
	var seqs []uint64
	n, err := openLog(t, dir).ReplayExisting(func(r *Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil || n != 6 || !reflect.DeepEqual(seqs, []uint64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("replayed %d frames %v (%v), want 1…6 in order", n, seqs, err)
	}
}

// TestCompletedSegmentsHoldNoFile: a segment keeps its file open only
// while it is active or a commit writes it, so a log that rolls at
// every checkpoint holds one descriptor however many segments wait to
// retire.
func TestCompletedSegmentsHoldNoFile(t *testing.T) {
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files in")
		}
		return len(fds)
	}
	l := openLog(t, t.TempDir())
	before := openFiles()
	for i := range 50 {
		if err := appendFrame(l, 1, 1, uint64(i+1), uint64(i), testCols(0, 2), true); err != nil {
			t.Fatal(err)
		}
		l.Roll()
	}
	if st, n := l.Stats(), openFiles()-before; st.SegmentsActive != 51 || n > 5 {
		t.Fatalf("%d segments hold %d more open files, want about none", st.SegmentsActive, n)
	}
}

// TestRetireSkipsSegmentBeingWritten: a commit to a segment is held at
// its fsync while a Roll completes that segment. Retirement must leave
// it until the commit returns — its last bytes are not yet durable — and
// the next retirement removes it.
func TestRetireSkipsSegmentBeingWritten(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	if err := appendFrame(l, 1, 1, 1, 1, testCols(0, 2), true); err != nil {
		t.Fatal(err)
	}
	inFsync, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	t.Cleanup(release) // before the log's Close, which waits for the commit
	l.syncFile = func(f *os.File) error {
		close(inFsync)
		<-held
		return f.Sync()
	}
	synced := make(chan error, 1)
	go func() { synced <- appendFrame(l, 1, 1, 2, 2, testCols(0, 2), true) }()
	<-inFsync
	mark := l.Roll()
	if mark != 1 {
		t.Fatalf("Roll = %d, want 1", mark)
	}
	if n, err := l.RetireThrough(^uint64(0), mark); n != 0 || err != nil {
		t.Fatalf("retired %d segments (%v) while a commit was writing one", n, err)
	}
	if _, err := os.Stat(segPath(dir, 0)); err != nil {
		t.Fatalf("segment under commit: %v", err)
	}
	release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if n, err := l.RetireThrough(^uint64(0), mark); n != 1 || err != nil {
		t.Fatalf("after the commit retired %d segments (%v), want 1", n, err)
	}
}

// TestDirectorySyncedBeforeFirstSync: the first durable append into a
// fresh segment — the one Open creates, and the one a Roll opens — does
// not return before the log directory has been fsynced after the
// segment's own fsync; later appends to the same segment sync only the
// file.
func TestDirectorySyncedBeforeFirstSync(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	var synced []string // the files fsynced, in order: a segment, or "dir"
	l.syncFile = func(f *os.File) error {
		name := filepath.Base(f.Name())
		if f.Name() == dir {
			name = "dir"
		}
		synced = append(synced, name)
		return f.Sync()
	}
	seg0, seg1 := filepath.Base(segPath(dir, 0)), filepath.Base(segPath(dir, 1))
	for i, want := range [][]string{
		{seg0, "dir"}, // the segment Open created
		{seg0},
		{seg1, "dir"}, // after the Roll
		{seg1},
	} {
		if i == 2 {
			if mark := l.Roll(); mark != 1 {
				t.Fatalf("Roll = %d, want 1", mark)
			}
		}
		synced = synced[:0]
		if err := appendFrame(l, 1, 1, uint64(i+1), 1, testCols(0, 2), true); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(synced, want) {
			t.Fatalf("durable append %d fsynced %v before it returned, want %v", i+1, synced, want)
		}
	}
}

// TestGroupCommitConcurrent: the first appender's commit is held at its
// fsync while the other seven append, so everything it did not take
// shares the one commit after it — exactly two fsyncs for eight durable
// appends, whatever the disk's speed.
func TestGroupCommitConcurrent(t *testing.T) {
	const appenders = 8
	l := openLog(t, t.TempDir())
	inFsync := make(chan struct{})
	var held atomic.Bool
	l.syncFile = func(f *os.File) error {
		if held.CompareAndSwap(false, true) {
			close(inFsync)
			for l.frames.Load() < appenders {
				runtime.Gosched()
			}
		}
		return f.Sync()
	}
	var wg sync.WaitGroup
	appendOne := func(g int) {
		defer wg.Done()
		if err := appendFrame(l, uint64(g+1), int64(g), 1, 0, testCols(0, 2), true); err != nil {
			t.Errorf("appender %d: %v", g, err)
		}
	}
	wg.Add(appenders)
	go appendOne(0)
	<-inFsync
	for g := 1; g < appenders; g++ {
		go appendOne(g)
	}
	wg.Wait()
	if st := l.Stats(); st.AppendedFrames != appenders || st.Syncs != 2 {
		t.Fatalf("%d durable appends took %d fsyncs, want %d appends in 2", st.AppendedFrames, st.Syncs, appenders)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if ck, err := ReadCheckpoint(dir); err != nil || ck != nil {
		t.Fatalf("missing checkpoint: got %v, %v", ck, err)
	}
	want := []byte(`{"sealed_wm":123456,"sessions":[{"token":3735928559}]}`)
	if err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint round trip:\n got %s\nwant %s", got, want)
	}

	// A corrupt or truncated checkpoint must be an error, not silently
	// nil.
	path := filepath.Join(dir, CheckpointFile)
	b, _ := os.ReadFile(path)
	b[len(b)-7] ^= 1
	os.WriteFile(path, b, 0o644)
	if _, err := ReadCheckpoint(dir); err == nil {
		t.Fatal("corrupt checkpoint read back without error")
	}
	b[len(b)-7] ^= 1
	os.WriteFile(path, b[:len(b)-5], 0o644)
	if _, err := ReadCheckpoint(dir); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated checkpoint: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestCloseStopsGoroutines pins that the log owns no goroutine: once
// every Sync has returned, no other goroutine's stack holds a frame of
// package wal, and after Close appends fail cleanly.
func TestCloseStopsGoroutines(t *testing.T) {
	l := openLog(t, t.TempDir())
	if err := appendFrame(l, 1, 1, 1, 1, testCols(0, 2), true); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSessionEnd(1, 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	// The dump starts with this goroutine, whose test frame is in wal.
	others := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:]
	for _, g := range others {
		if strings.Contains(g, "streambox/internal/wal.") {
			t.Fatalf("a goroutine runs in package wal with no call in flight:\n%s", g)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendFrame(l, 1, 1, 2, 2, testCols(0, 2), true); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestCloseWaitsForCommit: Close called while a commit is held at its
// fsync waits for it, then commits what was appended meanwhile; a second
// Close waits for the first. Both records are in the log afterwards.
func TestCloseWaitsForCommit(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	inFsync, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	l.syncFile = func(f *os.File) error {
		if held.CompareAndSwap(false, true) {
			close(inFsync)
			<-release
		}
		return f.Sync()
	}
	synced := make(chan error, 1)
	go func() { synced <- appendFrame(l, 1, 1, 1, 1, testCols(0, 2), true) }()
	<-inFsync
	if err := appendFrame(l, 1, 1, 2, 2, testCols(0, 2), false); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 2)
	for range 2 {
		go func() { closed <- l.Close() }()
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a commit in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for _, ch := range []chan error{synced, closed, closed} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Syncs != 2 {
		t.Fatalf("Syncs = %d, want the held commit and Close's", st.Syncs)
	}
	n, err := openLog(t, dir).ReplayExisting(func(*Record) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("replayed %d frames (%v), want 2", n, err)
	}
}

func TestPurgeSegments(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	if err := appendFrame(l, 1, 1, 1, 1, testCols(0, 2), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := PurgeSegments(dir); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(dir)
	if len(segs) != 0 {
		t.Fatalf("segments survived purge: %v", segs)
	}
}
