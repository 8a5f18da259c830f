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

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		cols := testCols(uint64(i*100), 4)
		if err := l.AppendFrame(7, 3, uint64(i+1), uint64(i*1000), cols, nil, i%2 == 0); err != nil {
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
	l2, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var frames, ends int
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
	if n != 10 || frames != 10 || ends != 1 || lastSeq != 10 {
		t.Fatalf("replayed %d frames (%d seen, %d ends, lastSeq %d)", n, frames, ends, lastSeq)
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendFrame(1, 1, uint64(i+1), uint64(i), testCols(0, 2), nil, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the tail and flip one byte of
	// what remains of it.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
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

	l2, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
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
	l, err := Open(Config{Fields: testFields, Dir: dir, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Each record packs to ~100 bytes (3 single-byte-width columns of 8
	// rows): force several rolls, with ascending timestamps.
	// The last append is durable: its group commit also fsyncs every
	// sealed segment, so they are retirable when it returns.
	for i := 0; i < 40; i++ {
		if err := l.AppendFrame(0, 1, 0, uint64(i*100), testCols(0, 8), nil, i == 39); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.SegmentsActive < 3 {
		t.Fatalf("SegmentsActive = %d, want several after rolls", st.SegmentsActive)
	}
	// Retire everything sealed through ts 2000: at least one completed
	// segment has maxTs below that.
	n, err := l.RetireThrough(2000)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("RetireThrough(2000) retired nothing")
	}
	st2 := l.Stats()
	if st2.SegmentsRetired != int64(n) || st2.SegmentsActive != st.SegmentsActive-int64(n) {
		t.Fatalf("after retire: %+v (was %+v, retired %d)", st2, st, n)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if int64(len(segs)) != st2.SegmentsActive {
		t.Fatalf("%d segment files on disk, stats say %d active", len(segs), st2.SegmentsActive)
	}
	// Nothing above the bound may retire: the active segment stays.
	if _, err := l.RetireThrough(^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if st3 := l.Stats(); st3.SegmentsActive != 1 {
		t.Fatalf("retire-all left %d active segments, want just the active one", st3.SegmentsActive)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	l, err := Open(Config{Fields: testFields, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.AppendFrame(uint64(g+1), int64(g), uint64(i+1), uint64(i), testCols(0, 2), nil, true); err != nil {
					t.Errorf("goroutine %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.AppendedFrames != 400 {
		t.Fatalf("AppendedFrames = %d, want 400", st.AppendedFrames)
	}
	// Group commit: far fewer fsyncs than durable appends.
	if st.Syncs == 0 || st.Syncs >= 400 {
		t.Fatalf("Syncs = %d, want batched (0 < syncs < 400)", st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
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

// TestCloseStopsGoroutines pins the leak contract: Close terminates the
// writer and ticker goroutines.
func TestCloseStopsGoroutines(t *testing.T) {
	l, err := Open(Config{Fields: testFields, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFrame(1, 1, 1, 1, testCols(0, 2), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "wal.(*Log).writeLoop") && !strings.Contains(stacks, "wal.(*Log).tickLoop") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wal goroutines survived Close:\n%s", stacks)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Appends after Close fail cleanly.
	if err := l.AppendFrame(1, 1, 2, 2, testCols(0, 2), nil, true); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

func TestPurgeSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Fields: testFields, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendFrame(1, 1, 1, 1, testCols(0, 2), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := PurgeSegments(dir); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 0 {
		t.Fatalf("segments survived purge: %v", segs)
	}
}
