package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"streambox/internal/metrics"
	"streambox/internal/parsefmt"
)

// Config tunes a Log. Zero values select the defaults.
type Config struct {
	// Dir holds the segments and checkpoint; created if missing.
	Dir string
	// Fields are the wire columns of every frame appended, which the
	// serving layer fills from its plan (zero: all seven). Open refuses a
	// directory whose log holds a frame lacking any of them: recovery
	// could not rebuild that column.
	Fields parsefmt.FieldSet
}

// LSN identifies an appended record; Sync(lsn) returns once every
// record at or below it is on stable storage.
type LSN uint64

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	AppendedFrames  int64
	AppendedBytes   int64
	Syncs           int64
	FsyncP99Ns      int64
	SegmentsActive  int64
	SegmentsRetired int64
}

// segment is one log file. bytes and maxTs cover what completed
// commits wrote to it (an indexed segment: its valid prefix), so they
// never count a record that is not on stable storage.
type segment struct {
	idx     uint64
	version byte
	path    string
	f       *os.File // open while the segment is active or a commit writes it
	bytes   int64
	maxTs   uint64
	// named is set once a commit has fsynced the log directory after the
	// file was created, so that its name, not only its bytes, is durable.
	named bool
}

// Log is a segmented write-ahead log that owns no goroutine. An append
// packs its record into an in-memory accumulation buffer under a mutex
// and does no I/O. A commit writes the buffer to the active segment and
// fsyncs it, on the goroutine of the first Sync that finds no commit in
// flight, with the mutex released: appends keep encoding into the spare
// buffer while the disk works, and every Sync that arrives meanwhile
// waits and is covered by the next commit — group commit without a
// writer or a timer. Segments roll only at Roll, which the checkpoint
// calls, so a commit always writes one buffer to one file.
type Log struct {
	cfg Config

	mu        sync.Mutex
	committed *sync.Cond // a commit ended, or Close did
	writing   *segment   // the segment a commit is writing outside mu; nil when none is
	active    *segment
	completed []*segment // rolled segments, oldest first
	nextIdx   uint64
	firstIdx  uint64 // first segment index created by this process
	appendLSN LSN
	syncedLSN LSN
	err       error
	closing   bool

	// Accumulation buffer: appends encode records into abuf and raise
	// bufMaxTs to their highest frame timestamp; spare is the
	// committer's double buffer.
	abuf     []byte
	bufMaxTs uint64
	spare    []byte

	// set is the log's /metrics series, declared in Open; Stats loads
	// the same counters. Syncs is the fsync histogram's count.
	set     metrics.Set
	frames  *metrics.Counter
	bytes   *metrics.Counter
	retired *metrics.Counter
	fsync   *metrics.Histogram

	// syncFile is (*os.File).Sync, for a segment and for the log
	// directory; package wal's tests replace it to hold a commit at its
	// fsync or to see what it syncs.
	syncFile func(*os.File) error
}

// maxBufferedBytes caps the accumulation buffer: an append past it
// commits what is buffered before it packs its record.
const maxBufferedBytes = 4 << 20

// Open creates (or reopens) the log in cfg.Dir. Existing segments from
// a previous run are indexed — their valid record prefix scanned for
// size and max timestamp so retirement keeps working across a restart —
// but left untouched; new appends go to a fresh segment. Use
// ReplayExisting to feed their records back through the pipeline before
// serving.
func Open(cfg Config) (*Log, error) {
	if cfg.Fields == 0 {
		cfg.Fields = parsefmt.AllFields
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:      cfg,
		abuf:     make([]byte, 0, 128<<10),
		spare:    make([]byte, 0, 128<<10),
		syncFile: (*os.File).Sync,
	}
	l.frames = l.set.Counter("streambox_wal_appended_frames_total")
	l.bytes = l.set.Counter("streambox_wal_appended_bytes_total")
	l.retired = l.set.Counter("streambox_wal_segments_retired_total")
	l.set.Collect(func(e *metrics.Emitter) {
		st := l.Stats()
		e.Int("streambox_wal_syncs_total", st.Syncs)
		e.Int("streambox_wal_fsync_p99_ns", st.FsyncP99Ns)
		e.Int("streambox_wal_segments_active", st.SegmentsActive)
	})
	l.fsync = l.set.Histogram("streambox_wal_fsync_ns")
	l.committed = sync.NewCond(&l.mu)
	if err := l.indexExisting(); err != nil {
		return nil, err
	}
	l.firstIdx = l.nextIdx
	if err := l.roll(); err != nil {
		return nil, err
	}
	return l, nil
}

// errShortSegHeader marks a segment file that ends inside its header.
var errShortSegHeader = errors.New("short segment header")

func segPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", idx))
}

// indexExisting scans segments left by a previous process: records each
// one's valid prefix length and max timestamp, and checks that every
// frame holds the columns this log records. The scan stops a segment's
// accounting at the first torn record (crash tail), and drops a newest
// segment the crash tore before its header was written.
func (l *Log) indexExisting() error {
	paths, err := filepath.Glob(filepath.Join(l.cfg.Dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for i, p := range paths {
		seg, err := scanSegment(p, l.cfg.Fields)
		if errors.Is(err, errShortSegHeader) && i == len(paths)-1 {
			// The crash landed between roll creating the newest segment
			// and writing its header. Nothing was ever logged there: it
			// is the torn tail of the log, not corruption.
			if err := os.Remove(p); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("wal: index %s: %w", p, err)
		}
		l.completed = append(l.completed, seg)
		if seg.idx >= l.nextIdx {
			l.nextIdx = seg.idx + 1
		}
	}
	return nil
}

// scanSegment reads a segment's header and walks its records, stopping
// at the first corruption, and returns its metadata (records are not
// retained). A frame that lacks one of fields is an error.
func scanSegment(path string, fields parsefmt.FieldSet) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [segHeaderBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", errShortSegHeader, err)
	}
	idx, version, err := parseSegHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	seg := &segment{idx: idx, version: version, path: path, bytes: segHeaderBytes}
	var rec Record
	err = walkSegment(f, version, &rec, func(r *Record, recBytes int64) error {
		seg.bytes += recBytes
		if r.Kind != KindFrame {
			return nil
		}
		if !r.Fields.Covers(fields) {
			return fmt.Errorf("a frame logged with columns %v lacks some of the columns %v the log now records; "+
				"recover it under a plan that reads only logged columns, or remove the directory to start a new run", r.Fields, fields)
		}
		seg.maxTs = max(seg.maxTs, r.MaxTs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return seg, nil
}

// walkSegment streams records from r (positioned after the header of a
// segment of the given version) into fn until EOF or the first corrupt
// record — corruption is the log's end, not an error: a torn record is
// the tail of the last commit, and commits are serialized, each fsynced
// before any ack it covers and before the next begins, so nothing after
// the tear was ever acked. fn may keep nothing: rec is reused.
func walkSegment(r io.Reader, version byte, rec *Record, fn func(rec *Record, recBytes int64) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	var buf []byte
	for {
		var lenb [4]byte
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return nil // clean EOF or torn length prefix: end of log
		}
		body := int(uint32(lenb[0]) | uint32(lenb[1])<<8 | uint32(lenb[2])<<16 | uint32(lenb[3])<<24)
		if body < recHeaderBytes+recCRCBytes || body > maxRecordData+recHeaderBytes+recCRCBytes {
			return nil
		}
		if cap(buf) < 4+body {
			buf = make([]byte, 4+body)
		}
		buf = buf[:4+body]
		copy(buf, lenb[:])
		if _, err := io.ReadFull(br, buf[4:]); err != nil {
			return nil // torn body
		}
		if _, err := DecodeRecord(buf, version, rec); err != nil {
			return nil // checksum/geometry failure: end of durable prefix
		}
		if err := fn(rec, int64(4+body)); err != nil {
			return err
		}
	}
}

// ReplayExisting streams every record of the segments that predate this
// Open, oldest segment first, into fn. Call before serving traffic —
// concurrent appends go to the new active segment and are not replayed.
func (l *Log) ReplayExisting(fn func(rec *Record) error) (frames int64, err error) {
	l.mu.Lock()
	var segs []*segment
	for _, s := range l.completed {
		if s.idx < l.firstIdx {
			segs = append(segs, s)
		}
	}
	l.mu.Unlock()
	var rec Record
	for _, s := range segs {
		f, err := os.Open(s.path)
		if err != nil {
			return frames, err
		}
		if _, err := f.Seek(segHeaderBytes, io.SeekStart); err != nil {
			f.Close()
			return frames, err
		}
		err = walkSegment(f, s.version, &rec, func(r *Record, _ int64) error {
			if r.Kind == KindFrame {
				frames++
			}
			return fn(r)
		})
		f.Close()
		if err != nil {
			return frames, err
		}
	}
	return frames, nil
}

// roll completes the active segment and opens the next one; on failure
// the active segment stays. Caller must hold l.mu or be initializing.
func (l *Log) roll() error {
	idx := l.nextIdx
	path := segPath(l.cfg.Dir, idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderBytes]byte
	putSegHeader(hdr[:], idx)
	// The header goes straight to the file: every commit to this segment
	// writes strictly later, and the first one's fsync covers it.
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if old := l.active; old != nil {
		l.completed = append(l.completed, old)
		if l.writing != old {
			old.f.Close() // else the commit writing it closes it
		}
	}
	l.nextIdx++
	l.active = &segment{idx: idx, version: segVersion, path: path, f: f, bytes: segHeaderBytes}
	return nil
}

// Roll completes the active segment if commits have written records to
// it, opening the next one, and returns the active segment's index: the
// mark below which every segment is complete, for RetireThrough. The
// checkpoint calls it before its session snapshot, so segments roll once
// a checkpoint interval at most, and an idle log creates no file. A
// record appended before Roll and not yet committed goes to the new
// segment, which charges its timestamp. A failed roll leaves the active
// segment in place, to roll at a later checkpoint.
func (l *Log) Roll() (mark uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active != nil && l.active.bytes > segHeaderBytes {
		l.roll()
	}
	return l.nextIdx - 1
}

// append packs one record into the accumulation buffer and returns its
// LSN. It does no I/O unless the buffer is past maxBufferedBytes — then
// it commits first — so the caller pays the encode and a memory append.
// Durability comes from Sync.
func (l *Log) append(kind byte, token uint64, conn int64, seq, maxTs uint64, fields parsefmt.FieldSet, cols [][]uint64, ranges []parsefmt.ColRange, nrows int) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.abuf) > maxBufferedBytes && l.err == nil && !l.closing {
		if l.writing != nil {
			l.committed.Wait()
		} else {
			l.commit() // disk behind: write the buffer out before adding to it
		}
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.closing {
		return 0, os.ErrClosed
	}
	start := len(l.abuf)
	l.abuf = appendRecord(l.abuf, kind, token, conn, seq, maxTs, fields, cols, ranges, nrows)
	if kind == KindFrame {
		l.bufMaxTs = max(l.bufMaxTs, maxTs)
		l.frames.Add(1)
	}
	l.bytes.Add(int64(len(l.abuf) - start))
	l.appendLSN++
	return l.appendLSN, nil
}

// Sync blocks until every record at or below lsn is on stable storage.
// A caller that finds no commit in flight commits for everyone; the
// others wait for it, and commit next if it did not take their records.
func (l *Log) Sync(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn = min(lsn, l.appendLSN)
	for l.syncedLSN < lsn {
		switch {
		case l.err != nil:
			return l.err
		case l.writing != nil:
			l.committed.Wait()
		default:
			l.commit()
		}
	}
	return nil
}

// commit writes everything appended so far to the active segment with
// one write, and fsyncs that file once. The caller holds l.mu and has
// seen no commit in flight; commit releases l.mu for the I/O and holds
// it again when it returns, with syncedLSN advanced to the LSN it took,
// or l.err set. The ack never passes the durable prefix: Sync returns
// only once syncedLSN covers its record, every record at or below the
// LSN taken is in this buffer or an earlier commit's, and syncedLSN
// advances only after this buffer's fsync.
//
// The first commit to a segment also fsyncs the log directory, after the
// file: a file's fsync makes its bytes durable but not its name, and
// without the directory's a power cut could drop a segment holding acked
// records. That is once a segment, so at most once a checkpoint interval.
func (l *Log) commit() {
	buf, maxTs, target, tail := l.abuf, l.bufMaxTs, l.appendLSN, l.active
	named := tail.named
	l.abuf, l.bufMaxTs = l.spare[:0], 0
	l.writing = tail
	l.mu.Unlock()

	_, err := tail.f.Write(buf)
	if err == nil {
		start := time.Now()
		err = l.syncFile(tail.f)
		l.fsync.Observe(time.Since(start).Nanoseconds())
	}
	if err == nil && !named {
		err = l.syncDir()
	}

	l.mu.Lock()
	l.spare = buf
	l.writing = nil
	if tail != l.active {
		tail.f.Close() // rolled while this commit wrote it
	}
	if err != nil {
		l.err = err
	} else {
		tail.named = true
		tail.bytes += int64(len(buf))
		tail.maxTs = max(tail.maxTs, maxTs)
		l.syncedLSN = target
	}
	l.committed.Broadcast()
}

// syncDir fsyncs the log directory through the syncFile seam.
func (l *Log) syncDir() error {
	d, err := os.Open(l.cfg.Dir)
	if err != nil {
		return err
	}
	err = l.syncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendFrame logs an accepted data frame. cols hold equal-length
// columns (the engine's native layout), one per column of Config.Fields,
// ascending; ranges carry each column's exact min/max
// (parsefmt.ColumnRanges), which fix its packing: the ingest path scans
// them once, taking the frame's maxTs from the same scan. When durable
// is set the call blocks until the record is fsynced — the precondition
// for advancing a session ack, and what the ingest server always asks
// for; otherwise it returns after the buffered append, and the record
// becomes durable with the next Sync, or at Close (the benchmark's
// append probe).
func (l *Log) AppendFrame(token uint64, conn int64, seq, maxTs uint64, cols [][]uint64, ranges []parsefmt.ColRange, durable bool) error {
	if len(cols) != l.cfg.Fields.Len() || len(ranges) != len(cols) {
		return fmt.Errorf("wal: a frame of %d columns and %d ranges, the log records %d: %v", len(cols), len(ranges), l.cfg.Fields.Len(), l.cfg.Fields)
	}
	lsn, err := l.append(KindFrame, token, conn, seq, maxTs, l.cfg.Fields, cols, ranges, len(cols[0]))
	if err != nil {
		return err
	}
	if durable {
		return l.Sync(lsn)
	}
	return nil
}

// AppendSessionOpen records that a session was granted, and returns once
// the record is durable: recovery restores the session at sequence 0
// even when none of its frames reached the log.
func (l *Log) AppendSessionOpen(token uint64, conn int64) error {
	return l.appendControl(KindSessionOpen, token, conn)
}

// AppendSessionEnd records that a session finished cleanly (EOS) or
// expired, and returns once the record is durable: recovery must not
// resurrect its cursor or session entry.
func (l *Log) AppendSessionEnd(token uint64, conn int64) error {
	return l.appendControl(KindSessionEnd, token, conn)
}

// appendControl appends a record without data and syncs it.
func (l *Log) appendControl(kind byte, token uint64, conn int64) error {
	lsn, err := l.append(kind, token, conn, 0, 0, 0, nil, nil, 0)
	if err != nil {
		return err
	}
	return l.Sync(lsn)
}

// RetireThrough removes completed segments below mark whose every frame
// feeds only windows sealed at or before tsBound — call it after the
// checkpoint covering tsBound has persisted, passing
// sealedWatermark−windowSize and the Roll taken before the checkpoint's
// session snapshot. A segment below the mark holds no session open
// record the snapshot lacks: every record in it was appended before
// Roll, after its session entered the table. The active segment never
// retires, nor does a completed one a commit is still writing; any
// other completed segment is on stable storage, fsynced by the last
// commit that wrote it. Returns how many segments were removed.
func (l *Log) RetireThrough(tsBound, mark uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	kept := l.completed[:0]
	var firstErr error
	for _, s := range l.completed {
		if s != l.writing && s.maxTs <= tsBound && s.idx < mark {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = err
			}
			n++
			continue
		}
		kept = append(kept, s)
	}
	l.completed = kept
	l.retired.Add(int64(n))
	return n, firstErr
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	st := Stats{
		AppendedFrames:  l.frames.Load(),
		AppendedBytes:   l.bytes.Load(),
		Syncs:           l.fsync.Count(),
		FsyncP99Ns:      l.fsync.Quantile(0.99),
		SegmentsRetired: l.retired.Load(),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st.SegmentsActive = int64(len(l.completed))
	if l.active != nil {
		st.SegmentsActive++
	}
	return st
}

// Metrics returns the log's series for /metrics.
func (l *Log) Metrics() *metrics.Set { return &l.set }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.cfg.Dir }

// Close waits for any commit in flight, commits what is left, and
// closes the segment files; a second Close waits for the first. The
// segments stay on disk for recovery unless PurgeSegments is called.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writing != nil || l.closing && l.active != nil {
		l.committed.Wait() // a commit in flight, or another Close
	}
	if l.closing {
		return l.err
	}
	l.closing = true
	if l.err == nil && l.syncedLSN < l.appendLSN {
		l.commit()
	}
	l.active.f.Close()
	l.active = nil
	l.committed.Broadcast()
	return l.err
}

// PurgeSegments removes every segment file in dir — used after a clean
// shutdown has sealed all windows and written the final checkpoint, so
// the log carries no unsealed frames.
func PurgeSegments(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
