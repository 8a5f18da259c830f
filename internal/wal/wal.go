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
	// SegmentBytes rolls the active segment past this size
	// (default 64 MiB).
	SegmentBytes int64
	// Fields are the wire columns of every frame appended, which the
	// serving layer fills from its plan (zero: all seven). Open refuses a
	// directory whose log holds a frame lacking any of them: recovery
	// could not rebuild that column.
	Fields parsefmt.FieldSet
}

// syncInterval is the background flush cadence for appends nobody is
// waiting on — session-end markers and non-durable frame appends.
// Durable appends are group-committed immediately regardless.
const syncInterval = 5 * time.Millisecond

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

type segment struct {
	idx     uint64
	version byte
	path    string
	f       *os.File
	bytes   int64
	maxTs   uint64
	synced  bool // completed segments only: fully fsynced at roll
}

// Log is a segmented write-ahead log. Append is cheap — records are
// packed into an in-memory accumulation buffer under a mutex, and a
// dedicated writer goroutine drains that buffer to disk outside the
// lock, so neither write(2) latency nor fsync writeback stalls ever
// ride the append path. Durability is batched: every waiter that calls
// Sync while an fsync is in flight is covered by the next one — group
// commit without a timer on the ack path.
type Log struct {
	cfg Config

	mu         sync.Mutex
	appendCnd  *sync.Cond // writer waits here for work
	syncedCnd  *sync.Cond // Sync waiters wait here for durability
	drainedCnd *sync.Cond // backpressured appends wait for a drain
	active     *segment
	completed  []*segment // rolled segments, oldest first
	nextIdx    uint64
	firstIdx   uint64 // first segment index created by this process
	appendLSN  LSN
	wantLSN    LSN // highest LSN somebody asked to make durable
	syncedLSN  LSN
	err        error
	closing    bool

	// Accumulation buffer: appends encode records into abuf; chunks
	// records which segment each byte range belongs to (a drain can
	// span a roll). spare/spareChunks are the writer's double buffer.
	abuf        []byte
	chunks      []chunk
	spare       []byte
	spareChunks []chunk
	// sealedPending are segments rolled away from but not yet fsynced;
	// the writer syncs them after the drain that carries their bytes.
	sealedPending []*segment

	// set is the log's /metrics series, declared in Open; Stats loads
	// the same counters. Syncs is the fsync histogram's count.
	set     metrics.Set
	frames  *metrics.Counter
	bytes   *metrics.Counter
	retired *metrics.Counter
	fsync   *metrics.Histogram

	writerDone chan struct{}
	tickerStop chan struct{}
	tickerDone chan struct{}
}

// chunk assigns a run of accumulated bytes to the segment that owns
// them.
type chunk struct {
	seg *segment
	n   int
}

const (
	// drainBytes is the writer's wake-up threshold: below it, appended
	// bytes wait for more company (or the sync tick) so steady-state
	// write(2) calls stay well-sized.
	drainBytes = 128 << 10
	// maxBufferedBytes caps the accumulation buffer; appends beyond it
	// block until the writer drains — backpressure when the disk is
	// genuinely behind.
	maxBufferedBytes = 4 << 20
)

// Open creates (or reopens) the log in cfg.Dir. Existing segments from
// a previous run are indexed — their valid record prefix scanned for
// size and max timestamp so retirement keeps working across a restart —
// but left untouched; new appends go to a fresh segment. Use
// ReplayExisting to feed their records back through the pipeline before
// serving.
func Open(cfg Config) (*Log, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 64 << 20
	}
	if cfg.Fields == 0 {
		cfg.Fields = parsefmt.AllFields
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:        cfg,
		abuf:       make([]byte, 0, drainBytes),
		spare:      make([]byte, 0, drainBytes),
		writerDone: make(chan struct{}),
		tickerStop: make(chan struct{}),
		tickerDone: make(chan struct{}),
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
	l.appendCnd = sync.NewCond(&l.mu)
	l.syncedCnd = sync.NewCond(&l.mu)
	l.drainedCnd = sync.NewCond(&l.mu)
	if err := l.indexExisting(); err != nil {
		for _, seg := range l.completed {
			seg.f.Close()
		}
		return nil, err
	}
	l.firstIdx = l.nextIdx
	if err := l.roll(); err != nil {
		return nil, err
	}
	go l.writeLoop()
	go l.tickLoop()
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
		seg.synced = true // survived a restart; as durable as it gets
		l.completed = append(l.completed, seg)
		if seg.idx >= l.nextIdx {
			l.nextIdx = seg.idx + 1
		}
	}
	return nil
}

// scanSegment reads a segment's header and walks its records, stopping
// at the first corruption, and returns its metadata (file left open for
// retirement bookkeeping; records are not retained). A frame that lacks
// one of fields is an error.
func scanSegment(path string, fields parsefmt.FieldSet) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [segHeaderBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %v", errShortSegHeader, err)
	}
	idx, version, err := parseSegHeader(hdr[:])
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{idx: idx, version: version, path: path, f: f, bytes: segHeaderBytes}
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
		f.Close()
		return nil, err
	}
	return seg, nil
}

// walkSegment streams records from r (positioned after the header of a
// segment of the given version) into fn until EOF or the first corrupt
// record — corruption is the log's end, not an error. fn may keep
// nothing: rec is reused.
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

// roll seals the active segment (the writer fsyncs it once the drain
// carrying its last bytes lands) and opens the next one. Caller must
// hold l.mu or be initializing.
func (l *Log) roll() error {
	if l.active != nil {
		l.completed = append(l.completed, l.active)
		l.sealedPending = append(l.sealedPending, l.active)
	}
	idx := l.nextIdx
	l.nextIdx++
	path := segPath(l.cfg.Dir, idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderBytes]byte
	putSegHeader(hdr[:], idx)
	// The header goes straight to the file: every accumulated chunk for
	// this segment drains strictly later, so file order is preserved.
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.active = &segment{idx: idx, version: segVersion, path: path, f: f, bytes: segHeaderBytes}
	return nil
}

// append packs one record into the accumulation buffer and returns its
// LSN. No I/O happens here — the writer goroutine drains the buffer —
// so the caller pays the encode and a memory append, nothing more.
// Durability comes from Sync (or the background tick).
func (l *Log) append(kind byte, token uint64, conn int64, seq, maxTs uint64, fields parsefmt.FieldSet, cols [][]uint64, ranges []parsefmt.ColRange, nrows int) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.abuf) > maxBufferedBytes && l.err == nil && !l.closing {
		l.drainedCnd.Wait() // disk behind: block until the writer catches up
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.closing {
		return 0, os.ErrClosed
	}
	start := len(l.abuf)
	l.abuf = appendRecord(l.abuf, kind, token, conn, seq, maxTs, fields, cols, ranges, nrows)
	n := len(l.abuf) - start
	if k := len(l.chunks); k > 0 && l.chunks[k-1].seg == l.active {
		l.chunks[k-1].n += n
	} else {
		l.chunks = append(l.chunks, chunk{seg: l.active, n: n})
	}
	l.active.bytes += int64(n)
	if kind == KindFrame {
		if maxTs > l.active.maxTs {
			l.active.maxTs = maxTs
		}
		l.frames.Add(1)
	}
	l.bytes.Add(int64(n))
	l.appendLSN++
	lsn := l.appendLSN
	if l.active.bytes >= l.cfg.SegmentBytes {
		if err := l.roll(); err != nil {
			l.err = err
			return 0, err
		}
	}
	if len(l.abuf) >= drainBytes || len(l.sealedPending) > 0 {
		l.appendCnd.Signal()
	}
	return lsn, nil
}

// Sync blocks until every record at or below lsn is on stable storage,
// sharing fsyncs with every other concurrent waiter (group commit).
func (l *Log) Sync(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.wantLSN {
		l.wantLSN = lsn
		l.appendCnd.Signal()
	}
	for l.syncedLSN < lsn && l.err == nil && !l.closing {
		l.syncedCnd.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.syncedLSN < lsn {
		return os.ErrClosed
	}
	return nil
}

// AppendFrame logs an accepted data frame. cols hold equal-length
// columns (the engine's native layout), one per column of Config.Fields,
// ascending; ranges, when non-nil, carry
// each column's exact min/max so the packer skips its own scan (the
// ingest path scans them once, taking the frame's maxTs from the same
// scan). When durable
// is set the call blocks until the record is fsynced — the
// precondition for advancing a session ack, and what the ingest server
// always asks for; otherwise it returns after the buffered write and
// the record rides the background sync (the benchmark's append probe).
func (l *Log) AppendFrame(token uint64, conn int64, seq, maxTs uint64, cols [][]uint64, ranges []parsefmt.ColRange, durable bool) error {
	if len(cols) != l.cfg.Fields.Len() {
		return fmt.Errorf("wal: a frame of %d columns, the log records %d: %v", len(cols), l.cfg.Fields.Len(), l.cfg.Fields)
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

// AppendSessionEnd records that a session finished cleanly (EOS) or
// expired: recovery must not resurrect its cursor or session entry.
func (l *Log) AppendSessionEnd(token uint64, conn int64) error {
	_, err := l.append(KindSessionEnd, token, conn, 0, 0, 0, nil, nil, 0)
	return err
}

// writeLoop is the log's only disk writer and the group-commit daemon.
// It steals the accumulation buffer under the mutex, then performs
// every write(2) and fsync outside it — appends keep encoding into the
// other buffer while the disk works, so writeback stalls never reach
// the ingest path. An fsync happens only when some Sync waiter (or the
// ticker, or close) wants durability; one fsync covers everyone who
// queued up meanwhile.
func (l *Log) writeLoop() {
	defer close(l.writerDone)
	for {
		l.mu.Lock()
		for !l.closing && l.err == nil &&
			len(l.abuf) < drainBytes && len(l.sealedPending) == 0 &&
			(l.wantLSN <= l.syncedLSN || l.appendLSN <= l.syncedLSN) {
			l.appendCnd.Wait()
		}
		if l.err != nil || (l.closing && len(l.abuf) == 0 && len(l.sealedPending) == 0 && l.appendLSN <= l.syncedLSN) {
			l.syncedCnd.Broadcast()
			l.drainedCnd.Broadcast()
			l.mu.Unlock()
			return
		}
		// Steal the accumulated bytes, their segment spans, and the
		// segments sealed since the last drain; give appends the spare.
		buf, chunks := l.abuf, l.chunks
		l.abuf, l.chunks = l.spare[:0], l.spareChunks[:0]
		sealed := l.sealedPending
		l.sealedPending = nil
		target := l.appendLSN
		syncActive := l.wantLSN > l.syncedLSN || l.closing
		tail := l.active
		l.drainedCnd.Broadcast()
		l.mu.Unlock()

		var err error
		off := 0
		for _, ch := range chunks {
			if _, werr := ch.seg.f.Write(buf[off : off+ch.n]); werr != nil {
				err = werr
				break
			}
			off += ch.n
		}
		// Sealed segments are fully on the fd now: make them durable so
		// retirement can drop them. Then the group commit, if anyone
		// wants it.
		if err == nil {
			for _, s := range sealed {
				if serr := s.f.Sync(); serr != nil {
					err = serr
					break
				}
			}
		}
		if err == nil && syncActive {
			start := time.Now()
			err = tail.f.Sync()
			l.fsync.Observe(time.Since(start).Nanoseconds())
		}

		l.mu.Lock()
		l.spare, l.spareChunks = buf, chunks
		if err != nil {
			l.err = err
		} else {
			for _, s := range sealed {
				s.synced = true
			}
			if syncActive && target > l.syncedLSN {
				l.syncedLSN = target
			}
		}
		l.syncedCnd.Broadcast()
		l.drainedCnd.Broadcast()
		l.mu.Unlock()
	}
}

// tickLoop periodically asks for a background sync so appends nobody
// waits on become durable within ~syncInterval.
func (l *Log) tickLoop() {
	defer close(l.tickerDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.tickerStop:
			return
		case <-t.C:
			l.mu.Lock()
			if l.appendLSN > l.syncedLSN && l.appendLSN > l.wantLSN {
				l.wantLSN = l.appendLSN
				l.appendCnd.Signal()
			}
			l.mu.Unlock()
		}
	}
}

// RetireThrough removes completed segments whose every frame feeds only
// windows sealed at or before tsBound — call it after the checkpoint
// covering tsBound has persisted, passing sealedWatermark−windowSize.
// The active segment never retires. Returns how many segments were
// removed.
func (l *Log) RetireThrough(tsBound uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	kept := l.completed[:0]
	var firstErr error
	for _, s := range l.completed {
		if s.synced && s.maxTs <= tsBound {
			s.f.Close()
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

// Close drains and fsyncs everything appended, stops the writer and
// ticker, and closes the segment files. The segments stay on disk for
// recovery unless PurgeSegments is called.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		<-l.writerDone
		return l.err
	}
	l.closing = true
	close(l.tickerStop)
	// The writer sees closing, performs one final drain + fsync (the
	// closing flag forces syncActive), and exits once everything
	// appended is durable.
	l.appendCnd.Broadcast()
	l.drainedCnd.Broadcast()
	l.mu.Unlock()
	<-l.tickerDone
	<-l.writerDone

	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.completed {
		s.f.Close()
	}
	if l.active != nil {
		l.active.f.Close()
		l.active = nil
	}
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
