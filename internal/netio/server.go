package netio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/faultinject"
	"streambox/internal/metrics"
	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

// readBufferBytes sizes every connection's buffered reader. It stages
// frame headers, small frames and the first part of a large one; bufio
// reads any remainder of a frame at least this long straight from the
// socket into the frame's slab.
const readBufferBytes = 64 << 10

// ServerConfig configures an ingest listener.
type ServerConfig struct {
	// Feed receives decoded batches (required).
	Feed *Feed
	// FrameCredits is the per-connection flow-control window in frames
	// (0 picks 16).
	FrameCredits int
	// Overloaded, when non-nil, reports engine backpressure: while it
	// returns true the server withholds credit grants, so clients stall
	// instead of the server buffering unboundedly. The serving layer
	// wires this to mempool DRAM utilization crossing the runtime's
	// backpressure threshold.
	Overloaded func() bool
	// IdleTimeout bounds the steady-state wait for the next frame from a
	// connected client; a connection silent past it is severed and its
	// session left for the reaper to park and expire. Zero disables the
	// deadline. It also bounds each ack write (10s when zero): a client
	// that sends but never reads its acks is severed the same way.
	IdleTimeout time.Duration
	// CursorGrace is how long a detached session's watermark cursor keeps
	// holding window closes before it is parked (excluded from the
	// watermark minimum). Zero picks 10s; negative disables parking.
	CursorGrace time.Duration
	// SessionTimeout is how long a detached session stays resumable
	// before it is expired and its cursor retired. Zero picks 120s;
	// negative disables expiry.
	SessionTimeout time.Duration
	// MaxConns caps concurrently served connections; a handshake past
	// the cap is shed with a statusOverloaded grant. Zero means unlimited.
	MaxConns int
	// ShedPressure, when non-nil, sheds *new* handshakes while it
	// returns true (wired to mempool pressure past the shedding
	// threshold). Deliberately separate from Overloaded, which throttles
	// established connections by withholding credit instead.
	ShedPressure func() bool
	// Faults, when non-nil and enabled, wraps every accepted connection
	// with the fault injector (chaos testing: injected resets, partial
	// writes and corruption on the server side of the pipe).
	Faults *faultinject.Injector
	// WAL, when non-nil, is the write-ahead log, safe for every handler
	// to append to. A fresh session's open record is durable before its
	// grant is written, so a crash after the grant cannot lose the
	// session. Every accepted data frame is appended durably before it is
	// delivered to the feed, and the cumulative ack advances strictly
	// afterwards, so a crash can never lose a frame the client was told
	// to forget. A session that ends for good (clean EOS or expiry) logs
	// its end, so recovery does not resurrect it.
	WAL *wal.Log
	// RestoreSessions seeds the session table from a recovery checkpoint
	// before the listener accepts: each entry re-arms a resume token at
	// its durable ack, detached as of startup (the reaper's grace and
	// expiry clocks start now).
	RestoreSessions []SessionState
	// NextConnID, when positive, is the highest connection/cursor id
	// already in use — recovery passes the highest id seen in the
	// checkpoint and log so newly minted ids cannot collide with
	// replayed cursors.
	NextConnID int64
}

// SessionState is a resumable session as it is checkpointed and
// recovered — the one declaration of it: Server.SessionSnapshot produces
// it, the recovery checkpoint stores it under these JSON names, recovery
// folds log records into it, and Feed.Restore and
// ServerConfig.RestoreSessions consume it.
type SessionState struct {
	// Token is the resume token and Conn the session's feed-cursor id,
	// stable across its connections.
	Token uint64 `json:"token"`
	Conn  int64  `json:"conn"`
	// LastSeq is the durable cumulative ack clients resume above.
	LastSeq uint64 `json:"last_seq"`
	// CursorTs and Parked are the session's watermark cursor. A session
	// whose cursor was parked before a crash is restored parked, and a
	// later resume unparks it.
	CursorTs uint64 `json:"cursor_ts"`
	Parked   bool   `json:"parked"`
}

// Counters is one scrape of the server's aggregate ingest counters.
type Counters struct {
	// Conns counts accepted connections; ActiveConns is the current
	// number still open.
	Conns, ActiveConns int64
	// Frames counts data frames received; FramesByFormat splits the
	// count by wire format code (parsefmt.PB and parsefmt.Columnar; the
	// other entries stay zero).
	Frames         int64
	FramesByFormat [4]int64
	// IngestedRecords counts records decoded and delivered to the feed.
	IngestedRecords int64
	// DroppedRecords counts records decoded but discarded because the
	// pipeline was draining (listener closed mid-stream).
	DroppedRecords int64
	// DecodeErrors counts frames whose payload failed to decode
	// (malformed bytes, bad columnar geometry, oversized frames);
	// ChecksumErrors separately counts frames of either format whose
	// payload failed checksum verification — corruption in transit
	// rather than a confused or hostile sender.
	DecodeErrors   int64
	ChecksumErrors int64
	// SessionsResumed counts successful resume handshakes (a client
	// reattaching to its session after a connection loss);
	// ActiveSessions is the current number of live sessions.
	SessionsResumed int64
	ActiveSessions  int64
	// DuplicateFrames counts replayed frames discarded by sequence-number
	// dedup — frames the client retransmitted because the ack for the
	// first copy was lost with the connection.
	DuplicateFrames int64
	// ShedConns counts handshakes refused by admission control (MaxConns
	// or ShedPressure) with a statusOverloaded grant.
	ShedConns int64
	// ExpiredSessions counts detached sessions reaped past
	// SessionTimeout; ParkedCursors is the current number of watermark
	// cursors parked past CursorGrace (no longer stalling window closes).
	ExpiredSessions int64
	ParkedCursors   int64
	// IdleTimeouts counts connections severed by the steady-state
	// deadlines: no frame arrived, or an ack could not be written, for
	// IdleTimeout.
	IdleTimeouts int64
}

// serverConn is one accepted connection's state. key identifies the
// accepted socket; id is the feed watermark cursor, which the session
// keeps stable across its connections (so key != id after a resume).
type serverConn struct {
	key    int64
	id     int64
	conn   net.Conn
	format parsefmt.Format
	sess   *session
	// labels is the connection's /metrics label set, built once as it
	// attaches.
	labels string

	// cleanEOS is set by the serve loop on a clean end-of-stream marker,
	// and by the handshake when the log refused a fresh session's open
	// record; the handler's exit path (same goroutine) reads it to decide
	// between retiring the session and leaving it resumable.
	cleanEOS bool
	// core is the frame loop's protocol state, touched only by it.
	core connCore

	frames   atomic.Int64
	ingested atomic.Int64
	dropped  atomic.Int64
	decErrs  atomic.Int64
	chkErrs  atomic.Int64
	// granted counts credits granted; less frames, it is the in-flight
	// window: how many frames the client may still send before blocking.
	granted atomic.Int64
	dups    atomic.Int64
}

// Server is the TCP ingest listener: per-connection framed decoding,
// credit-based flow control, and counters. The protocol's decisions are
// the server core's (serverCore); Server is its adapter: it reads and
// writes the sockets, reads the clock once per event, turns the reap
// tick into events and runs the Feed and log calls.
type Server struct {
	cfg  ServerConfig
	core serverCore
	ln   net.Listener
	// fields are the wire columns the feed holds, which every grant
	// names and every frame carries.
	fields parsefmt.FieldSet

	// mu guards the tables below and every session's core.
	mu      sync.Mutex
	conns   map[int64]*serverConn
	pending map[net.Conn]struct{} // accepted, handshake not yet complete
	// admitted counts handshakes past admission control whose handler
	// has not exited — Counters.ActiveConns. The MaxConns slot is taken
	// before the grant goes out, not when the connection joins conns, so
	// a client that has its grant is already counted.
	admitted int
	nextID   int64
	sessions map[uint64]*session // live sessions by token
	tokenCt  uint64              // tokens minted
	seedMix  uint64              // newSession's per-process token perturbation

	stopC chan struct{} // closed when shutdown begins; stops the reaper

	wg      sync.WaitGroup // acceptor + connection handlers + reaper
	closing atomic.Bool
	closed  sync.Once

	// set is the server's /metrics series: counters declared in Listen,
	// and one Collect for what needs a lock or changes shape at run time
	// (live connections and sessions, parked cursors, the per-connection
	// family). Counters loads the same counters.
	set         metrics.Set
	accepted    *metrics.Counter
	frames      *metrics.Counter
	acks        *metrics.Counter
	framesByFmt [4]*metrics.Counter
	ingested    *metrics.Counter
	dropped     *metrics.Counter
	decErrs     *metrics.Counter
	chkErrs     *metrics.Counter
	resumed     *metrics.Counter
	dups        *metrics.Counter
	shed        *metrics.Counter
	expired     *metrics.Counter
	idleTOs     *metrics.Counter
}

// Listen starts an ingest server on addr (e.g. ":7077" or
// "127.0.0.1:0").
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	if cfg.Feed == nil {
		return nil, fmt.Errorf("netio: ServerConfig.Feed is required")
	}
	fields, err := wireFields(cfg.Feed.Schema())
	if err != nil {
		return nil, err
	}
	if cfg.FrameCredits <= 0 {
		cfg.FrameCredits = 16
	}
	if cfg.FrameCredits > 0xFFFF {
		cfg.FrameCredits = 0xFFFF // the grant carries the credits as uint16
	}
	if cfg.CursorGrace == 0 {
		cfg.CursorGrace = 10 * time.Second
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 120 * time.Second
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		fields:   fields,
		core:     serverCore{credits: cfg.FrameCredits, grace: cfg.CursorGrace, timeout: cfg.SessionTimeout, maxConns: cfg.MaxConns},
		ln:       ln,
		conns:    make(map[int64]*serverConn),
		pending:  make(map[net.Conn]struct{}),
		sessions: make(map[uint64]*session),
		seedMix:  uint64(time.Now().UnixNano()),
		stopC:    make(chan struct{}),
	}
	s.declareMetrics()
	if cfg.NextConnID > s.nextID {
		s.nextID = cfg.NextConnID
	}
	// A recovered session keeps its token, cursor id and durable ack
	// (Feed.Restore restores its cursor, parked or not), detached as of
	// now: the reaper's clocks give its client the usual window to resume.
	for _, rs := range cfg.RestoreSessions {
		ss := &session{token: rs.Token, id: rs.Conn, core: sessionCore{detachedAt: time.Now()}}
		ss.lastSeq.Store(rs.LastSeq)
		s.sessions[rs.Token] = ss
		if rs.Conn > s.nextID {
			s.nextID = rs.Conn
		}
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.reaper()
	return s, nil
}

// declareMetrics names every series the server produces.
func (s *Server) declareMetrics() {
	m := &s.set
	s.accepted = m.Counter("streambox_ingest_connections_total")
	s.frames = m.Counter("streambox_ingest_frames_total")
	s.acks = m.Counter("streambox_ingest_acks_total")
	s.ingested = m.Counter("streambox_ingest_records_total")
	s.dropped = m.Counter("streambox_ingest_dropped_records_total")
	s.decErrs = m.Counter("streambox_ingest_decode_errors_total")
	s.chkErrs = m.Counter("streambox_ingest_checksum_errors_total")
	s.resumed = m.Counter("streambox_ingest_sessions_resumed_total")
	s.expired = m.Counter("streambox_ingest_sessions_expired_total")
	s.dups = m.Counter("streambox_ingest_duplicate_frames_total")
	s.shed = m.Counter("streambox_ingest_shed_connections_total")
	s.idleTOs = m.Counter("streambox_ingest_idle_timeouts_total")
	for f, label := range formatLabel {
		if label != "" {
			s.framesByFmt[f] = m.Counter(`streambox_ingest_format_frames_total{format="` + label + `"}`)
		}
	}
	m.Collect(func(e *metrics.Emitter) {
		_, parked := s.cfg.Feed.liveCursors()
		s.mu.Lock()
		defer s.mu.Unlock()
		e.Int("streambox_ingest_connections_active", int64(s.admitted))
		e.Int("streambox_ingest_sessions_active", int64(len(s.sessions)))
		e.Int("streambox_ingest_parked_cursors", int64(parked))
		for _, c := range s.conns {
			frames := c.frames.Load()
			e.Int("streambox_conn_frames_total"+c.labels, frames)
			e.Int("streambox_conn_records_total"+c.labels, c.ingested.Load())
			e.Int("streambox_conn_dropped_records_total"+c.labels, c.dropped.Load())
			e.Int("streambox_conn_decode_errors_total"+c.labels, c.decErrs.Load())
			e.Int("streambox_conn_checksum_errors_total"+c.labels, c.chkErrs.Load())
			e.Int("streambox_conn_credit_window"+c.labels, c.granted.Load()-frames)
		}
	})
}

// Metrics returns the server's series for /metrics.
func (s *Server) Metrics() *metrics.Set { return &s.set }

// reaper turns the server core's reap tick into events: every detached
// session is judged by the time, its cursor parked or the session
// expired. An expired session's cursor is retired here.
func (s *Server) reaper() {
	metrics.StageReap.Enter()
	defer s.wg.Done()
	every := s.core.reapEvery()
	if every == 0 {
		<-s.stopC
		return
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.stopC:
			return
		case <-tick.C:
		}
		now := time.Now()
		var expired []*session
		s.mu.Lock()
		for _, ss := range s.sessions {
			switch s.core.reap(&ss.core, now) {
			case reapPark:
				s.cfg.Feed.park(ss.id)
			case reapExpire:
				delete(s.sessions, ss.token)
				expired = append(expired, ss)
			}
		}
		s.mu.Unlock()
		for _, ss := range expired {
			// No handler is alive to push a retire sentinel; remove the
			// cursor directly. Queued batches from the dead connection
			// still fold into highTs.
			s.cfg.Feed.retire(ss.id)
			s.expired.Add(1)
			if s.cfg.WAL != nil {
				// An expired session can never resume; make sure recovery
				// does not resurrect its cursor either.
				s.cfg.WAL.AppendSessionEnd(ss.token, ss.id)
			}
		}
	}
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close gracefully shuts ingestion down: it stops accepting, severs the
// remaining connections, waits for every handler to finish, and closes
// the feed so the runtime drains and terminates. Safe to call more than
// once.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.closing.Store(true)
		close(s.stopC)
		s.cfg.Feed.beginShutdown()
		s.ln.Close()
		s.mu.Lock()
		for _, c := range s.conns {
			c.conn.Close()
		}
		for c := range s.pending {
			c.Close() // sever peers still mid-handshake, too
		}
		s.mu.Unlock()
		s.wg.Wait()
		// Every handler and the reaper have exited; retire the cursors of
		// sessions left detached so nothing leaks into the final drain.
		s.mu.Lock()
		for _, ss := range s.sessions {
			delete(s.sessions, ss.token)
			s.cfg.Feed.retire(ss.id)
		}
		s.mu.Unlock()
		s.cfg.Feed.closeSend()
	})
}

// Drain is the ordered graceful shutdown: stop accepting immediately,
// wait up to grace for in-flight streams to finish cleanly (clients
// sending their end-of-stream markers), then Close — which severs
// whatever remains and flushes the feed so the runtime drains its
// windows. Safe to call concurrently with Close.
func (s *Server) Drain(grace time.Duration) {
	s.ln.Close() // the acceptor exits on net.ErrClosed
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) && !s.closing.Load() {
		s.mu.Lock()
		n := len(s.conns) + len(s.pending) + len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
}

// Counters returns the aggregate ingest counters.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	active := int64(s.admitted)
	sessions := int64(len(s.sessions))
	s.mu.Unlock()
	_, parked := s.cfg.Feed.liveCursors()
	c := Counters{
		Conns:           s.accepted.Load(),
		ActiveConns:     active,
		Frames:          s.frames.Load(),
		IngestedRecords: s.ingested.Load(),
		DroppedRecords:  s.dropped.Load(),
		DecodeErrors:    s.decErrs.Load(),
		ChecksumErrors:  s.chkErrs.Load(),
		SessionsResumed: s.resumed.Load(),
		ActiveSessions:  sessions,
		DuplicateFrames: s.dups.Load(),
		ShedConns:       s.shed.Load(),
		ExpiredSessions: s.expired.Load(),
		ParkedCursors:   int64(parked),
		IdleTimeouts:    s.idleTOs.Load(),
	}
	for i, ctr := range s.framesByFmt {
		if ctr != nil {
			c.FramesByFormat[i] = ctr.Load()
		}
	}
	return c
}

// SessionSnapshot returns every live session's state, joined with its
// feed cursor, for checkpointing. LastSeq is safe to persist: with a
// WAL attached it only advances after the frame is fsynced.
func (s *Server) SessionSnapshot() []SessionState {
	s.mu.Lock()
	out := make([]SessionState, 0, len(s.sessions))
	for _, ss := range s.sessions {
		out = append(out, SessionState{Token: ss.token, Conn: ss.id, LastSeq: ss.lastSeq.Load()})
	}
	s.mu.Unlock()
	s.cfg.Feed.fillCursors(out)
	return out
}

// NextID returns the highest connection/cursor id minted so far, for
// checkpointing (recovery passes it back as ServerConfig.NextConnID).
func (s *Server) NextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// acceptLoop accepts connections and hands each to a handler goroutine
// of its own. One acceptor is enough: Accept on one listener is
// serialized by the socket anyway.
func (s *Server) acceptLoop() {
	metrics.StageAccept.Enter()
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(time.Millisecond) // transient accept error
			continue
		}
		s.accepted.Add(1)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// admit puts one completed hello to the core's admission control and
// reserves the connection's MaxConns slot — under the lock, before the
// grant is written, so concurrent dials cannot both see the last free
// slot. The handler returns it when it exits.
func (s *Server) admit() bool {
	pressure := s.cfg.ShedPressure != nil && s.cfg.ShedPressure()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.core.admit(pressure, s.admitted) {
		return false
	}
	s.admitted++
	return true
}

// handle runs one connection: the handshake — read the hello, admit or
// shed, open or resume the session, answer with the grant, all under one
// deadline — then the frame loop. A handler rests in stage read and
// enters decode, wal, push and ack for those steps (metrics.Stage).
func (s *Server) handle(conn net.Conn) {
	metrics.StageRead.Enter()
	defer s.wg.Done()
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn = s.cfg.Faults.WrapConn(conn)

	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	s.pending[conn] = struct{}{}
	s.mu.Unlock()

	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	format, token, status, err := readHello(conn)
	s.mu.Lock()
	delete(s.pending, conn)
	s.mu.Unlock()
	if err != nil {
		writeGrant(conn, grant{status: status})
		return
	}
	if !s.admit() {
		s.shed.Add(1)
		writeGrant(conn, grant{status: statusOverloaded})
		return
	}
	defer func() {
		s.mu.Lock()
		s.admitted--
		s.mu.Unlock()
	}()

	// Open or resume the session and attach the connection in one
	// section under s.mu: Close, once it sets closing, severs every
	// connection in conns and then retires every session in the table,
	// this one included.
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	sess := s.sessions[token]
	fresh := token == 0
	if fresh {
		s.nextID++
		sess = s.newSession(s.nextID)
		s.cfg.Feed.register(sess.id)
	} else if sess != nil {
		s.resumed.Add(1)
	} else {
		// Unknown or expired: the client cannot resume exactly-once;
		// tell it so and close.
		s.mu.Unlock()
		writeGrant(conn, grant{status: statusExpired})
		return
	}
	s.nextID++
	c := &serverConn{key: s.nextID, id: sess.id, conn: conn, format: format, sess: sess,
		labels: fmt.Sprintf(`{conn="%d",remote=%q,format=%q}`, sess.id, conn.RemoteAddr(), format)}
	c.granted.Store(int64(s.cfg.FrameCredits))
	s.conns[c.key] = c
	if prev := s.conns[sess.core.attach(c.key)]; prev != nil {
		prev.conn.Close() // takeover: sever the half-open predecessor
	}
	s.cfg.Feed.unpark(sess.id) // a no-op unless the reaper parked it
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.conns, c.key)
		if !c.cleanEOS {
			// Abnormal exit: leave the session resumable, its cursor
			// live. The reaper parks and eventually expires it; the
			// detach is a no-op when another connection already took
			// the session over and owns the cursor now.
			sess.core.detach(c.key, time.Now())
			s.mu.Unlock()
			return
		}
		delete(s.sessions, sess.token) // a resume is refused from now on
		s.mu.Unlock()
		// Clean end of stream ends the session for good. The cursor
		// retires in order: the sentinel travels the feed behind the
		// connection's last batch, so the watermark cannot pass data
		// still queued. During shutdown the direct path removes the
		// cursor instead.
		if s.cfg.WAL != nil {
			s.cfg.WAL.AppendSessionEnd(sess.token, c.id)
		}
		if !s.cfg.Feed.push(batch{conn: c.id, retire: true}) {
			s.cfg.Feed.retire(c.id)
		}
	}()

	// A fresh session is durable before its grant: a crash after the
	// grant restores it at sequence 0. A session the log cannot record
	// ends here, and its client is told to come back.
	if fresh && s.cfg.WAL != nil {
		metrics.StageWAL.Enter()
		if s.cfg.WAL.AppendSessionOpen(sess.token, sess.id) != nil {
			c.cleanEOS = true
			writeGrant(conn, grant{status: statusOverloaded})
			return
		}
	}
	// settledSeq waits out a frame the superseded connection is still
	// delivering, so the grant never trails what is ingested.
	g := grant{status: statusOK, credits: uint16(s.cfg.FrameCredits), token: sess.token, lastSeq: sess.settledSeq(), fields: s.fields}
	c.core.expect = g.lastSeq + 1
	if writeGrant(conn, g) != nil {
		return
	}
	conn.SetDeadline(time.Time{})
	s.serveFrames(c, bufio.NewReaderSize(conn, readBufferBytes))
}

// flushCredit is the adapter's "about to wait" (serverCore.idle): it
// writes the credit owed in one ack, pausing while backpressure withholds
// it, so pipeline overload reaches the traffic sources instead of server
// memory. The ack's lastSeq lets the client trim its replay buffer. The
// write is bounded: a handler parked writing to a client that never
// reads its acks would stay attached, its cursor holding every window
// open; past the deadline the connection is dead like any idle one.
// It runs in stage ack and leaves the handler back in read. Returns false
// when the connection should end.
func (s *Server) flushCredit(c *serverConn) bool {
	metrics.StageAck.Enter()
	defer metrics.StageRead.Enter()
	n, hold := s.core.idle(&c.core, s.cfg.Overloaded != nil && s.cfg.Overloaded())
	for ; hold; n, hold = s.core.idle(&c.core, s.cfg.Overloaded()) {
		if s.closing.Load() {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	if n == 0 {
		return true
	}
	timeout := s.cfg.IdleTimeout
	if timeout <= 0 {
		timeout = handshakeTimeout
	}
	c.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err := writeCreditAck(c.conn, uint32(n), c.sess.lastSeq.Load()); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.idleTOs.Add(1)
		}
		return false
	}
	s.acks.Add(1)
	c.granted.Add(int64(n))
	return true
}

// countDecodeError attributes one undecodable frame.
func (s *Server) countDecodeError(c *serverConn) {
	s.decErrs.Add(1)
	c.decErrs.Add(1)
}

// countChecksumError attributes one frame damaged in transit.
func (s *Server) countChecksumError(c *serverConn) {
	s.chkErrs.Add(1)
	c.chkErrs.Add(1)
}

// frameDecoder is one connection's decode-step state, touched only by
// its frame loop.
type frameDecoder struct {
	// Columnar: header staging.
	hdr [parsefmt.ColumnarHeaderBytes]byte
	// PB: the frame payload buffer.
	payload []byte
	// ranges, with a WAL attached, is the per-column min/max that
	// maxTs fills for the log's packer.
	ranges []parsefmt.ColRange
}

// maxTs is both decode steps' tail: the frame's highest event time.
// With a WAL attached it comes from the one scan that also fills
// d.ranges, each column's min/max, which fix the log's packing;
// otherwise from a scan of the timestamp column alone.
func (d *frameDecoder) maxTs(cols [][]uint64, tsCol int) (maxTs uint64) {
	if d.ranges != nil {
		parsefmt.ColumnRanges(cols, d.ranges)
		return d.ranges[tsCol].Max
	}
	for _, ts := range cols[tsCol] {
		if ts > maxTs {
			maxTs = ts
		}
	}
	return maxTs
}

// serveFrames is the one receive loop, for both formats: arm the idle
// deadline, read the frame header, and do what the server core's
// verdict on it says — end the stream, sever, discard a duplicate, or
// decode and deliver. A single goroutine per connection keeps frame
// delivery sequential, which the feed's watermark cursors require. The
// format contributes only the decode step.
//
// Credit is granted per drained read buffer, not per frame: the core
// owes one credit for every frame consumed and says when half the
// window is owed. Every wait the loop makes is announced to the core
// first (flushCredit): a read the buffer cannot serve in full (a header
// with fewer than frameHeaderBytes buffered, a body longer than what is
// buffered), the end-of-stream marker, and in deliver the log's group
// commit and a feed push that would block.
func (s *Server) serveFrames(c *serverConn, br *bufio.Reader) {
	d := &frameDecoder{}
	if s.cfg.WAL != nil {
		d.ranges = make([]parsefmt.ColRange, s.cfg.Feed.Schema().NumCols)
	}
	for {
		metrics.StageRead.Enter()
		if br.Buffered() < frameHeaderBytes && !s.flushCredit(c) {
			return
		}
		if s.cfg.IdleTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		size, seq, eos, err := readFrameHeader(br)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.idleTOs.Add(1)
			}
			return // peer gone or idle-timed out
		}
		verdict := s.core.header(&c.core, size, seq, eos)
		switch verdict {
		case frameEnd:
			c.cleanEOS = true
			s.flushCredit(c) // the session ends cleanly whether or not the ack lands
			return
		case frameOversize:
			s.countDecodeError(c)
			return
		}
		s.frames.Add(1)
		c.frames.Add(1)
		s.framesByFmt[c.format].Add(1)
		if size > int64(br.Buffered()) && !s.flushCredit(c) || verdict == frameGap {
			return
		}
		if verdict == frameDuplicate {
			if _, err := io.CopyN(io.Discard, br, size); err != nil {
				return
			}
			s.dups.Add(1)
			c.dups.Add(1)
		} else {
			var cols [][]uint64
			var maxTs uint64
			var ok bool
			if c.format == parsefmt.Columnar {
				cols, maxTs, ok = s.decodeColumnar(c, d, br, size)
			} else {
				cols, maxTs, ok = s.decodeRecords(c, d, br, size)
			}
			// d.ranges is non-nil only with a WAL, filled by the decode.
			if !ok || !s.deliver(c, seq, maxTs, cols, d.ranges) {
				return
			}
		}
		if s.core.consumed(&c.core, verdict == frameDeliver, seq) && !s.flushCredit(c) {
			return
		}
	}
}

// decodeColumnar reads one columnar frame into one pooled slab: no
// per-record work, just geometry validation, a checksum over the bytes
// as read and an endian fix (a no-op on little-endian hosts). borrowCols
// lays the columns out back to back in one slab, the data section's own
// layout, so one io.ReadFull fills them all and one UpdateCRC checks
// them. Only the part of the frame already in the connection's read
// buffer is copied from there; bufio reads a remainder of
// readBufferBytes or more straight from the socket into the slab; the
// frame's maxTs comes from frameDecoder.maxTs. Every failure returns ok
// false, which severs the connection without advancing the ack: the
// client retransmits the frame, which is how a frame corrupted in
// flight gets delivered after all.
func (s *Server) decodeColumnar(c *serverConn, d *frameDecoder, br *bufio.Reader, size int64) (cols [][]uint64, maxTs uint64, ok bool) {
	schema := s.cfg.Feed.Schema()
	if size < parsefmt.ColumnarHeaderBytes {
		s.countDecodeError(c)
		return nil, 0, false
	}
	if _, err := io.ReadFull(br, d.hdr[:]); err != nil {
		return nil, 0, false
	}
	hdr, err := parsefmt.ParseColumnarHeader(d.hdr[:])
	if err != nil || hdr.NCols != s.fields.Len() || parsefmt.ColumnarDataBytes(hdr.NCols, hdr.NRows) != size-parsefmt.ColumnarHeaderBytes {
		s.countDecodeError(c) // malformed geometry, or not the granted columns
		return nil, 0, false
	}
	cols = s.cfg.Feed.borrowCols(hdr.NRows)
	words := cols[0][:hdr.NCols*hdr.NRows] // every column: the whole slab
	data := parsefmt.ColumnBytes(words)
	if _, err := io.ReadFull(br, data); err != nil {
		s.cfg.Feed.Recycle(cols)
		return nil, 0, false // truncated mid-frame: peer gone
	}
	metrics.StageDecode.Enter()
	if parsefmt.UpdateCRC(0, data) != hdr.Checksum { // wire bytes, before the fix
		s.cfg.Feed.Recycle(cols)
		s.countChecksumError(c)
		return nil, 0, false
	}
	parsefmt.FixWireOrder(words)
	return cols, d.maxTs(cols, schema.TsCol), true
}

// decodeRecords reads one PB frame into the connection's payload buffer,
// verifies its CRC-32C trailer and transposes the records into pooled
// column slabs. A payload that fails its checksum was damaged in flight:
// like a damaged columnar frame it returns ok false, which severs the
// connection without advancing the ack, and the client's replay delivers
// it intact. A payload that passes and still does not parse is the
// sender's bug — a replay of the same bytes could not do better — so it
// is counted, dropped whole and consumed: ok true with nil cols, as for a
// frame of no records, and deliver advances the ack.
func (s *Server) decodeRecords(c *serverConn, d *frameDecoder, br *bufio.Reader, size int64) (cols [][]uint64, maxTs uint64, ok bool) {
	if int64(cap(d.payload)) < size {
		d.payload = make([]byte, size)
	}
	payload := d.payload[:size]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, false // truncated mid-frame: peer gone
	}
	metrics.StageDecode.Enter()
	body, intact := splitCRC(payload)
	if !intact {
		s.countChecksumError(c)
		return nil, 0, false
	}
	cols, err := parsefmt.DecodePBColumns(body, s.fields, s.cfg.Feed.borrowCols)
	if err != nil {
		s.countDecodeError(c)
		if cols != nil {
			s.cfg.Feed.Recycle(cols)
		}
		return nil, 0, true
	}
	if cols == nil {
		return nil, 0, true
	}
	return cols, d.maxTs(cols, s.cfg.Feed.Schema().TsCol), true
}

// deliver is the one place a received frame becomes ingested:
// write-ahead log append, feed push and the cumulative-ack advance, in
// that order. Durability before delivery, delivery before ack: a frame
// is fsynced, pushed, and only then reflected in lastSeq, so the
// client's replay buffer and the log together cover every frame across
// a crash, with no overlap the dedup line cannot absorb. (PB frames log
// their decoded columnar form — replay re-enters the feed without the
// original encoding.) Both of its waits — the log's group commit and a
// push into a full feed — are announced to the core first (flushCredit).
//
// The whole section runs under the session's delivery lock and only
// while c still owns the session. A connection that was taken over
// after it read frame N must not push it: the successor's grant already
// said N−1 and the client is about to replay N. cols is nil for a PB
// frame that held no record or did not parse. Returns false when the
// connection must end: superseded, durability unknown, or draining.
func (s *Server) deliver(c *serverConn, seq, maxTs uint64, cols [][]uint64, ranges []parsefmt.ColRange) bool {
	if cols != nil && s.cfg.WAL != nil && !s.flushCredit(c) {
		s.cfg.Feed.Recycle(cols)
		return false
	}
	c.sess.dmu.Lock()
	defer c.sess.dmu.Unlock()
	s.mu.Lock()
	owns := c.sess.core.owner == c.key
	s.mu.Unlock()
	if !owns {
		if cols != nil {
			s.cfg.Feed.Recycle(cols)
		}
		return false
	}
	if cols != nil {
		if s.cfg.WAL != nil {
			metrics.StageWAL.Enter()
			if err := s.cfg.WAL.AppendFrame(c.sess.token, c.id, seq, maxTs, cols, ranges, true); err != nil {
				// The frame's durability is unknown; sever without
				// advancing the ack so the client replays it.
				s.cfg.Feed.Recycle(cols)
				return false
			}
		}
		n := int64(len(cols[0]))
		b := batch{conn: c.id, cols: cols, maxTs: maxTs}
		metrics.StagePush.Enter()
		if !s.cfg.Feed.offer(b) {
			if !s.flushCredit(c) {
				s.cfg.Feed.Recycle(cols)
				return false
			}
			metrics.StagePush.Enter()
			if !s.cfg.Feed.push(b) {
				// Draining: push recycled the batch.
				s.dropped.Add(n)
				c.dropped.Add(n)
				return false // draining: the pipeline no longer accepts records
			}
		}
		s.ingested.Add(n)
		c.ingested.Add(n)
	}
	c.sess.lastSeq.Store(seq)
	return true
}
