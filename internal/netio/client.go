package netio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/faultinject"
	"streambox/internal/parsefmt"
)

// defaultFrameRecords is the records-per-frame default shared by the
// client and the feed's row-path column sizing.
const defaultFrameRecords = 512

// defaultReplayFrames bounds the session replay buffer: frames sent but
// not yet cumulatively acked. It must exceed the server's credit window
// (default 16) or the send path would stall waiting on acks it has no
// credit to provoke.
const defaultReplayFrames = 64

// ReconnectConfig enables automatic reconnection with exponential
// backoff and jitter. With it set, Dial retries handshake failures
// (connection refused, server shedding with ErrOverloaded), and — when
// the server speaks wire version 3 — the client runs a resumable
// session: mid-stream connection losses trigger a transparent
// reconnect, resume, and replay of unacked frames, with the server
// deduplicating by frame sequence number.
type ReconnectConfig struct {
	// MaxRetries caps the dial attempts per outage (0 picks 8; negative
	// retries forever).
	MaxRetries int
	// BaseDelay is the first backoff delay (0 picks 50ms); each retry
	// multiplies it by Multiplier (0 picks 2) up to MaxDelay (0 picks 2s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the random fraction added to each delay, in [0,1]
	// (0 picks 0.2; negative disables jitter).
	Jitter float64
	// Seed drives the deterministic jitter sequence.
	Seed uint64
}

func (rc *ReconnectConfig) withDefaults() ReconnectConfig {
	out := *rc
	if out.MaxRetries == 0 {
		out.MaxRetries = 8
	}
	if out.BaseDelay <= 0 {
		out.BaseDelay = 50 * time.Millisecond
	}
	if out.MaxDelay <= 0 {
		out.MaxDelay = 2 * time.Second
	}
	if out.Multiplier <= 1 {
		out.Multiplier = 2
	}
	if out.Jitter == 0 {
		out.Jitter = 0.2
	}
	return out
}

// ClientConfig configures a Dial.
type ClientConfig struct {
	// Format selects the payload encoding (default JSON, the zero
	// value; loadgen defaults to PB). Columnar needs a wire-version-2
	// server; against an older one Dial falls back to PB on a fresh
	// connection unless NoFallback is set.
	Format parsefmt.Format
	// NoFallback makes Dial fail, rather than retry with PB, when the
	// server rejects the columnar format.
	NoFallback bool
	// FrameRecords is the number of records per frame (0 picks 512).
	FrameRecords int
	// DialTimeout bounds connection establishment and the handshake
	// (0 picks 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (and the end-of-stream
	// marker); a stalled or half-open server surfaces as a *TimeoutError
	// instead of blocking Send forever. In session mode a write timeout
	// triggers a reconnect instead. Zero disables the deadline.
	WriteTimeout time.Duration
	// Reconnect enables automatic reconnection (and, against a wire
	// version 3 server, exactly-once session resume). Nil disables both:
	// any connection error surfaces to the caller.
	Reconnect *ReconnectConfig
	// ReplayFrames bounds the session replay buffer in frames (0 picks
	// 64). Larger buffers ride out longer ack gaps; the buffer holds
	// encoded payload copies, so memory is ReplayFrames × frame size.
	ReplayFrames int
	// Faults, when non-nil and enabled, wraps the connection with the
	// fault injector after each successful handshake — chaos tests
	// inject resets, partial writes, and corruption on the client side
	// while handshakes stay clean so reconnects converge.
	Faults *faultinject.Injector
}

// replayFrame is one unacked frame parked in the session replay buffer.
type replayFrame struct {
	seq     uint64
	payload []byte
}

// Client is one ingest stream: it frames and encodes records,
// respecting the server's credit window — Send blocks while the server
// withholds credits (engine backpressure). A columnar client builds
// column-major frames directly; SendColumns streams column buffers to
// the wire without materializing records at all.
//
// With a ReconnectConfig against a version >= 3 server the client is a
// resumable session rather than a single connection: every frame
// carries a sequence number and is parked in a bounded replay buffer
// until the server's cumulative ack covers it, and a lost connection is
// replaced by redial + resume + replay without losing or duplicating a
// record. Send and Close hide all of that; Reconnects and Replayed
// expose how often it happened.
type Client struct {
	cfg    ClientConfig
	rc     ReconnectConfig // defaults applied; valid only when cfg.Reconnect != nil
	addr   string
	format parsefmt.Format
	frame  int

	// session/token/version are fixed after Dial (the first handshake
	// decides whether the server can run a session at all).
	session bool
	token   uint64
	version byte

	conn net.Conn      // current connection; app goroutine + stale check
	bw   *bufio.Writer // app goroutine only

	mu      sync.Mutex
	cond    *sync.Cond
	credits int
	readErr error
	done    chan struct{} // current creditLoop's exit
	acked   uint64        // server's cumulative ack
	maxTx   uint64        // highest seq ever written to any connection
	replay  []replayFrame

	txSeq   uint64 // highest seq written to the *current* connection
	nextSeq uint64 // seq assigned to the next new frame

	// chunk and scatter are reusable staging for the columnar send
	// path: chunk holds per-frame column views, scatter the columns
	// Send scatters records into.
	chunk   [][]uint64
	scatter [][]uint64

	sent       atomic.Int64
	frames     atomic.Int64
	reconnects atomic.Int64
	replayed   atomic.Int64

	prng uint64 // jitter state
}

// Dial connects and handshakes with an ingest server. A columnar dial
// rejected by a row-only (wire version 1) server is retried once with
// the PB format unless cfg.NoFallback is set; check Format on the
// returned client for the format actually negotiated. With
// cfg.Reconnect set, dial-time failures (connection refused, shedding)
// are retried with backoff before giving up.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	dial := func() (*Client, error) {
		c, err := dialOnce(addr, cfg)
		if err != nil && errors.Is(err, errFormatRejected) && cfg.Format == parsefmt.Columnar && !cfg.NoFallback {
			fb := cfg
			fb.Format = parsefmt.PB
			return dialOnce(addr, fb)
		}
		return c, err
	}
	if cfg.Reconnect == nil {
		return dial()
	}
	rc := cfg.Reconnect.withDefaults()
	prng := rc.Seed
	delay := rc.BaseDelay
	var lastErr error
	for attempt := 0; rc.MaxRetries < 0 || attempt <= rc.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(jitteredDelay(&prng, &delay, rc))
		}
		c, err := dial()
		if err == nil {
			c.prng = prng
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("netio: dial retries exhausted: %w", lastErr)
}

// jitteredDelay returns the next backoff delay and advances the state:
// the current delay plus its jitter fraction, with the base delay
// growing geometrically toward rc.MaxDelay.
func jitteredDelay(prng *uint64, delay *time.Duration, rc ReconnectConfig) time.Duration {
	d := *delay
	if rc.Jitter > 0 {
		*prng = splitmix64(*prng + 1)
		frac := float64(*prng>>11) / (1 << 53)
		d += time.Duration(float64(d) * rc.Jitter * frac)
	}
	next := time.Duration(float64(*delay) * rc.Multiplier)
	if next > rc.MaxDelay {
		next = rc.MaxDelay
	}
	*delay = next
	return d
}

func dialOnce(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.FrameRecords <= 0 {
		cfg.FrameRecords = defaultFrameRecords
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.ReplayFrames <= 0 {
		cfg.ReplayFrames = defaultReplayFrames
	}
	c := &Client{
		cfg:    cfg,
		addr:   addr,
		format: cfg.Format,
		frame:  cfg.FrameRecords,
	}
	if cfg.Reconnect != nil {
		c.rc = cfg.Reconnect.withDefaults()
	}
	c.cond = sync.NewCond(&c.mu)
	conn, credits, version, token, lastSeq, err := c.handshake(0)
	if err != nil {
		return nil, err
	}
	c.version = version
	c.session = token != 0
	c.token = token
	c.acked = lastSeq
	c.maxTx = lastSeq
	c.txSeq = lastSeq
	c.nextSeq = lastSeq + 1
	c.install(conn, credits)
	return c, nil
}

// handshake dials and runs the full exchange: hello, ack, and — when a
// session is wanted — the resume request and session grant. token is
// the session to resume (0 asks for a fresh one); the returned token is
// 0 when no session was negotiated.
func (c *Client) handshake(token uint64) (conn net.Conn, credits int, version byte, gotToken, lastSeq uint64, err error) {
	cfg := c.cfg
	wantSession := cfg.Reconnect != nil
	conn, err = net.DialTimeout("tcp", c.addr, cfg.DialTimeout)
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout))
	var flags byte
	if wantSession {
		flags |= helloFlagSession
	}
	if err := writeHello(conn, cfg.Format, helloVersionFor(cfg.Format, wantSession), flags); err != nil {
		conn.Close()
		return nil, 0, 0, 0, 0, fmt.Errorf("netio: hello: %w", err)
	}
	credits, version, err = readAck(conn)
	if err != nil {
		conn.Close()
		return nil, 0, 0, 0, 0, err
	}
	if wantSession && version >= 3 {
		if err := writeResume(conn, token); err != nil {
			conn.Close()
			return nil, 0, 0, 0, 0, fmt.Errorf("netio: resume request: %w", err)
		}
		gotToken, lastSeq, err = readSessionGrant(conn)
		if err != nil {
			conn.Close()
			return nil, 0, 0, 0, 0, err
		}
		if gotToken == 0 {
			conn.Close()
			return nil, 0, 0, 0, 0, ErrSessionExpired
		}
		if token != 0 && gotToken != token {
			conn.Close()
			return nil, 0, 0, 0, 0, fmt.Errorf("netio: session grant token mismatch")
		}
	}
	conn.SetDeadline(time.Time{})
	return cfg.Faults.WrapConn(conn), credits, version, gotToken, lastSeq, nil
}

// install makes conn the client's live connection and starts its credit
// loop.
func (c *Client) install(conn net.Conn, credits int) {
	done := make(chan struct{})
	c.mu.Lock()
	c.conn = conn
	c.credits = credits
	c.readErr = nil
	c.done = done
	c.mu.Unlock()
	c.bw = bufio.NewWriterSize(conn, writeBufSize(c.cfg))
	go c.creditLoop(conn, done)
}

// writeBufSize sizes the send buffer: row formats batch fine at 64 KiB;
// columnar sizes to roughly one frame so a frame flushes in few writes.
func writeBufSize(cfg ClientConfig) int {
	size := 64 << 10
	if cfg.Format == parsefmt.Columnar {
		size = cfg.FrameRecords*7*8 + 64
	}
	if size < 64<<10 {
		size = 64 << 10
	}
	if size > 1<<20 {
		size = 1 << 20
	}
	return size
}

// Format returns the payload format negotiated at dial time (PB when a
// columnar dial fell back).
func (c *Client) Format() parsefmt.Format { return c.format }

// Session reports whether the client negotiated a resumable session.
func (c *Client) Session() bool { return c.session }

// Reconnects returns how many times the client successfully reconnected
// and resumed mid-stream.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Replayed returns how many frames were retransmitted after resumes.
func (c *Client) Replayed() int64 { return c.replayed.Load() }

// creditLoop consumes the server's credit grants for one connection; in
// session mode each grant carries the cumulative ack that trims the
// replay buffer. It exits — marking the connection dead for
// takeCredit — when the read fails or the connection is superseded.
func (c *Client) creditLoop(conn net.Conn, done chan struct{}) {
	defer close(done)
	for {
		var n uint32
		var last uint64
		var err error
		if c.session {
			n, last, err = readCreditAck(conn)
		} else {
			n, err = readCredit(conn)
		}
		c.mu.Lock()
		if c.conn != conn {
			c.mu.Unlock()
			return // superseded by a reconnect
		}
		if err != nil {
			if c.readErr == nil {
				c.readErr = err
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.credits += int(n)
		if c.session && last > c.acked && last <= c.maxTx {
			// last <= maxTx guards against a corrupted ack claiming
			// frames the client never sent; a real cumulative ack can
			// only cover transmitted frames.
			c.acked = last
			c.trimReplayLocked()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// trimReplayLocked drops the acked prefix of the replay buffer. Caller
// holds c.mu.
func (c *Client) trimReplayLocked() {
	k := 0
	for k < len(c.replay) && c.replay[k].seq <= c.acked {
		c.replay[k].payload = nil
		k++
	}
	if k > 0 {
		c.replay = append(c.replay[:0], c.replay[k:]...)
	}
}

// takeCredit blocks until one frame credit is available.
func (c *Client) takeCredit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.credits == 0 && c.readErr == nil {
		c.cond.Wait()
	}
	if c.credits == 0 {
		if c.readErr == io.EOF {
			return fmt.Errorf("netio: server closed the connection")
		}
		return fmt.Errorf("netio: credit stream: %w", c.readErr)
	}
	c.credits--
	return nil
}

// armWrite sets the per-frame write deadline; mapWriteErr converts a
// missed one into the typed *TimeoutError.
func (c *Client) armWrite() {
	if c.cfg.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
}

func (c *Client) mapWriteErr(op string, err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if c.cfg.WriteTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Op: op, After: c.cfg.WriteTimeout}
	}
	return err
}

// reconnect replaces a dead connection: backoff, redial, resume the
// session, trim the replay buffer to the server's ack, and rewind txSeq
// so pump retransmits everything unacked. Fatal errors (session
// expired, retries exhausted) surface to the caller.
func (c *Client) reconnect() error {
	c.conn.Close()
	<-c.done // the old credit loop owns readErr until it exits
	delay := c.rc.BaseDelay
	var lastErr error
	for attempt := 0; c.rc.MaxRetries < 0 || attempt < c.rc.MaxRetries; attempt++ {
		time.Sleep(jitteredDelay(&c.prng, &delay, c.rc))
		conn, credits, _, token, lastSeq, err := c.handshake(c.token)
		if err != nil {
			if errors.Is(err, ErrSessionExpired) {
				return err
			}
			lastErr = err
			continue
		}
		_ = token
		c.mu.Lock()
		if lastSeq > c.acked && lastSeq <= c.maxTx {
			c.acked = lastSeq
			c.trimReplayLocked()
		}
		acked := c.acked
		c.mu.Unlock()
		c.txSeq = acked
		c.install(conn, credits)
		c.reconnects.Add(1)
		return nil
	}
	return fmt.Errorf("netio: reconnect retries exhausted: %w", lastErr)
}

// appendReplay parks one frame in the replay buffer, blocking while the
// buffer is full of unacked frames. A dead connection cannot produce
// acks, so a full buffer triggers the reconnect that will.
func (c *Client) appendReplay(seq uint64, payload []byte) error {
	for {
		c.mu.Lock()
		if len(c.replay) < c.cfg.ReplayFrames {
			c.replay = append(c.replay, replayFrame{seq: seq, payload: payload})
			c.mu.Unlock()
			return nil
		}
		if c.readErr != nil {
			c.mu.Unlock()
			if err := c.reconnect(); err != nil {
				return fmt.Errorf("%w: %v", ErrReplayOverflow, err)
			}
			if err := c.pump(); err != nil {
				return err
			}
			continue
		}
		c.cond.Wait()
		c.mu.Unlock()
	}
}

// nextReplay returns the first replay frame not yet written to the
// current connection.
func (c *Client) nextReplay() (replayFrame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.replay) == 0 {
		return replayFrame{}, false
	}
	idx := int(c.txSeq + 1 - c.replay[0].seq)
	if idx < 0 || idx >= len(c.replay) {
		return replayFrame{}, false
	}
	return c.replay[idx], true
}

// pump transmits every replay-buffered frame the current connection has
// not carried yet, reconnecting (and thereby rewinding to the server's
// ack) whenever the connection dies under it.
func (c *Client) pump() error {
	for {
		fr, ok := c.nextReplay()
		if !ok {
			return nil
		}
		if err := c.takeCredit(); err != nil {
			if rerr := c.reconnect(); rerr != nil {
				return rerr
			}
			continue
		}
		// Raise maxTx before the frame can reach the wire: creditLoop
		// drops any ack beyond maxTx, and the ack for this frame can
		// arrive the moment Flush returns. Raised after, an ack landing
		// in the gap was lost — for the last frame, waitAcked then
		// blocked forever.
		c.mu.Lock()
		first := fr.seq > c.maxTx
		if first {
			c.maxTx = fr.seq
		}
		c.mu.Unlock()
		c.armWrite()
		err := writeSeqFrame(c.bw, fr.seq, fr.payload)
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			if rerr := c.reconnect(); rerr != nil {
				return c.mapWriteErr("frame write", err)
			}
			continue
		}
		if !first {
			c.replayed.Add(1)
		}
		c.txSeq = fr.seq
	}
}

// sendSessionFrame assigns the next sequence number to payload (which
// the replay buffer takes ownership of), parks it, and pumps the
// connection.
func (c *Client) sendSessionFrame(payload []byte, records int) error {
	seq := c.nextSeq
	c.nextSeq++
	if err := c.appendReplay(seq, payload); err != nil {
		return err
	}
	c.sent.Add(int64(records))
	c.frames.Add(1)
	return c.pump()
}

// Send frames and transmits records, splitting them into frames of the
// configured size. It blocks while the server withholds credits. On a
// columnar connection the records are scattered into column staging
// first; callers holding column data should prefer SendColumns, which
// skips record materialization entirely.
func (c *Client) Send(recs []parsefmt.Record) error {
	if c.format == parsefmt.Columnar {
		return c.SendColumns(c.scatterRecords(recs))
	}
	for len(recs) > 0 {
		n := c.frame
		if n > len(recs) {
			n = len(recs)
		}
		payload := parsefmt.Encode(c.format, recs[:n])
		if c.session {
			if err := c.sendSessionFrame(payload, n); err != nil {
				return err
			}
			recs = recs[n:]
			continue
		}
		if err := c.takeCredit(); err != nil {
			return err
		}
		c.armWrite()
		err := writeFrame(c.bw, payload)
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			return fmt.Errorf("netio: send: %w", c.mapWriteErr("frame write", err))
		}
		c.sent.Add(int64(n))
		c.frames.Add(1)
		recs = recs[n:]
	}
	return nil
}

// scatterRecords transposes records into the client's reusable column
// staging.
func (c *Client) scatterRecords(recs []parsefmt.Record) [][]uint64 {
	if c.scatter == nil {
		c.scatter = make([][]uint64, 7)
	}
	for i := range c.scatter {
		if cap(c.scatter[i]) < len(recs) {
			c.scatter[i] = make([]uint64, len(recs))
		}
		c.scatter[i] = c.scatter[i][:len(recs)]
	}
	for r, rec := range recs {
		rc := rec.Cols()
		for i := range c.scatter {
			c.scatter[i][r] = rc[i]
		}
	}
	return c.scatter
}

// SendColumns frames and transmits a column-major batch over a columnar
// connection, splitting the rows into frames of the configured size.
// The column slices are written to the wire directly — on little-endian
// hosts without any re-encoding. It blocks while the server withholds
// credits. In session mode each frame's payload is materialized once
// into the replay buffer instead (the price of being able to replay it
// after a connection loss).
func (c *Client) SendColumns(cols [][]uint64) error {
	if c.format != parsefmt.Columnar {
		return fmt.Errorf("netio: SendColumns on a %v connection", c.format)
	}
	if len(cols) == 0 || len(cols[0]) == 0 {
		return nil
	}
	nrows := len(cols[0])
	for _, col := range cols[1:] {
		if len(col) != nrows {
			return fmt.Errorf("netio: ragged columns (%d vs %d rows)", len(col), nrows)
		}
	}
	if cap(c.chunk) < len(cols) {
		c.chunk = make([][]uint64, len(cols))
	}
	chunk := c.chunk[:len(cols)]
	for lo := 0; lo < nrows; lo += c.frame {
		hi := lo + c.frame
		if hi > nrows {
			hi = nrows
		}
		for i := range cols {
			chunk[i] = cols[i][lo:hi]
		}
		if c.session {
			if err := c.sendSessionFrame(parsefmt.EncodeColumnarFrame(chunk), hi-lo); err != nil {
				return err
			}
			continue
		}
		if err := c.takeCredit(); err != nil {
			return err
		}
		c.armWrite()
		err := writeColumnarFrame(c.bw, chunk)
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			return fmt.Errorf("netio: send: %w", c.mapWriteErr("frame write", err))
		}
		c.sent.Add(int64(hi - lo))
		c.frames.Add(1)
	}
	return nil
}

// Sent returns the records transmitted so far.
func (c *Client) Sent() int64 { return c.sent.Load() }

// Frames returns the frames transmitted so far.
func (c *Client) Frames() int64 { return c.frames.Load() }

// waitAcked blocks until every replay-buffered frame is covered by the
// server's cumulative ack, reconnecting and replaying when the
// connection dies while unacked frames remain. With a WriteTimeout
// configured, the wait is progress-bounded: a server that holds the
// connection open but stops acking (died mid-drain behind a proxy,
// wedged disk) cannot park Close forever — once no ack arrives for a
// full WriteTimeout the drain fails with a *TimeoutError.
func (c *Client) waitAcked() error {
	to := c.cfg.WriteTimeout
	var deadline time.Time
	lastAcked, armed := uint64(0), false
	for {
		c.mu.Lock()
		if len(c.replay) == 0 {
			c.mu.Unlock()
			return nil
		}
		if c.readErr != nil {
			c.mu.Unlock()
			if err := c.reconnect(); err != nil {
				return err
			}
			if err := c.pump(); err != nil {
				return err
			}
			armed = false // the resume handshake was progress; re-arm
			continue
		}
		if to > 0 {
			if !armed || c.acked != lastAcked {
				lastAcked, armed = c.acked, true
				deadline = time.Now().Add(to)
			} else if !time.Now().Before(deadline) {
				c.mu.Unlock()
				return &TimeoutError{Op: "ack drain", After: to}
			}
			// cond.Wait cannot time out on its own; a timer broadcast
			// re-checks the deadline if no ack ever wakes us.
			wake := time.AfterFunc(time.Until(deadline), c.cond.Broadcast)
			c.cond.Wait()
			wake.Stop()
		} else {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
}

// Close sends the end-of-stream marker, waits briefly for the server to
// finish the stream, and closes the connection. A session client first
// waits for the cumulative ack to cover every sent frame (reconnecting
// if needed), so Close returning nil means every record was ingested
// exactly once and the session is retired.
func (c *Client) Close() error {
	var err error
	if c.session {
		err = c.waitAcked()
		if err != nil {
			// Failed drain (timeout, reconnects exhausted): there is no
			// ack left to wait for — tear the socket down immediately
			// instead of riding the grace wait below.
			c.conn.Close()
			return err
		}
		if err == nil {
			err = c.writeEOS()
			if err != nil {
				// One reconnect attempt so the clean end of stream (and
				// the session retirement it triggers) still lands; every
				// frame is already acked, so nothing needs replaying.
				if rerr := c.reconnect(); rerr == nil {
					err = c.writeEOS()
				}
			}
		}
	} else {
		err = c.writeEOS()
	}
	if tc, ok := c.conn.(*net.TCPConn); ok && err == nil {
		tc.CloseWrite()
	}
	// Wait for the server's side of the close so in-flight frames are
	// consumed before the socket fully tears down.
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	c.conn.Close()
	return err
}

// writeEOS sends the zero-length end-of-stream marker.
func (c *Client) writeEOS() error {
	c.armWrite()
	err := writeFrame(c.bw, nil)
	if err == nil {
		err = c.bw.Flush()
	}
	return c.mapWriteErr("end-of-stream write", err)
}
