package netio

import (
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

// defaultFrameRecords is the client's records-per-frame default.
const defaultFrameRecords = 512

// defaultReplayFrames bounds the replay buffer: frames sent but not yet
// cumulatively acked. It must exceed the server's credit window
// (default 16) or the send path would stall waiting on acks it has no
// credit to provoke.
const defaultReplayFrames = 64

// ReconnectConfig enables automatic reconnection with exponential
// backoff and jitter. With it set, Dial retries handshake failures
// (connection refused, server shedding with ErrOverloaded), and a
// mid-stream connection loss triggers a transparent redial, session
// resume, and replay of unacked frames, with the server deduplicating
// by frame sequence number.
type ReconnectConfig struct {
	// MaxRetries caps the dial attempts per outage (0 picks 8; negative
	// retries forever).
	MaxRetries int
	// BaseDelay is the first backoff delay (0 picks 50ms); each retry
	// doubles it up to MaxDelay (0 picks 2s), and adds a random fraction
	// of up to backoffJitter.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the deterministic jitter sequence.
	Seed uint64
}

// backoffMultiplier grows the delay between redials; backoffJitter is
// the largest random fraction added to each delay.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

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
	return out
}

// ClientConfig configures a Dial.
type ClientConfig struct {
	// Format selects the payload encoding: parsefmt.PB or
	// parsefmt.Columnar, the two formats a session carries (required;
	// Dial refuses anything else before connecting).
	Format parsefmt.Format
	// NoFallback is ignored: the columnar→PB fallback redial it used to
	// suppress is gone. The field stays only because benchmark/ sets it
	// and that directory is frozen between benchmark PRs.
	NoFallback bool
	// FrameRecords is the number of records per frame (0 picks 512).
	FrameRecords int
	// DialTimeout bounds connection establishment and the handshake
	// (0 picks 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each frame write (and the end-of-stream
	// marker); a stalled or half-open server triggers a redial, or
	// without Reconnect surfaces as a *TimeoutError, instead of blocking
	// Send forever. It is also the no-progress bound on the two waits for
	// the server's ack: Close's final drain and Send's wait on a full
	// replay buffer. Zero disables the write deadline and leaves
	// DialTimeout as their bound.
	WriteTimeout time.Duration
	// Reconnect enables automatic redial with exactly-once session
	// resume. Nil means a session that does not redial: any connection
	// error surfaces to the caller, and the server parks and expires the
	// session as for any lost client.
	Reconnect *ReconnectConfig
	// ReplayFrames bounds the replay buffer in frames (0 picks
	// 64). Larger buffers ride out longer ack gaps; the buffer holds
	// encoded payload copies in recycled buffers, so memory is at most
	// ReplayFrames × frame size — and in practice the frames in flight.
	ReplayFrames int
	// Faults, when non-nil and enabled, wraps the connection with the
	// fault injector after each successful handshake — chaos tests
	// inject resets, partial writes, and corruption on the client side
	// while handshakes stay clean so reconnects converge.
	Faults *faultinject.Injector
}

// replayFrame is one unacked frame parked in the replay buffer: its
// bytes as they go on the wire, header and payload.
type replayFrame struct {
	seq   uint64
	frame []byte
}

// Client is one ingest stream: it frames and encodes records,
// respecting the server's credit window — Send blocks while the server
// withholds credits (engine backpressure). A columnar client builds
// column-major frames directly; SendColumns takes column buffers
// without materializing records at all.
//
// The stream is a session rather than a single connection: every frame
// carries a sequence number and is parked in a bounded replay buffer
// until the server's cumulative ack covers it, and — with a
// ReconnectConfig — a lost connection is replaced by redial + resume +
// replay without losing or duplicating a record. Send and Close hide
// all of that; Reconnects and Replayed expose how often it happened.
//
// The replay buffer is a ring of recycled frame buffers: the ack that
// trims a frame moves its buffer to a free list, the next frame is
// encoded into one from there — behind room for its header — and the
// socket write takes the buffer as it is, so a steady stream allocates
// nothing per frame and the encode is the client's one copy. A buffer is
// never rewritten while it may still be transmitted:
// only the sending goroutine encodes and writes frames, one after the
// other; a buffer reaches the free list only once an ack at or below
// maxTx covers its frame, which no connection — the current one or,
// after a rewind to that ack, a later one — sends again; and a reconnect
// waits out the old credit loop before it rewinds.
type Client struct {
	cfg   ClientConfig
	rc    ReconnectConfig // defaults applied; valid only when cfg.Reconnect != nil
	addr  string
	frame int

	token uint64 // the session's resume token, fixed by the first handshake

	conn net.Conn // current connection; app goroutine + stale check

	mu      sync.Mutex
	cond    *sync.Cond
	credits int
	readErr error
	done    chan struct{} // current creditLoop's exit
	acked   uint64        // server's cumulative ack
	maxTx   uint64        // highest seq ever written to any connection
	replay  []replayFrame
	// free holds the buffers of trimmed frames for the next frames to be
	// encoded into; with replay, never more than ReplayFrames buffers
	// between them.
	free [][]byte

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

// Dial connects, handshakes and opens a fresh session with an ingest
// server. With cfg.Reconnect set, dial-time failures (connection
// refused, shedding) are retried with backoff before giving up.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if !isWireFormat(cfg.Format) {
		return nil, fmt.Errorf("netio: %v is not a wire format (parsefmt.PB or parsefmt.Columnar)", cfg.Format)
	}
	if cfg.Reconnect == nil {
		return dialOnce(addr, cfg)
	}
	rc := cfg.Reconnect.withDefaults()
	prng := rc.Seed
	delay := rc.BaseDelay
	var lastErr error
	for attempt := 0; rc.MaxRetries < 0 || attempt <= rc.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(jitteredDelay(&prng, &delay, rc))
		}
		c, err := dialOnce(addr, cfg)
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
	*prng = splitmix64(*prng + 1)
	frac := float64(*prng>>11) / (1 << 53)
	d := *delay + time.Duration(float64(*delay)*backoffJitter*frac)
	next := *delay * backoffMultiplier
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
		cfg:   cfg,
		addr:  addr,
		frame: cfg.FrameRecords,
	}
	if cfg.Reconnect != nil {
		c.rc = cfg.Reconnect.withDefaults()
	}
	c.cond = sync.NewCond(&c.mu)
	conn, credits, lastSeq, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.acked = lastSeq
	c.maxTx = lastSeq
	c.txSeq = lastSeq
	c.nextSeq = lastSeq + 1
	c.install(conn, credits)
	return c, nil
}

// handshake dials and opens the session on the new socket: a fresh one
// on the first call (c.token is zero), a resume of c.token afterwards.
func (c *Client) handshake() (conn net.Conn, credits int, lastSeq uint64, err error) {
	conn, err = net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, 0, 0, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Now().Add(c.cfg.DialTimeout))
	credits, lastSeq, err = c.openSession(conn)
	if err != nil {
		conn.Close()
		return nil, 0, 0, err
	}
	conn.SetDeadline(time.Time{})
	return c.cfg.Faults.WrapConn(conn), credits, lastSeq, nil
}

// openSession runs the exchange — one hello out, one grant back — and
// checks the grant: the first one fixes c.token, later ones must echo it.
func (c *Client) openSession(conn net.Conn) (credits int, lastSeq uint64, err error) {
	if err := writeHello(conn, c.cfg.Format, c.token); err != nil {
		return 0, 0, fmt.Errorf("netio: hello: %w", err)
	}
	g, err := readGrant(conn)
	if err != nil {
		return 0, 0, err
	}
	if g.token == 0 || c.token != 0 && g.token != c.token {
		return 0, 0, fmt.Errorf("netio: grant names session %#x, want %#x", g.token, c.token)
	}
	c.token = g.token
	return int(g.credits), g.lastSeq, nil
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
	go c.creditLoop(conn, done)
}

// Reconnects returns how many times the client successfully reconnected
// and resumed mid-stream.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Replayed returns how many frames were retransmitted after resumes.
func (c *Client) Replayed() int64 { return c.replayed.Load() }

// creditLoop consumes the server's acks for one connection: each
// extends the send window and carries the cumulative ack that trims the
// replay buffer. It exits — marking the connection dead for
// takeCredit — when the read fails or the connection is superseded.
func (c *Client) creditLoop(conn net.Conn, done chan struct{}) {
	defer close(done)
	for {
		n, last, err := readCreditAck(conn)
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
		if last > c.acked && last <= c.maxTx {
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

// trimReplayLocked drops the acked prefix of the replay buffer, its
// frame buffers going to the free list. Caller holds c.mu.
func (c *Client) trimReplayLocked() {
	k := 0
	for k < len(c.replay) && c.replay[k].seq <= c.acked {
		c.free = append(c.free, c.replay[k].frame)
		c.replay[k].frame = nil
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
// so pump retransmits everything unacked. cause is what killed the
// connection; a client without a ReconnectConfig does not redial and
// gets it straight back. Other fatal errors (session expired, retries
// exhausted) surface to the caller.
func (c *Client) reconnect(cause error) error {
	if c.cfg.Reconnect == nil {
		return cause
	}
	c.conn.Close()
	<-c.done // the old credit loop owns readErr until it exits
	delay := c.rc.BaseDelay
	var lastErr error
	for attempt := 0; c.rc.MaxRetries < 0 || attempt < c.rc.MaxRetries; attempt++ {
		time.Sleep(jitteredDelay(&c.prng, &delay, c.rc))
		conn, credits, lastSeq, err := c.handshake()
		if err != nil {
			if errors.Is(err, ErrSessionExpired) {
				return err
			}
			lastErr = err
			continue
		}
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

// ackWait is the no-progress timer of the two waits on the server's
// cumulative ack (a full replay buffer, Close's drain): a server that
// holds the connection open but stops acking — died behind a proxy,
// wedged disk — must not park either forever. The bound is WriteTimeout,
// or DialTimeout when no write deadline is configured, and re-arms
// whenever the ack advances.
type ackWait struct {
	to       time.Duration
	deadline time.Time
	last     uint64
	armed    bool
}

func (c *Client) newAckWait() ackWait {
	if c.cfg.WriteTimeout > 0 {
		return ackWait{to: c.cfg.WriteTimeout}
	}
	return ackWait{to: c.cfg.DialTimeout}
}

// wait blocks on c.cond, c.mu held, until something wakes it; it returns
// false instead once no ack has arrived for w.to.
func (w *ackWait) wait(c *Client) bool {
	if !w.armed || c.acked != w.last {
		w.last, w.armed = c.acked, true
		w.deadline = time.Now().Add(w.to)
	} else if !time.Now().Before(w.deadline) {
		return false
	}
	// cond.Wait cannot time out on its own; a timer broadcast re-checks
	// the deadline if no ack ever wakes us.
	wake := time.AfterFunc(time.Until(w.deadline), c.cond.Broadcast)
	c.cond.Wait()
	wake.Stop()
	return true
}

// frameBuf waits for room in the replay buffer — blocking while it is
// full of unacked frames — and returns the buffer to encode the next
// frame's payload into, appending: frameHeaderBytes long, the room its
// header takes. It is the most recently freed buffer, still warm, or a
// fresh one with capacity for a size-byte payload while the ring is
// still growing. A dead connection cannot
// produce acks — and one that has produced none for a full ack wait is
// as good as dead — so a full buffer triggers the reconnect that will.
// Only the sending goroutine parks frames, so the room is still there
// when sendFrame parks the frame encoded into the buffer.
func (c *Client) frameBuf(size int) ([]byte, error) {
	w := c.newAckWait()
	for {
		c.mu.Lock()
		if len(c.replay) < c.cfg.ReplayFrames {
			k := len(c.free) - 1
			if k < 0 {
				c.mu.Unlock()
				return make([]byte, frameHeaderBytes, frameHeaderBytes+size), nil
			}
			buf := c.free[k]
			c.free[k] = nil
			c.free = c.free[:k]
			c.mu.Unlock()
			return buf[:frameHeaderBytes], nil
		}
		err := c.readErr
		if err == nil && !w.wait(c) {
			err = &TimeoutError{Op: "replay-buffer ack wait", After: w.to}
		}
		c.mu.Unlock()
		if err == nil {
			continue
		}
		if err := c.reconnect(err); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrReplayOverflow, err)
		}
		if err := c.pump(); err != nil {
			return nil, err
		}
		w.armed = false // the resume handshake was progress; re-arm
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
			if rerr := c.reconnect(err); rerr != nil {
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
		if _, err := c.conn.Write(fr.frame); err != nil {
			err = c.mapWriteErr("frame write", err)
			if c.reconnect(err) != nil {
				return err
			}
			continue
		}
		if !first {
			c.replayed.Add(1)
		}
		c.txSeq = fr.seq
	}
}

// sendFrame assigns the next sequence number to frame — the buffer
// frameBuf just returned with the payload encoded behind the header
// room, which the replay buffer takes back — parks it, and pumps the
// connection.
func (c *Client) sendFrame(frame []byte, records int) error {
	seq := c.nextSeq
	c.nextSeq++
	putFrameHeader(frame, seq)
	c.mu.Lock()
	c.replay = append(c.replay, replayFrame{seq: seq, frame: frame})
	c.mu.Unlock()
	c.sent.Add(int64(records))
	c.frames.Add(1)
	return c.pump()
}

// Send frames and transmits records, splitting them into frames of the
// configured size. It blocks while the server withholds credits. A PB
// frame's payload is the encoded records plus their CRC-32C trailer. On
// a columnar connection the records are scattered into column staging
// first; callers holding column data should prefer SendColumns, which
// skips record materialization entirely.
func (c *Client) Send(recs []parsefmt.Record) error {
	if c.cfg.Format == parsefmt.Columnar {
		return c.SendColumns(c.scatterRecords(recs))
	}
	for len(recs) > 0 {
		n := c.frame
		if n > len(recs) {
			n = len(recs)
		}
		buf, err := c.frameBuf(0) // a record's encoded size varies: append sizes the first buffers
		if err != nil {
			return err
		}
		if err := c.sendFrame(appendCRC(parsefmt.AppendPB(buf, recs[:n]), frameHeaderBytes), n); err != nil {
			return err
		}
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
// connection, splitting the rows into frames of the configured size. It
// blocks while the server withholds credits. Each frame's payload is
// encoded once, straight from the column slices, into a recycled buffer
// of the replay ring — the one copy the client makes, the price of being
// able to replay the frame after a connection loss — and written to the
// wire from there. cols are the caller's again when SendColumns returns.
func (c *Client) SendColumns(cols [][]uint64) error {
	if c.cfg.Format != parsefmt.Columnar {
		return fmt.Errorf("netio: SendColumns on a %v connection", c.cfg.Format)
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
		buf, err := c.frameBuf(parsefmt.ColumnarHeaderBytes + int(parsefmt.ColumnarDataBytes(len(chunk), hi-lo)))
		if err != nil {
			return err
		}
		if err := c.sendFrame(parsefmt.AppendColumnarFrame(buf, chunk), hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// Sent returns the records transmitted so far.
func (c *Client) Sent() int64 { return c.sent.Load() }

// Frames returns the frames transmitted so far.
func (c *Client) Frames() int64 { return c.frames.Load() }

// waitAcked blocks until every replay-buffered frame is covered by the
// server's cumulative ack, reconnecting and replaying when the
// connection dies while unacked frames remain. The wait is
// progress-bounded (ackWait): once it expires the drain fails with a
// *TimeoutError.
func (c *Client) waitAcked() error {
	w := c.newAckWait()
	for {
		c.mu.Lock()
		if len(c.replay) == 0 {
			c.mu.Unlock()
			return nil
		}
		if err := c.readErr; err != nil {
			c.mu.Unlock()
			if err := c.reconnect(err); err != nil {
				return err
			}
			if err := c.pump(); err != nil {
				return err
			}
			w.armed = false // the resume handshake was progress; re-arm
			continue
		}
		ok := w.wait(c)
		c.mu.Unlock()
		if !ok {
			return &TimeoutError{Op: "ack drain", After: w.to}
		}
	}
}

// Close waits for the cumulative ack to cover every sent frame
// (reconnecting if needed), sends the end-of-stream marker, waits
// briefly for the server to finish the stream, and closes the
// connection. Close returning nil means every record was ingested
// exactly once and the session is retired.
func (c *Client) Close() error {
	if err := c.waitAcked(); err != nil {
		// Failed drain (timeout, connection lost for good): there is no
		// ack left to wait for — tear the socket down immediately
		// instead of riding the grace wait below.
		c.conn.Close()
		return err
	}
	err := c.writeEOS()
	if err != nil && c.reconnect(err) == nil {
		// One reconnect attempt so the clean end of stream (and the
		// session retirement it triggers) still lands; every frame is
		// already acked, so nothing needs replaying.
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

// writeEOS sends the end-of-stream marker.
func (c *Client) writeEOS() error {
	c.armWrite()
	return c.mapWriteErr("end-of-stream write", writeEOS(c.conn))
}
