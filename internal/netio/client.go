package netio

import (
	"errors"
	"fmt"
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
	// WriteTimeout bounds each frame write (and the end-of-stream
	// marker); a stalled or half-open server triggers a redial, or
	// without Reconnect surfaces as a *TimeoutError, instead of blocking
	// Send forever. It is also the no-progress bound on the two waits for
	// the server's ack: Close's final drain and Send's wait on a full
	// replay buffer. Zero disables the write deadline and leaves the 10 s
	// handshake timeout as their bound.
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
// The protocol's decisions are clientCore's; Client is its adapter: the
// socket, the clock, the timers and the goroutines.
//
// The replay buffer is a ring of recycled frame buffers: the ack that
// trims a frame moves its buffer to a free list, the next frame is
// encoded into one from there — behind room for its header — and the
// socket write takes the buffer as it is, so a steady stream allocates
// nothing per frame and the encode is the client's one copy. A buffer is
// never rewritten while it may still be transmitted: only the sending
// goroutine encodes and writes frames, and a buffer is freed only once
// an ack covers its frame.
type Client struct {
	cfg   ClientConfig
	addr  string
	frame int

	conn net.Conn // current connection; app goroutine + stale check

	// mu guards core and done: the sending goroutine and the current
	// credit loop both feed the core events, and cond wakes the sender.
	mu   sync.Mutex
	cond *sync.Cond
	core clientCore
	done chan struct{} // current creditLoop's exit

	// fields are the columns the session moves, fixed by its first grant,
	// and in lists them ascending: the columns a frame carries.
	fields parsefmt.FieldSet
	in     []int

	// proj, chunk and scatter are reusable staging for the columnar send
	// path: proj holds the session's columns of a SendColumns batch,
	// chunk their per-frame views, scatter the columns Send scatters
	// records into.
	proj    [][]uint64
	chunk   [][]uint64
	scatter [][]uint64

	sent       atomic.Int64
	frames     atomic.Int64
	reconnects atomic.Int64
	replayed   atomic.Int64
}

// Dial connects, handshakes and opens a fresh session with an ingest
// server. With cfg.Reconnect set, dial-time failures (connection
// refused, shedding) are retried with backoff before giving up.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if !isWireFormat(cfg.Format) {
		return nil, fmt.Errorf("netio: %v is not a wire format (parsefmt.PB or parsefmt.Columnar)", cfg.Format)
	}
	if cfg.FrameRecords <= 0 {
		cfg.FrameRecords = defaultFrameRecords
	}
	if cfg.ReplayFrames <= 0 {
		cfg.ReplayFrames = defaultReplayFrames
	}
	c := &Client{cfg: cfg, addr: addr, frame: cfg.FrameRecords, core: newClientCore(cfg)}
	c.cond = sync.NewCond(&c.mu)
	if err := c.redial(nil); err != nil {
		return nil, err
	}
	c.fields = c.core.fields // no later grant may change them
	c.in = c.fields.Cols()
	return c, nil
}

// redial opens the session on a new connection, replacing one that
// cause killed, or the first one when cause is nil. The core schedules
// the attempts and judges each grant; the last connection's credit loop
// is waited out first, since it feeds the core until it exits.
func (c *Client) redial(cause error) error {
	if c.conn != nil {
		c.conn.Close()
		<-c.done
	}
	a := c.core.lost(cause, time.Now())
	for a.op == opDial {
		time.Sleep(time.Until(a.until))
		conn, credits, lastSeq, err := c.handshake()
		a = c.core.dialed(credits, lastSeq, err, time.Now())
		if a.op == opReturn && a.err == nil {
			done := make(chan struct{})
			c.mu.Lock()
			c.conn = conn
			c.done = done
			c.mu.Unlock()
			go c.creditLoop(conn, done)
			if cause != nil {
				c.reconnects.Add(1)
			}
		} else if err == nil {
			conn.Close()
		}
	}
	return a.err
}

// handshake dials and opens the session on the new socket: a fresh one
// while the core has no token, a resume of it afterwards.
func (c *Client) handshake() (conn net.Conn, credits int, lastSeq uint64, err error) {
	conn, err = net.DialTimeout("tcp", c.addr, handshakeTimeout)
	if err != nil {
		return nil, 0, 0, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	credits, lastSeq, err = c.openSession(conn)
	if err != nil {
		conn.Close()
		return nil, 0, 0, err
	}
	conn.SetDeadline(time.Time{})
	return c.cfg.Faults.WrapConn(conn), credits, lastSeq, nil
}

// openSession runs the exchange — one hello out, one grant back — and
// has the core check the grant's token.
func (c *Client) openSession(conn net.Conn) (credits int, lastSeq uint64, err error) {
	if err := writeHello(conn, c.cfg.Format, c.core.token); err != nil {
		return 0, 0, fmt.Errorf("netio: hello: %w", err)
	}
	g, err := readGrant(conn)
	if err == nil {
		err = c.core.named(g)
	}
	return int(g.credits), g.lastSeq, err
}

// Reconnects returns how many times the client successfully reconnected
// and resumed mid-stream.
func (c *Client) Reconnects() int64 { return c.reconnects.Load() }

// Replayed returns how many frames were retransmitted after resumes.
func (c *Client) Replayed() int64 { return c.replayed.Load() }

// creditLoop reads the server's acks off one connection and feeds them
// to the core, the read failure that ends it too. It exits then, or
// once the connection is superseded.
func (c *Client) creditLoop(conn net.Conn, done chan struct{}) {
	defer close(done)
	for {
		n, last, err := readCreditAck(conn)
		c.mu.Lock()
		live := c.conn == conn
		if live {
			c.core.ack(n, last, err)
			c.cond.Broadcast()
		}
		c.mu.Unlock()
		if !live || err != nil {
			return
		}
	}
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

// drive runs the core's send path until goal holds or the core gives
// up: it writes the frames the core hands out, waits on cond where the
// core says — a timer broadcast wakes a wait with a deadline, since
// cond.Wait cannot time out on its own — and redials where it says.
func (c *Client) drive(goal clientGoal) error {
	c.mu.Lock()
	for {
		a := c.core.next(goal, time.Now())
		switch a.op {
		case opWait:
			var wake *time.Timer
			if !a.until.IsZero() {
				wake = time.AfterFunc(time.Until(a.until), c.cond.Broadcast)
			}
			c.cond.Wait()
			if wake != nil {
				wake.Stop()
			}
			continue
		case opReturn:
			c.mu.Unlock()
			return a.err
		}
		c.mu.Unlock()
		if a.op == opWrite {
			c.armWrite()
			_, err := c.conn.Write(a.frame.frame)
			if err == nil && a.replay {
				c.replayed.Add(1)
			}
			c.mu.Lock()
			c.core.wrote(a.frame.seq, c.mapWriteErr("frame write", err))
			continue
		}
		if err := c.redial(a.err); err != nil {
			if goal == goalRoom {
				err = fmt.Errorf("%w: %w", ErrReplayOverflow, err) // the full ring cannot drain
			}
			return err
		}
		c.mu.Lock()
	}
}

// frameBuf waits for room in the replay buffer and returns the buffer to
// encode the next frame's payload into, appending: frameHeaderBytes
// long, the room its header takes. It is the most recently freed
// buffer, or a fresh one with capacity for a size-byte payload while the
// ring is still growing. Only the sending goroutine parks frames, so the
// room is still there when sendFrame parks the frame.
func (c *Client) frameBuf(size int) ([]byte, error) {
	if err := c.drive(goalRoom); err != nil {
		return nil, err
	}
	c.mu.Lock()
	buf := c.core.buffer()
	c.mu.Unlock()
	if buf == nil {
		return make([]byte, frameHeaderBytes, frameHeaderBytes+size), nil
	}
	return buf[:frameHeaderBytes], nil
}

// sendFrame parks frame — the buffer frameBuf just returned with the
// payload encoded behind the header room, which the replay buffer takes
// back — under the next sequence number, and writes it.
func (c *Client) sendFrame(frame []byte, records int) error {
	c.mu.Lock()
	c.core.park(frame)
	c.mu.Unlock()
	c.sent.Add(int64(records))
	c.frames.Add(1)
	return c.drive(goalSent)
}

// Send frames and transmits records, splitting them into frames of the
// configured size. It blocks while the server withholds credits. Only
// the fields the session moves are sent. A PB frame's payload is those
// fields of the records plus their CRC-32C trailer. On a columnar
// connection they are scattered into column staging first; callers
// holding column data should prefer SendColumns, which skips record
// materialization entirely.
func (c *Client) Send(recs []parsefmt.Record) error {
	if c.cfg.Format == parsefmt.Columnar {
		return c.sendColumns(c.scatterRecords(recs))
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
		if err := c.sendFrame(appendCRC(parsefmt.AppendPB(buf, recs[:n], c.fields), frameHeaderBytes), n); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// scatterRecords transposes the session's fields of records into the
// client's reusable column staging.
func (c *Client) scatterRecords(recs []parsefmt.Record) [][]uint64 {
	if c.scatter == nil {
		c.scatter = make([][]uint64, len(c.in))
	}
	for i := range c.scatter {
		if cap(c.scatter[i]) < len(recs) {
			c.scatter[i] = make([]uint64, len(recs))
		}
		c.scatter[i] = c.scatter[i][:len(recs)]
	}
	for r, rec := range recs {
		rc := rec.Cols()
		for i, f := range c.in {
			c.scatter[i][r] = rc[f]
		}
	}
	return c.scatter
}

// SendColumns frames and transmits a column-major batch of the seven
// wire columns over a columnar connection, splitting the rows into
// frames of the configured size. It blocks while the server withholds
// credits. Only the columns the session moves are sent. Each frame's
// payload is encoded once, straight from those column slices, into a
// recycled buffer of the replay ring — the one copy the client makes,
// the price of being able to replay the frame after a connection loss —
// and written to the wire from there. cols are the caller's again when
// SendColumns returns.
func (c *Client) SendColumns(cols [][]uint64) error {
	if c.cfg.Format != parsefmt.Columnar {
		return fmt.Errorf("netio: SendColumns on a %v connection", c.cfg.Format)
	}
	if want := WireSchema().NumCols; len(cols) != want {
		return fmt.Errorf("netio: SendColumns takes the %d wire columns, got %d", want, len(cols))
	}
	nrows := len(cols[0])
	for _, col := range cols[1:] {
		if len(col) != nrows {
			return fmt.Errorf("netio: ragged columns (%d vs %d rows)", len(col), nrows)
		}
	}
	c.proj = c.proj[:0]
	for _, f := range c.in {
		c.proj = append(c.proj, cols[f])
	}
	return c.sendColumns(c.proj)
}

// sendColumns frames and transmits the session's columns of a batch,
// equal in length.
func (c *Client) sendColumns(cols [][]uint64) error {
	nrows := len(cols[0])
	if nrows == 0 {
		return nil
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

// Close waits for the cumulative ack to cover every sent frame
// (reconnecting if needed, and failing with a *TimeoutError once no ack
// arrives for the core's ack wait), sends the end-of-stream marker,
// waits briefly for the server to finish the stream, and closes the
// connection. Close returning nil means every record was ingested
// exactly once and the session is retired.
func (c *Client) Close() error {
	if err := c.drive(goalAcked); err != nil {
		// Failed drain (timeout, connection lost for good): there is no
		// ack left to wait for — tear the socket down immediately
		// instead of riding the grace wait below.
		c.conn.Close()
		return err
	}
	err := c.writeEOS()
	if err != nil && c.redial(err) == nil {
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
