package netio

import "time"

// serverCore is the server half of the session protocol with the I/O
// taken out: admission and the reaper's deadlines, and the decisions on
// the state it is handed — a sessionCore per session (attach, takeover,
// detach, park and expiry by the time given) and a connCore per
// connection (each frame header's verdict, the credit owed). It owns no
// goroutine, socket, lock or clock; the Server adapter holds the locks
// and carries out the answers, and TestSessionCores runs it in
// simulated time.
type serverCore struct {
	credits  int           // FrameCredits: the window each grant opens
	grace    time.Duration // CursorGrace; negative never parks
	timeout  time.Duration // SessionTimeout; negative never expires
	maxConns int           // MaxConns; zero is unlimited
}

// admit decides one completed hello against admission control: shed
// under memory pressure or with admitted handshakes at MaxConns.
// Established connections are never shed — they are throttled by
// withholding credit instead.
func (k *serverCore) admit(pressure bool, admitted int) bool {
	return !pressure && (k.maxConns <= 0 || admitted < k.maxConns)
}

// reapEvery is the reap tick: a quarter of the shortest enabled
// deadline, clamped to [5ms, 500ms]; zero when neither is enabled.
func (k *serverCore) reapEvery() time.Duration {
	if k.grace < 0 && k.timeout < 0 {
		return 0
	}
	d := 500 * time.Millisecond
	for _, t := range []time.Duration{k.grace, k.timeout} {
		if t > 0 {
			d = min(d, t/4)
		}
	}
	return max(d, 5*time.Millisecond)
}

// sessionCore is one session's attachment. A session outlives the
// connections that carry it: a hello binds a connection to it, fresh or
// resumed by token, and between connections it is detached. A session
// that ends — clean end of stream, expiry, shutdown — leaves the
// adapter's table, and a resume of its token is refused.
type sessionCore struct {
	owner      int64     // the attached connection's key; zero while detached
	detachedAt time.Time // when it last lost its connection
}

// attach binds connection key to the session and returns the previous
// owner, nonzero on a takeover: the client gave up on a socket the
// server has not seen die, and the adapter severs it.
func (s *sessionCore) attach(key int64) (old int64) {
	old, s.owner = s.owner, key
	return old
}

// detach releases key's claim as of now; a no-op when another
// connection has taken the session over.
func (s *sessionCore) detach(key int64, now time.Time) {
	if s.owner == key {
		s.owner, s.detachedAt = 0, now
	}
}

// reapVerdict is the reap tick's answer for one session.
type reapVerdict int

const (
	reapKeep reapVerdict = iota
	reapPark
	reapExpire
)

// reap is the reap tick for one session. Detached past SessionTimeout it
// expires: the adapter ends it and retires its cursor. Detached past
// CursorGrace its cursor is parked, so one silent client cannot stall
// every window close; parking a parked cursor again is a no-op, so the
// answer repeats every tick.
func (k *serverCore) reap(s *sessionCore, now time.Time) reapVerdict {
	if s.owner != 0 || s.detachedAt.IsZero() {
		return reapKeep
	}
	stale := now.Sub(s.detachedAt)
	if k.timeout > 0 && stale > k.timeout {
		return reapExpire
	}
	if k.grace > 0 && stale >= k.grace {
		return reapPark
	}
	return reapKeep
}

// connCore is one connection's frame-loop state.
type connCore struct {
	expect uint64 // the next sequence number to deliver
	owed   int    // frames consumed, delivered or duplicate, since the last ack
}

// frameVerdict is the answer to one frame header.
type frameVerdict int

const (
	frameDeliver frameVerdict = iota
	frameDuplicate
	frameEnd      // clean end of stream
	frameOversize // a decode error: sever rather than read that much
	frameGap      // sever, so the client replays
)

// header is the event of one frame header read. A frame the session has
// already ingested, replayed because the ack for it was lost, is read
// and discarded; one past the next expected severs the connection.
func (k *serverCore) header(c *connCore, size int64, seq uint64, eos bool) frameVerdict {
	switch {
	case eos:
		return frameEnd
	case size > MaxFrameBytes:
		return frameOversize
	case seq < c.expect:
		return frameDuplicate
	case seq > c.expect:
		return frameGap
	}
	return frameDeliver
}

// consumed is the event of a frame's body being consumed: delivered,
// when seq advanced the session, or discarded as a duplicate. Its credit
// is owed either way, and once half the window is owed the answer is to
// flush it now.
func (k *serverCore) consumed(c *connCore, delivered bool, seq uint64) (flush bool) {
	if delivered {
		c.expect = seq + 1
	}
	c.owed++
	return c.owed >= max(k.credits/2, 1)
}

// idle answers the adapter's "about to wait" — for bytes its read buffer
// cannot serve, for the log's group commit, for room in the feed, or at
// the end of stream — with the credit to grant now, in one ack. The rule
// is that a connection never waits while it owes credit: a client may be
// blocked on exactly that credit, and the wait would then never end. The
// one exception is backpressure: while the engine is overloaded the
// credit is withheld (hold), and the adapter asks again after a pause.
func (k *serverCore) idle(c *connCore, overloaded bool) (credits int, hold bool) {
	if c.owed == 0 {
		return 0, false
	}
	if overloaded {
		return 0, true
	}
	credits, c.owed = c.owed, 0
	return credits, false
}
