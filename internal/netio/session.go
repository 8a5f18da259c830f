package netio

import (
	"sync"
	"sync/atomic"
	"time"
)

// session is one resumable ingest stream's server-side state. A session
// outlives the TCP connections that carry it: the handshake binds a
// connection to a session (fresh or resumed by token), the session owns
// the feed's watermark cursor, and lastSeq records the newest frame
// sequence number fully ingested — the dedup line a resuming client
// replays against. Between connections the session is detached; the
// server's reaper parks its cursor after the grace period and expires
// the whole session after the session timeout.
type session struct {
	token uint64
	id    int64 // feed cursor id, stable across reconnects

	// lastSeq is the cumulative ack: every frame <= lastSeq has been
	// delivered to the feed exactly once. Read by the credit/ack writer
	// and the resume handshake.
	lastSeq atomic.Uint64

	// dmu is the delivery lock: Server.deliver holds it from the
	// ownership check through the feed push — and the ack it flushes
	// before a push that would block — to the lastSeq advance, and
	// a takeover reads its grant through settledSeq, which takes it too.
	// So a superseded connection either finishes delivering frame N
	// before the successor's grant is written — which then says N — or
	// finds it no longer owns the session and delivers nothing. It is
	// separate from mu because the push can block on a full feed, and
	// the reaper must not wait behind that. Lock order: dmu → mu → feed.
	dmu sync.Mutex

	mu         sync.Mutex
	conn       *serverConn // attached connection, nil while detached
	detachedAt time.Time
	gone       bool // retired or expired; resume must fail
}

// attach binds c to the session, severing a previous connection that
// still thinks it owns it (a takeover: the client gave up on the old
// socket, the server may not have noticed it die yet). Returns false
// when the session is already retired. It unparks the session's feed
// cursor — a no-op unless the reaper parked it — under ss.mu, so it
// cannot interleave with the reaper's park (lock order is always
// session → feed).
func (ss *session) attach(c *serverConn, f *Feed) (old *serverConn, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.gone {
		return nil, false
	}
	old = ss.conn
	ss.conn = c
	ss.detachedAt = time.Time{}
	f.unpark(ss.id)
	return old, true
}

// parkIfStale parks the session's feed cursor — the one record of
// whether it is parked — once the session has been detached longer than
// grace; parking a parked cursor again is a no-op.
func (ss *session) parkIfStale(now time.Time, grace time.Duration, f *Feed) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != nil || ss.gone || ss.detachedAt.IsZero() || now.Sub(ss.detachedAt) < grace {
		return
	}
	f.park(ss.id)
}

// staleFor returns how long the session has been detached (zero while
// attached).
func (ss *session) staleFor(now time.Time) time.Duration {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != nil || ss.detachedAt.IsZero() {
		return 0
	}
	return now.Sub(ss.detachedAt)
}

// detach releases c's claim on the session; a no-op if another
// connection already took the session over.
func (ss *session) detach(c *serverConn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conn != c {
		return false
	}
	ss.conn = nil
	ss.detachedAt = time.Now()
	return true
}

// owns reports whether c is still the session's attached connection.
func (ss *session) owns(c *serverConn) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.conn == c
}

// settledSeq returns lastSeq once no delivery is in flight. Called by a
// connection that has just attached: its predecessor can no longer
// start a delivery, so the value is the session's dedup line until the
// caller itself advances it.
func (ss *session) settledSeq() uint64 {
	ss.dmu.Lock()
	defer ss.dmu.Unlock()
	return ss.lastSeq.Load()
}

// sessionTable tracks the server's live sessions by token.
type sessionTable struct {
	mu      sync.Mutex
	m       map[uint64]*session
	tokenCt uint64
	seedMix uint64
}

func newSessionTable() *sessionTable {
	return &sessionTable{
		m: make(map[uint64]*session),
		// Perturb tokens across server restarts so a client resuming
		// against a restarted server (which lost all session state)
		// cannot collide with a fresh session by accident.
		seedMix: uint64(time.Now().UnixNano()),
	}
}

// create registers a fresh session around feed cursor id.
func (t *sessionTable) create(id int64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	var token uint64
	for {
		t.tokenCt++
		token = splitmix64(t.seedMix ^ t.tokenCt)
		if token != 0 {
			if _, taken := t.m[token]; !taken {
				break
			}
		}
	}
	ss := &session{token: token, id: id}
	t.m[token] = ss
	return ss
}

// restore re-registers a recovered session under its original token and
// cursor id, with lastSeq at the checkpointed durable ack; Feed.Restore
// restores its cursor, parked or not. The session starts detached as of
// now: the reaper's grace and expiry clocks give the client the usual
// window to reconnect after the restart.
func (t *sessionTable) restore(st SessionState) *session {
	ss := &session{token: st.Token, id: st.Conn, detachedAt: time.Now()}
	ss.lastSeq.Store(st.LastSeq)
	t.mu.Lock()
	t.m[st.Token] = ss
	t.mu.Unlock()
	return ss
}

// lookup finds a session by token.
func (t *sessionTable) lookup(token uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[token]
}

// remove deletes a session from the table and marks it gone
// unconditionally (clean end of stream, server shutdown).
func (t *sessionTable) remove(ss *session) {
	t.mu.Lock()
	delete(t.m, ss.token)
	t.mu.Unlock()
	ss.mu.Lock()
	ss.gone = true
	ss.mu.Unlock()
}

// expire removes a session only while it is detached, so an expiry
// racing a resume loses: attach holds ss.mu and checks gone, expire
// holds ss.mu and checks conn. Returns false when the session was
// attached (or already gone) and must not be expired.
func (t *sessionTable) expire(ss *session) bool {
	ss.mu.Lock()
	if ss.conn != nil || ss.gone {
		ss.mu.Unlock()
		return false
	}
	ss.gone = true
	ss.mu.Unlock()
	t.mu.Lock()
	delete(t.m, ss.token)
	t.mu.Unlock()
	return true
}

// snapshot returns the live sessions (for the reaper and shutdown).
func (t *sessionTable) snapshot() []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*session, 0, len(t.m))
	for _, ss := range t.m {
		out = append(out, ss)
	}
	return out
}

// count returns the number of live sessions.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
