package netio

import (
	"sync"
	"sync/atomic"
)

// session is one resumable ingest stream's server-side state: its
// attachment (core, which the server core decides on), the feed's
// watermark cursor it owns, and lastSeq, the newest frame sequence
// number fully ingested — the dedup line a resuming client replays
// against. The server's table of sessions and every session's core are
// guarded by Server.mu.
type session struct {
	token uint64
	id    int64 // feed cursor id, stable across reconnects

	// lastSeq is the cumulative ack: every frame <= lastSeq has been
	// delivered to the feed exactly once. Read by the credit/ack writer,
	// the resume handshake and the checkpoint.
	lastSeq atomic.Uint64

	// dmu is the delivery lock: Server.deliver holds it from the
	// ownership check through the feed push — and the ack it flushes
	// before a push that would block — to the lastSeq advance, and
	// a takeover reads its grant through settledSeq, which takes it too.
	// So a superseded connection either finishes delivering frame N
	// before the successor's grant is written — which then says N — or
	// finds it no longer owns the session and delivers nothing. It is
	// separate from Server.mu because the push can block on a full feed,
	// and nothing else may wait behind that. Lock order: dmu → Server.mu
	// → feed.
	dmu sync.Mutex

	core sessionCore
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

// newSession registers a fresh session around feed cursor id under an
// unused, nonzero token. Tokens are perturbed by seedMix across server
// restarts, so a client resuming against a restarted server (which lost
// all session state) cannot collide with a fresh session by accident.
// Caller holds s.mu.
func (s *Server) newSession(id int64) *session {
	for {
		s.tokenCt++
		token := splitmix64(s.seedMix ^ s.tokenCt)
		if _, taken := s.sessions[token]; token != 0 && !taken {
			ss := &session{token: token, id: id}
			s.sessions[token] = ss
			return ss
		}
	}
}
