package netio

import (
	"errors"
	"fmt"
	"time"

	"streambox/internal/parsefmt"
)

// clientCore is the client half of the session protocol with the I/O
// taken out: the credit window, the sequence bookkeeping, the replay
// ring, the ack-wait deadline and the backoff schedule. Each method is
// one event, given the time where it needs one, and returns the action
// for the Client adapter to carry out. It owns no goroutine, socket,
// lock or clock, so TestSessionCores runs it in simulated time.
type clientCore struct {
	rc      ReconnectConfig // defaults applied; meaningful only when redials
	redials bool            // ClientConfig.Reconnect was set
	ring    int             // ReplayFrames
	// ackWait bounds the waits on the server's cumulative ack (a full
	// ring, Close's drain) that make no progress: WriteTimeout, or
	// handshakeTimeout when no write deadline is configured.
	ackWait time.Duration

	token   uint64            // the session's resume token, fixed by the first grant
	fields  parsefmt.FieldSet // the columns the session moves, fixed by the first grant
	credits int
	dead    error  // why the current connection ended; nil while it lives
	acked   uint64 // the server's cumulative ack
	maxTx   uint64 // highest seq ever written to any connection
	txSeq   uint64 // highest seq written to the current connection
	nextSeq uint64 // seq of the next frame parked

	// replay holds the frames written or due but not yet acked. free
	// holds the buffers of trimmed frames for the next frames to be
	// encoded into; between them, never more than ring buffers.
	replay []replayFrame
	free   [][]byte

	waitFrom uint64    // acked when the ack wait was armed
	deadline time.Time // the ack wait's expiry; zero while disarmed

	prng  uint64        // jitter state
	delay time.Duration // the outage's next backoff delay, before jitter
	tries int           // backoff attempts made in the current outage
}

// clientOp is the kind of action the client core asks for.
type clientOp int

const (
	opReturn    clientOp = iota // the call is over: err, or nil when its goal holds
	opWrite                     // write frame to the current connection
	opWait                      // wait for an ack or credit, until until when set
	opReconnect                 // end the connection (err killed it) and start an outage
	opDial                      // dial at until and report the result to dialed
)

type clientAction struct {
	op     clientOp
	frame  replayFrame
	until  time.Time
	err    error
	replay bool // the write retransmits a frame
}

// clientGoal is what a send-path call waits for.
type clientGoal int

const (
	goalSent  clientGoal = iota // every parked frame written to the current connection
	goalRoom                    // that, and room in the ring for one more
	goalAcked                   // that, and every frame acked
)

func newClientCore(cfg ClientConfig) clientCore {
	k := clientCore{ring: cfg.ReplayFrames, ackWait: cfg.WriteTimeout, nextSeq: 1}
	if k.ackWait <= 0 {
		k.ackWait = handshakeTimeout
	}
	if cfg.Reconnect != nil {
		k.rc = cfg.Reconnect.withDefaults()
		k.redials = true
		k.prng = k.rc.Seed
	}
	return k
}

// next is the send path's one decision, asked again after every event
// until it returns: write the first frame the current connection has not
// carried while there is credit — raising maxTx first, since the ack for
// it can arrive the moment the write returns — then, once goal holds,
// return. Short of it, wait for the ack that would make progress, for
// at most ackWait without one. A dead connection cannot produce acks,
// and one that has produced none for a whole ack wait is as good as
// dead: on a full ring either is reconnected, in Close's drain the
// timeout is returned. The wait for credit has no timer: withheld credit
// is the server's backpressure.
func (k *clientCore) next(goal clientGoal, now time.Time) clientAction {
	i := 0 // the first frame the current connection has not carried
	if len(k.replay) > 0 && k.txSeq >= k.replay[0].seq {
		i = int(k.txSeq + 1 - k.replay[0].seq)
	}
	if i < len(k.replay) {
		if k.dead != nil {
			return clientAction{op: opReconnect, err: k.dead}
		}
		if !k.takeCredit() {
			return clientAction{op: opWait}
		}
		fr := k.replay[i]
		a := clientAction{op: opWrite, frame: fr, replay: fr.seq <= k.maxTx}
		k.maxTx = max(k.maxTx, fr.seq)
		return a
	}
	if goal == goalSent || goal == goalRoom && len(k.replay) < k.ring || len(k.replay) == 0 {
		k.deadline = time.Time{}
		return clientAction{op: opReturn}
	}
	if k.dead != nil {
		return clientAction{op: opReconnect, err: k.dead}
	}
	if k.deadline.IsZero() || k.acked != k.waitFrom {
		k.waitFrom, k.deadline = k.acked, now.Add(k.ackWait)
	}
	if now.Before(k.deadline) {
		return clientAction{op: opWait, until: k.deadline}
	}
	k.deadline = time.Time{}
	if goal == goalRoom {
		return clientAction{op: opReconnect, err: &TimeoutError{Op: "replay-buffer ack wait", After: k.ackWait}}
	}
	return clientAction{op: opReturn, err: &TimeoutError{Op: "ack drain", After: k.ackWait}}
}

// takeCredit spends one frame credit, if there is one.
func (k *clientCore) takeCredit() bool {
	if k.credits == 0 {
		return false
	}
	k.credits--
	return true
}

// park assigns the next sequence number to frame — frameHeaderBytes of
// room, then the encoded payload — and keeps it in the ring until an ack
// covers it.
func (k *clientCore) park(frame []byte) {
	putFrameHeader(frame, k.nextSeq)
	k.replay = append(k.replay, replayFrame{seq: k.nextSeq, frame: frame})
	k.nextSeq++
}

// buffer returns the most recently freed frame buffer, still warm, or
// nil while the ring is still growing. A buffer is free only once an ack
// at or below maxTx covers its frame, which no connection sends again.
func (k *clientCore) buffer() []byte {
	n := len(k.free) - 1
	if n < 0 {
		return nil
	}
	buf := k.free[n]
	k.free[n] = nil
	k.free = k.free[:n]
	return buf
}

// wrote is the event of a frame write finishing: err ends the
// connection, else it has carried seq.
func (k *clientCore) wrote(seq uint64, err error) {
	if err != nil {
		k.fail(err)
		return
	}
	k.txSeq = seq
}

// ack is the event of one ack read off the connection — credit and the
// cumulative ack — or of the read failure err that ended its credit
// stream (errAckChecksum among them: a damaged ack is never applied).
func (k *clientCore) ack(credits uint32, last uint64, err error) {
	if err != nil {
		k.fail(fmt.Errorf("netio: credit stream: %w", err))
		return
	}
	k.credits += int(credits)
	k.ackTo(last)
}

// fail marks the current connection dead; the first cause sticks.
func (k *clientCore) fail(err error) {
	if k.dead == nil {
		k.dead = err
	}
}

// ackTo advances the cumulative ack to last and trims the acked prefix
// of the ring, its buffers going to the free list. An ack beyond maxTx
// claims frames never written and is ignored.
func (k *clientCore) ackTo(last uint64) {
	if last <= k.acked || last > k.maxTx {
		return
	}
	k.acked = last
	n := 0
	for n < len(k.replay) && k.replay[n].seq <= last {
		k.free = append(k.free, k.replay[n].frame)
		k.replay[n].frame = nil
		n++
	}
	k.replay = append(k.replay[:0], k.replay[n:]...)
}

// named checks a grant's token and columns: the first grant fixes the
// session's, later ones must echo them. A resume grant naming other
// columns is ErrColumnsChanged, which dialed does not redial.
func (k *clientCore) named(g grant) error {
	if g.token == 0 || k.token != 0 && g.token != k.token {
		return fmt.Errorf("netio: grant names session %#x, want %#x", g.token, k.token)
	}
	if k.fields != 0 && g.fields != k.fields {
		return fmt.Errorf("%w: granted %v, the session moves %v", ErrColumnsChanged, g.fields, k.fields)
	}
	k.token, k.fields = g.token, g.fields
	return nil
}

// lost starts an outage: the connection died of cause, or — cause nil —
// there is none yet, and Dial's first attempt goes out at once. A
// client without Reconnect gets cause back.
func (k *clientCore) lost(cause error, now time.Time) clientAction {
	k.tries = 0
	k.delay = k.rc.BaseDelay
	k.deadline = time.Time{}
	if cause == nil {
		return clientAction{op: opDial, until: now}
	}
	if !k.redials {
		return clientAction{op: opReturn, err: cause}
	}
	return k.backoff(cause, now)
}

// dialed is the event of a dial attempt's result: the handshake's error,
// or the grant's credits and resume point. A grant is accepted only at
// acked <= lastSeq <= maxTx — zero on a fresh session — and then the
// ring is trimmed to it and the connection rewinds there, so what
// follows is retransmitted. One outside that range was damaged in
// flight, and is redialed like a failed dial. An expired session and a
// change of columns are final; every other failure — a grant that fails
// its checksum among them — is retried on the backoff schedule.
func (k *clientCore) dialed(credits int, lastSeq uint64, err error, now time.Time) clientAction {
	if err == nil && (lastSeq < k.acked || lastSeq > k.maxTx) {
		err = fmt.Errorf("netio: grant resumes after frame %d, outside the acked range %d..%d", lastSeq, k.acked, k.maxTx)
	}
	if err == nil {
		k.credits = credits
		k.dead = nil
		k.ackTo(lastSeq)
		k.txSeq = k.acked
		return clientAction{op: opReturn}
	}
	if !k.redials || errors.Is(err, ErrSessionExpired) || errors.Is(err, ErrColumnsChanged) {
		return clientAction{op: opReturn, err: err}
	}
	return k.backoff(err, now)
}

// backoff schedules the outage's next dial attempt, or gives up once
// MaxRetries attempts have failed (a negative MaxRetries never does).
func (k *clientCore) backoff(err error, now time.Time) clientAction {
	if k.rc.MaxRetries >= 0 && k.tries >= k.rc.MaxRetries {
		return clientAction{op: opReturn, err: fmt.Errorf("netio: dial retries exhausted: %w", err)}
	}
	k.tries++
	return clientAction{op: opDial, until: now.Add(k.jitteredDelay())}
}

// jitteredDelay returns the next backoff delay and advances the state:
// the current delay plus its jitter fraction, with the base delay
// growing geometrically toward rc.MaxDelay.
func (k *clientCore) jitteredDelay() time.Duration {
	k.prng = splitmix64(k.prng + 1)
	frac := float64(k.prng>>11) / (1 << 53)
	d := k.delay + time.Duration(float64(k.delay)*backoffJitter*frac)
	k.delay = min(k.delay*backoffMultiplier, k.rc.MaxDelay)
	return d
}
