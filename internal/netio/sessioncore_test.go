package netio

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"streambox/internal/parsefmt"
)

// This file runs the client core against the server core with no
// socket, goroutine or clock: messages in flight sit in slices, and a
// virtual clock jumps from timer to timer, so the 500 ms and 10 s ack
// waits, the 10 s CursorGrace and the 120 s SessionTimeout fire in
// microseconds. sim plays both adapters, the way Client and Server do,
// and checks the protocol's invariants after every step.

// errSimCut is the read or write failure a cut connection reports.
var errSimCut = errors.New("sim: connection cut")

// simMsg is one message in flight.
type simMsg struct {
	kind    byte // 'h' hello, 'f' frame, 'e' end of stream, 'g' grant, 'a' ack
	token   uint64
	seq     uint64
	size    int64
	g       grant
	credits uint32
	last    uint64
}

// simSession is the server adapter's view of one session.
type simSession struct {
	token      uint64
	core       sessionCore
	lastSeq    uint64
	delivering uint64 // the seq whose delivery is in flight; zero for none
	parked     bool
}

// simConn is one simulated connection: what is in flight each way, and
// the server side's per-connection state.
type simConn struct {
	id       int64
	up, down []simMsg
	cut      bool // closed: nothing more goes through
	exited   bool // the server's handler for it has ended
	core     connCore
	sess     *simSession
	granting bool // the grant waits for a delivery in flight
	stalled  bool // the handler is inside a delivery
	consumed int  // frames read, delivered or duplicate
	credited int  // credit written back in acks
}

// Client adapter phases.
const (
	phaseRun       = iota // ask the core
	phaseWait             // until an ack, a read failure or wake
	phaseDial             // until dialAt
	phaseHandshake        // until the grant
)

type simEvent struct {
	at time.Time
	fn func()
}

type sim struct {
	t     *testing.T
	start time.Time
	now   time.Time
	trace []string

	cli       clientCore
	phase     int
	wake      time.Time // phaseWait's timer; zero for none
	dialAt    time.Time
	conn      *simConn // the client's connection; nil when none
	readErr   error    // a read failure the client has yet to see
	failed    error    // a dial the core gave up on, for call to return
	reachable bool
	sent      uint64
	replayed  int
	grants    []uint64 // lastSeq of every grant the client accepted

	srv       serverCore
	fields    parsefmt.FieldSet // the columns the server's grants name
	conns     []*simConn
	sessions  map[uint64]*simSession
	nextID    int64
	tokens    uint64
	nextReap  time.Time
	events    []simEvent
	delivered []uint64
	dups      int
	acks      int

	// Faults, by the ordinal of the message (counted from 1) or seq.
	overloaded  bool
	acksSeen    int
	dropAck     int
	damageAck   int
	grantsSeen  int
	damageGrant int
	cutAtSeq    uint64 // the write of this frame is cut mid-frame
	stallSeq    uint64 // this frame's delivery stalls until a takeover
	halfOpen    bool   // with stallSeq: the client alone sees the cut
	eagerAck    bool   // each frame's ack lands before its write returns
}

func newSim(t *testing.T, cfg ClientConfig) *sim {
	start := time.Unix(1_000_000, 0)
	cfg.ReplayFrames = max(cfg.ReplayFrames, 1)
	m := &sim{
		t: t, start: start, now: start, cli: newClientCore(cfg), reachable: true,
		srv:      serverCore{credits: 16, grace: 10 * time.Second, timeout: 120 * time.Second},
		fields:   parsefmt.AllFields,
		sessions: make(map[uint64]*simSession),
	}
	m.nextReap = start.Add(m.srv.reapEvery())
	m.dialAction(m.cli.lost(nil, start)) // Dial: the first attempt at once
	return m
}

func (m *sim) logf(format string, args ...any) {
	m.trace = append(m.trace, fmt.Sprintf("%v ", m.now.Sub(m.start))+fmt.Sprintf(format, args...))
}

// at schedules fn at time t.
func (m *sim) at(t time.Time, fn func()) { m.events = append(m.events, simEvent{t, fn}) }

// dial opens the session: Dial.
func (m *sim) dial() error { return m.call(goalSent) }

// send parks and writes n frames, as Send does for n frames' worth of
// records: room first, then park, then write.
func (m *sim) send(n int) error {
	for range n {
		if err := m.call(goalRoom); err != nil {
			return err
		}
		buf := m.cli.buffer()
		if buf == nil {
			buf = make([]byte, frameHeaderBytes+4)
		}
		m.cli.park(buf[:frameHeaderBytes+4])
		m.sent++
		if err := m.call(goalSent); err != nil {
			return err
		}
	}
	return nil
}

// close drains the acks and ends the stream, as Close does.
func (m *sim) close() error {
	if err := m.call(goalAcked); err != nil {
		return err
	}
	m.conn.up = append(m.conn.up, simMsg{kind: 'e'})
	m.logf("client: end of stream")
	for m.pump() {
	}
	return nil
}

// call runs the client's side until the core returns from goal, moving
// messages and the clock while it waits.
func (m *sim) call(goal clientGoal) error {
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			m.t.Fatal("no progress")
		}
		m.check()
		if m.failed != nil {
			err := m.failed
			m.failed = nil
			m.phase = phaseRun
			return err
		}
		if m.readErr != nil && (m.phase == phaseRun || m.phase == phaseWait) {
			m.cli.ack(0, 0, m.readErr) // the credit loop's read failed
			m.readErr = nil
			m.wakeClient()
		}
		if m.phase == phaseRun {
			if done, err := m.clientStep(goal); done {
				return err
			}
			continue
		}
		if !m.pump() {
			m.advance()
		}
	}
}

// clientStep is one turn of Client.drive.
func (m *sim) clientStep(goal clientGoal) (done bool, err error) {
	a := m.cli.next(goal, m.now)
	switch a.op {
	case opReturn:
		if a.err != nil {
			m.logf("client: %v", a.err)
		}
		return true, a.err
	case opWrite:
		seq := a.frame.seq
		if seq == m.cutAtSeq {
			m.cutAtSeq = 0
			m.logf("client: cut writing frame %d", seq)
			m.cut(m.conn, true)
		}
		if m.conn.cut {
			m.cli.wrote(seq, errSimCut)
			return false, nil
		}
		m.conn.up = append(m.conn.up, simMsg{kind: 'f', seq: seq, size: int64(len(a.frame.frame) - frameHeaderBytes)})
		if a.replay {
			m.replayed++
		}
		m.logf("client: frame %d (replay %v)", seq, a.replay)
		for m.eagerAck && m.pump() {
		}
		m.cli.wrote(seq, nil)
	case opWait:
		m.phase, m.wake = phaseWait, a.until
		if !a.until.IsZero() {
			m.logf("client: wait for an ack until %v", a.until.Sub(m.start))
		}
	case opReconnect:
		m.logf("client: reconnect after %v", a.err)
		m.cut(m.conn, true)
		m.conn = nil
		m.dialAction(m.cli.lost(a.err, m.now))
	}
	return false, nil
}

// dialAction carries out what lost or dialed answered: dial later,
// give up (call returns the error), or carry on connected.
func (m *sim) dialAction(a clientAction) {
	switch {
	case a.op == opDial:
		m.phase, m.dialAt = phaseDial, a.until
		m.logf("client: dial at %v", a.until.Sub(m.start))
	case a.err != nil:
		m.logf("client: gave up: %v", a.err)
		m.failed = a.err
	default:
		m.phase = phaseRun
	}
}

// pump moves one batch of messages: the server reads everything a
// connection has buffered and then, about to wait, flushes its credit;
// the client takes one message. It reports whether anything moved.
func (m *sim) pump() bool {
	for _, sc := range m.conns {
		if len(sc.up) > 0 && !sc.cut && !sc.stalled {
			m.serve(sc)
			return true
		}
	}
	if m.conn == nil || len(m.conn.down) == 0 {
		return false
	}
	msg := m.conn.down[0]
	m.conn.down = m.conn.down[1:]
	if msg.kind == 'g' {
		m.granted(msg.g)
		return true
	}
	m.acksSeen++
	switch m.acksSeen {
	case m.dropAck:
		m.logf("net: ack %d lost", m.acksSeen)
		return true
	case m.damageAck:
		m.logf("net: ack %d damaged", m.acksSeen)
		m.cli.ack(0, 0, errAckChecksum)
	default:
		m.logf("client: ack %d credits, lastSeq %d", msg.credits, msg.last)
		m.cli.ack(msg.credits, msg.last, nil)
	}
	m.wakeClient()
	return true
}

func (m *sim) wakeClient() {
	if m.phase == phaseWait {
		m.phase = phaseRun
	}
}

// granted is the client reading the grant: openSession, then the
// core's verdict on it.
func (m *sim) granted(g grant) {
	var err error
	m.grantsSeen++
	switch {
	case m.grantsSeen == m.damageGrant:
		m.logf("net: grant %d damaged", m.grantsSeen)
		g, err = grant{}, errGrantChecksum
	case g.status == statusOK:
		err = m.cli.named(g)
	case g.status == statusExpired:
		err = ErrSessionExpired
	default:
		err = ErrOverloaded
	}
	a := m.cli.dialed(int(g.credits), g.lastSeq, err, m.now)
	m.logf("client: grant status %d lastSeq %d", g.status, g.lastSeq)
	if a.op == opReturn && a.err == nil {
		m.grants = append(m.grants, g.lastSeq)
	} else {
		m.cut(m.conn, true)
		m.conn = nil
	}
	m.dialAction(a)
}

// advance moves the clock to the next timer: the client's wait or dial,
// a scripted event, or the reap tick.
func (m *sim) advance() {
	next := m.nextReap
	if m.phase == phaseWait && !m.wake.IsZero() && m.wake.Before(next) {
		next = m.wake
	}
	if m.phase == phaseDial && m.dialAt.Before(next) {
		next = m.dialAt
	}
	for _, e := range m.events {
		if e.at.Before(next) {
			next = e.at
		}
	}
	if next.Sub(m.start) > time.Hour {
		m.t.Fatal("the simulation ran for an hour")
	}
	m.now = next
	for i := 0; i < len(m.events); i++ {
		if e := m.events[i]; !e.at.After(m.now) {
			m.events = slices.Delete(m.events, i, i+1)
			i--
			e.fn()
		}
	}
	if !m.nextReap.After(m.now) {
		m.reap()
		m.nextReap = m.nextReap.Add(m.srv.reapEvery())
	}
	if m.phase == phaseWait && !m.wake.IsZero() && !m.wake.After(m.now) {
		m.phase = phaseRun
	}
	if m.phase == phaseDial && !m.dialAt.After(m.now) {
		m.attempt()
	}
}

// attempt is one dial: refused while the server is unreachable, else a
// new connection carrying the hello.
func (m *sim) attempt() {
	if !m.reachable {
		m.logf("client: dial refused")
		m.dialAction(m.cli.dialed(0, 0, errSimCut, m.now))
		return
	}
	m.nextID++
	sc := &simConn{id: m.nextID}
	m.conns = append(m.conns, sc)
	m.conn = sc
	m.readErr = nil
	sc.up = append(sc.up, simMsg{kind: 'h', token: m.cli.token})
	m.phase = phaseHandshake
	m.logf("client: hello on conn %d token %#x", sc.id, m.cli.token)
}

// reap is the server's reap tick.
func (m *sim) reap() {
	for _, ss := range m.sortedSessions() {
		switch m.srv.reap(&ss.core, m.now) {
		case reapPark:
			if !ss.parked {
				ss.parked = true
				m.logf("server: session parked")
			}
		case reapExpire:
			delete(m.sessions, ss.token)
			m.logf("server: session expired")
		}
	}
}

func (m *sim) sortedSessions() []*simSession {
	var out []*simSession
	for _, ss := range m.sessions {
		out = append(out, ss)
	}
	slices.SortFunc(out, func(a, b *simSession) int { return cmp.Compare(a.token, b.token) })
	return out
}

// cut severs sc. The server notices unless the cut is half-open; the
// client notices on its next read if sc is its connection.
func (m *sim) cut(sc *simConn, serverSees bool) {
	if sc == nil || sc.cut {
		return
	}
	sc.cut, sc.up, sc.down = true, nil, nil
	if sc == m.conn && m.phase != phaseHandshake {
		m.readErr = errSimCut
	}
	if serverSees {
		m.exit(sc)
	}
}

// exit ends the server's handler for sc, once it is out of any delivery.
func (m *sim) exit(sc *simConn) {
	if sc.exited || sc.stalled {
		return
	}
	sc.exited = true
	if sc.sess != nil {
		sc.sess.core.detach(sc.id, m.now)
		m.logf("server: conn %d exits", sc.id)
	}
}

// serve is the server's frame loop over what sc has buffered.
func (m *sim) serve(sc *simConn) {
	for len(sc.up) > 0 && !sc.cut && !sc.stalled {
		msg := sc.up[0]
		sc.up = sc.up[1:]
		switch msg.kind {
		case 'h':
			m.hello(sc, msg.token)
			continue
		case 'e':
			m.flush(sc)
			if sc.credited != sc.consumed {
				m.t.Fatalf("conn %d ends cleanly having granted %d credits for %d frames", sc.id, sc.credited, sc.consumed)
			}
			sc.cut = true
			delete(m.sessions, sc.sess.token)
			m.logf("server: clean end of stream")
			m.exit(sc)
			return
		}
		v := m.srv.header(&sc.core, msg.size, msg.seq, false)
		switch v {
		case frameGap, frameOversize:
			m.logf("server: conn %d severed at frame %d (verdict %d)", sc.id, msg.seq, v)
			m.cut(sc, true)
			return
		case frameDuplicate:
			m.dups++
			m.logf("server: duplicate frame %d", msg.seq)
		case frameDeliver:
			if sc.sess.core.owner != sc.id {
				m.cut(sc, true) // superseded
				return
			}
			if msg.seq == m.stallSeq {
				m.stallSeq = 0
				m.flush(sc) // about to wait behind a full feed
				sc.stalled, sc.sess.delivering = true, msg.seq
				m.logf("server: delivery of frame %d stalls", msg.seq)
				if m.halfOpen {
					m.readErr = errSimCut // the client alone sees the connection die
				}
				return
			}
			m.deliver(sc, msg.seq)
		}
		sc.consumed++
		if m.srv.consumed(&sc.core, v == frameDeliver, msg.seq) {
			m.flush(sc)
		}
	}
	if !sc.cut && !sc.stalled {
		m.flush(sc) // about to wait for bytes not yet sent
	}
}

func (m *sim) deliver(sc *simConn, seq uint64) {
	if want := uint64(len(m.delivered)) + 1; seq != want {
		m.t.Fatalf("delivered frame %d, want %d (delivered so far %v)", seq, want, m.delivered)
	}
	m.delivered = append(m.delivered, seq)
	sc.sess.lastSeq = seq
}

// unstall completes the stalled delivery: it lands, the handler — its
// connection taken over — exits, and a grant waiting on it goes out.
func (m *sim) unstall() {
	for _, sc := range m.conns {
		if !sc.stalled {
			continue
		}
		seq := sc.sess.delivering
		m.deliver(sc, seq)
		sc.stalled, sc.sess.delivering = false, 0
		m.logf("server: delivery of frame %d completes", seq)
		sc.consumed++
		m.srv.consumed(&sc.core, true, seq)
		m.flush(sc)
		if sc.cut {
			m.exit(sc)
		}
		for _, other := range m.conns {
			m.grantIfSettled(other)
		}
	}
}

// hello is the server's handshake: open or resume, attach (severing a
// predecessor on a takeover), and grant once no delivery is in flight.
func (m *sim) hello(sc *simConn, token uint64) {
	ss := m.sessions[token]
	switch {
	case token == 0:
		m.tokens++
		ss = &simSession{token: m.tokens * 0x9E3779B97F4A7C15}
		m.sessions[ss.token] = ss
	case ss == nil:
		sc.down = append(sc.down, simMsg{kind: 'g', g: grant{status: statusExpired}})
		sc.exited = true
		m.logf("server: conn %d: session expired", sc.id)
		return
	}
	if old := ss.core.attach(sc.id); old != 0 {
		m.logf("server: conn %d takes over from conn %d", sc.id, old)
		for _, prev := range m.conns {
			if prev.id == old {
				m.cut(prev, true)
			}
		}
	}
	ss.parked = false
	sc.sess, sc.granting = ss, true
	m.grantIfSettled(sc)
	if sc.granting {
		m.logf("server: conn %d grant waits for the delivery of frame %d", sc.id, ss.delivering)
		m.at(m.now.Add(time.Millisecond), m.unstall)
	}
}

// grantIfSettled writes sc's grant once its session has no delivery in
// flight — what settledSeq waits for.
func (m *sim) grantIfSettled(sc *simConn) {
	if !sc.granting || sc.sess.delivering != 0 {
		return
	}
	sc.granting = false
	g := grant{status: statusOK, credits: uint16(m.srv.credits), token: sc.sess.token, lastSeq: sc.sess.lastSeq, fields: m.fields}
	sc.core.expect = g.lastSeq + 1
	if !sc.cut {
		sc.down = append(sc.down, simMsg{kind: 'g', g: g})
	}
	m.logf("server: conn %d grants lastSeq %d", sc.id, g.lastSeq)
}

// flush is flushCredit: the core says what credit goes out now.
func (m *sim) flush(sc *simConn) {
	n, hold := m.srv.idle(&sc.core, m.overloaded)
	if hold {
		m.logf("server: conn %d withholds credit", sc.id)
		return
	}
	if n > 0 && !sc.cut {
		sc.down = append(sc.down, simMsg{kind: 'a', credits: uint32(n), last: sc.sess.lastSeq})
		m.acks++
		sc.credited += n
		m.logf("server: conn %d acks %d credits, lastSeq %d", sc.id, n, sc.sess.lastSeq)
	}
}

// check holds the invariants after every step.
func (m *sim) check() {
	m.t.Helper()
	for i, seq := range m.delivered {
		if seq != uint64(i)+1 {
			m.t.Fatalf("delivered %v: not 1..k once each", m.delivered)
		}
	}
	if m.cli.acked > uint64(len(m.delivered)) {
		m.t.Fatalf("client holds an ack of %d with %d frames delivered", m.cli.acked, len(m.delivered))
	}
	for _, sc := range m.conns {
		for _, msg := range sc.down {
			if msg.kind == 'g' && msg.g.status == statusOK && msg.g.lastSeq < sc.sess.lastSeq {
				m.t.Fatalf("grant of lastSeq %d in flight trails the session's %d", msg.g.lastSeq, sc.sess.lastSeq)
			}
		}
	}
	if m.phase == phaseWait && !m.wake.IsZero() && m.now.After(m.wake) {
		m.t.Fatalf("the client's wait until %v outlived its timer (now %v)", m.wake.Sub(m.start), m.now.Sub(m.start))
	}
	if m.phase == phaseDial && m.now.After(m.dialAt) {
		m.t.Fatalf("the dial due at %v is late (now %v)", m.dialAt.Sub(m.start), m.now.Sub(m.start))
	}
}

// checkDelivered requires every frame sent delivered exactly once.
func (m *sim) checkDelivered() {
	m.t.Helper()
	if uint64(len(m.delivered)) != m.sent {
		m.t.Fatalf("delivered %d frames of %d sent", len(m.delivered), m.sent)
	}
}

// TestSessionCores drives the client core against the server core under
// a virtual clock, through a clean stream, each fault the session
// protocol absorbs, and each of its timers. Every case runs twice and
// must produce the same event trace.
func TestSessionCores(t *testing.T) {
	reconnect := &ReconnectConfig{MaxRetries: 4, BaseDelay: 50 * time.Millisecond, Seed: 7}
	cfg := ClientConfig{ReplayFrames: 64, WriteTimeout: 500 * time.Millisecond, Reconnect: reconnect}
	for _, tc := range []struct {
		name string
		cfg  ClientConfig
		run  func(t *testing.T, m *sim)
	}{
		{"clean stream, coalesced acks", cfg, func(t *testing.T, m *sim) {
			mustOK(t, m.dial(), m.send(40), m.close())
			m.checkDelivered()
			if m.acks >= 40 || len(m.grants) != 1 || m.replayed != 0 {
				t.Fatalf("%d acks for 40 frames, grants %v, %d replayed; want fewer acks and no fault", m.acks, m.grants, m.replayed)
			}
		}},
		{"cut mid-frame, resume and replay", cfg, func(t *testing.T, m *sim) {
			m.cutAtSeq = 20
			mustOK(t, m.dial(), m.send(40), m.close())
			m.checkDelivered()
			if len(m.grants) != 2 || m.grants[1] >= 20 || m.replayed == 0 {
				t.Fatalf("grants %v, %d replayed; want one resume below frame 20 and a replay", m.grants, m.replayed)
			}
		}},
		{"lost ack, duplicate discarded", cfg, func(t *testing.T, m *sim) {
			m.dropAck = 2
			mustOK(t, m.dial(), m.send(24))
			lost := m.cli.acked
			m.cut(m.conn, true)
			mustOK(t, m.send(1))
			// The resumed connection first carries what the lost ack
			// covered, as from a peer resuming at its own ack.
			resumed := m.conns[len(m.conns)-1]
			var stale []simMsg
			for seq := lost + 1; seq <= m.grants[1]; seq++ {
				stale = append(stale, simMsg{kind: 'f', seq: seq, size: 4})
			}
			resumed.up = append(stale, resumed.up...)
			mustOK(t, m.close())
			m.checkDelivered()
			if want := int(m.grants[1] - lost); want == 0 || m.dups != want {
				t.Fatalf("%d duplicates discarded, want %d (acked %d, resumed at %d)", m.dups, want, lost, m.grants[1])
			}
		}},
		{"damaged ack", cfg, func(t *testing.T, m *sim) {
			m.damageAck = 2
			mustOK(t, m.dial(), m.send(40), m.close())
			m.checkDelivered()
			if len(m.grants) != 2 {
				t.Fatalf("grants %v after a damaged ack, want one resume", m.grants)
			}
		}},
		{"withheld credit: the ack wait fires at 500ms", cfg, func(t *testing.T, m *sim) {
			mustOK(t, m.dial())
			m.overloaded = true
			mustOK(t, m.send(4))
			from := m.now
			m.at(from.Add(499*time.Millisecond), func() { m.wakeClient() }) // a wake 1ms early changes nothing
			err := m.call(goalAcked)
			var te *TimeoutError
			if !errors.As(err, &te) || te.Op != "ack drain" || te.After != 500*time.Millisecond {
				t.Fatalf("drain = %v, want the 500ms ack-drain timeout", err)
			}
			if got := m.now.Sub(from); got != 500*time.Millisecond {
				t.Fatalf("the ack wait fired after %v, want exactly 500ms", got)
			}
		}},
		{"no write deadline: the ack drain fires at 10s", ClientConfig{ReplayFrames: 64}, func(t *testing.T, m *sim) {
			mustOK(t, m.dial())
			m.overloaded = true
			mustOK(t, m.send(4))
			from := m.now
			m.at(from.Add(10*time.Second-time.Millisecond), func() { m.wakeClient() })
			err := m.call(goalAcked)
			var te *TimeoutError
			if !errors.As(err, &te) || te.Op != "ack drain" || te.After != 10*time.Second {
				t.Fatalf("drain = %v, want the 10s ack-drain timeout", err)
			}
			if got := m.now.Sub(from); got != 10*time.Second {
				t.Fatalf("the ack wait fired after %v, want exactly 10s", got)
			}
		}},
		{"no write deadline: a full ring reconnects at 10s", ClientConfig{ReplayFrames: 2}, func(t *testing.T, m *sim) {
			mustOK(t, m.dial())
			m.overloaded = true
			mustOK(t, m.send(2))
			from := m.now
			m.at(from.Add(10*time.Second-time.Millisecond), func() { m.wakeClient() })
			err := m.send(1)
			var te *TimeoutError
			if !errors.As(err, &te) || te.Op != "replay-buffer ack wait" || te.After != 10*time.Second {
				t.Fatalf("send on a full ring = %v, want the 10s replay-buffer timeout", err)
			}
			if got := traceTime(t, m, "client: reconnect after") - from.Sub(m.start); got != 10*time.Second {
				t.Fatalf("the full ring reconnected after %v, want exactly 10s", got)
			}
		}},
		{"detached session parks at 10s, expires at 120s", ClientConfig{
			ReplayFrames: 64, WriteTimeout: 500 * time.Millisecond,
			Reconnect: &ReconnectConfig{MaxRetries: -1, Seed: 7},
		}, func(t *testing.T, m *sim) {
			mustOK(t, m.dial(), m.send(5), m.call(goalAcked))
			m.reachable = false
			lost := m.now
			m.cut(m.conn, true)
			m.at(lost.Add(125*time.Second), func() { m.reachable = true })
			err := m.send(1)
			if !errors.Is(err, ErrSessionExpired) {
				t.Fatalf("resume after 125s: %v, want ErrSessionExpired", err)
			}
			parked, expired := traceTime(t, m, "session parked"), traceTime(t, m, "session expired")
			every := m.srv.reapEvery()
			if d := parked - lost.Sub(m.start); d < 10*time.Second || d >= 10*time.Second+every {
				t.Fatalf("parked %v after detaching, want within one %v tick of 10s", d, every)
			}
			if d := expired - lost.Sub(m.start); d <= 120*time.Second || d > 120*time.Second+every {
				t.Fatalf("expired %v after detaching, want within one %v tick past 120s", d, every)
			}
		}},
		{"every ack lands before its write returns", cfg, func(t *testing.T, m *sim) {
			m.eagerAck = true
			mustOK(t, m.dial(), m.send(20), m.close())
			m.checkDelivered()
		}},
		{"damaged grant redials", cfg, func(t *testing.T, m *sim) {
			m.damageGrant = 2
			mustOK(t, m.dial(), m.send(10))
			m.cut(m.conn, true)
			mustOK(t, m.send(10), m.close())
			m.checkDelivered()
			if len(m.grants) != 2 || m.grantsSeen != 3 {
				t.Fatalf("grants %v of %d read; want the damaged one redialed", m.grants, m.grantsSeen)
			}
		}},
		{"a resume grant naming other columns ends the session", cfg, func(t *testing.T, m *sim) {
			m.fields = 1<<0 | 1<<3 | 1<<6
			mustOK(t, m.dial(), m.send(10), m.call(goalAcked))
			m.fields = 1<<0 | 1<<4 | 1<<6 // the server restarted under another plan
			m.cut(m.conn, true)
			err := m.send(1)
			if !errors.Is(err, ErrColumnsChanged) {
				t.Fatalf("send after the resume = %v, want ErrColumnsChanged", err)
			}
			if len(m.grants) != 1 || m.grantsSeen != 2 || len(m.conns) != 2 {
				t.Fatalf("grants %v of %d read on %d connections; want the resume refused, not redialed", m.grants, m.grantsSeen, len(m.conns))
			}
			if m.cli.fields != 1<<0|1<<3|1<<6 {
				t.Fatalf("the session's columns became %v", m.cli.fields)
			}
		}},
		{"takeover during an in-flight delivery", cfg, func(t *testing.T, m *sim) {
			m.stallSeq, m.halfOpen = 3, true
			mustOK(t, m.dial(), m.send(3), m.close())
			m.checkDelivered()
			if len(m.grants) != 2 || m.grants[1] != 3 || m.dups != 0 || m.replayed != 0 {
				t.Fatalf("grants %v, %d duplicates, %d replayed; want the takeover's grant to say 3 and nothing replayed", m.grants, m.dups, m.replayed)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var traces [2][]string
			for i := range traces {
				m := newSim(t, tc.cfg)
				tc.run(t, m)
				traces[i] = m.trace
				if testing.Verbose() && i == 0 {
					t.Log(strings.Join(m.trace, "\n"))
				}
			}
			if !slices.Equal(traces[0], traces[1]) {
				t.Fatalf("two runs, two traces:\n%s\n---\n%s", strings.Join(traces[0], "\n"), strings.Join(traces[1], "\n"))
			}
		})
	}

	t.Run("backoff schedule", func(t *testing.T) {
		rc := ReconnectConfig{MaxRetries: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond, Seed: 42}
		schedule := func() []time.Duration {
			k := newClientCore(ClientConfig{ReplayFrames: 1, Reconnect: &rc})
			now := time.Unix(0, 0)
			var out []time.Duration
			for a := k.lost(errSimCut, now); a.op == opDial; a = k.dialed(0, 0, errSimCut, now) {
				out = append(out, a.until.Sub(now))
				now = a.until
			}
			return out
		}
		got := schedule()
		if len(got) != rc.MaxRetries || !slices.Equal(got, schedule()) {
			t.Fatalf("schedule %v: want %d delays, the same every time", got, rc.MaxRetries)
		}
		base := rc.BaseDelay
		for i, d := range got {
			if d < base || float64(d) >= float64(base)*(1+backoffJitter) {
				t.Fatalf("delay %d is %v, want %v plus under %.0f%% jitter (schedule %v)", i, d, base, backoffJitter*100, got)
			}
			base = min(base*backoffMultiplier, rc.MaxDelay)
		}
	})
}

// mustOK fails the test on the first error.
func mustOK(t *testing.T, errs ...error) {
	t.Helper()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// traceTime returns the simulated time of the first trace line that
// mentions what.
func traceTime(t *testing.T, m *sim, what string) time.Duration {
	t.Helper()
	for _, line := range m.trace {
		if strings.Contains(line, what) {
			d, err := time.ParseDuration(strings.Fields(line)[0])
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	t.Fatalf("no %q in the trace", what)
	return 0
}
