package netio

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout waiting for " + msg)
}

// genPayload builds one frame payload in format holding records
// [lo, lo+n) of gen.
func genPayload(format parsefmt.Format, gen *RecordGen, lo, n int) []byte {
	if format != parsefmt.Columnar {
		return appendCRC(parsefmt.EncodePB(gen.Records(uint64(lo), uint64(lo+n))), 0)
	}
	cols := make([][]uint64, 7)
	for i := lo; i < lo+n; i++ {
		rc := gen.ColsAt(uint64(i))
		for k := range cols {
			cols[k] = append(cols[k], rc[k])
		}
	}
	return parsefmt.EncodeColumnarFrame(cols)
}

// writeSeqFrame sends one data frame by hand: header, then payload.
func writeSeqFrame(w io.Writer, seq uint64, payload []byte) error {
	frame := append(make([]byte, frameHeaderBytes, frameHeaderBytes+len(payload)), payload...)
	putFrameHeader(frame, seq)
	_, err := w.Write(frame)
	return err
}

// rawSessionRequest sends a hello by hand — token zero asks for a fresh
// session — and leaves the grant unread.
func rawSessionRequest(t *testing.T, addr string, format parsefmt.Format, token uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, format, token); err != nil {
		t.Fatal(err)
	}
	return conn
}

// rawSessionDial runs the handshake by hand and returns the raw
// connection plus the grant. A zero returned token means the server
// refused the resume (unknown/expired session).
func rawSessionDial(t *testing.T, addr string, format parsefmt.Format, token uint64) (conn net.Conn, credits int, gotToken, lastSeq uint64) {
	t.Helper()
	conn = rawSessionRequest(t, addr, format, token)
	g, err := readGrant(conn)
	if errors.Is(err, ErrSessionExpired) {
		return conn, 0, 0, 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return conn, int(g.credits), g.token, g.lastSeq
}

// fakeGrant plays the server's half of the handshake on conn: whatever
// the hello asks, it is granted session 42 at sequence zero with the
// given credits.
func fakeGrant(conn net.Conn, credits uint16) error {
	if _, _, _, err := readHello(conn); err != nil {
		return err
	}
	return writeGrant(conn, grant{status: statusOK, credits: credits, token: 42, fields: parsefmt.AllFields})
}

// delivering reports whether a connection of the session is inside
// deliver — which holds the session's delivery lock while it waits for
// room in the feed.
func (ss *session) delivering() bool {
	if ss.dmu.TryLock() {
		ss.dmu.Unlock()
		return false
	}
	return true
}

// lookup finds a live session by token.
func (s *Server) lookup(token uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// awaitAck reads credit acks off a raw session connection until the
// cumulative ack reaches want.
func awaitAck(t *testing.T, conn net.Conn, want uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	for {
		_, last, err := readCreditAck(conn)
		if err != nil {
			t.Fatalf("credit ack: %v", err)
		}
		if last >= want {
			return
		}
	}
}

// TestIdleTimeoutClosesSilentConn pins the steady-state read deadline:
// with IdleTimeout set a silent connection is severed and — its
// session abandoned — the cursor retired once the session expires; with
// it unset silence is tolerated.
func TestIdleTimeoutClosesSilentConn(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:           feed,
		IdleTimeout:    50 * time.Millisecond,
		CursorGrace:    20 * time.Millisecond,
		SessionTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		total, _ := feed.liveCursors()
		return srv.Counters().ActiveConns == 0 && total == 0
	}, "silent connection to be severed")
	if n := srv.Counters().IdleTimeouts; n < 1 {
		t.Fatalf("IdleTimeouts = %d, want >= 1", n)
	}
	c.conn.Close()
	srv.Close()
	<-done

	// Without IdleTimeout, the same silence is tolerated.
	feed2 := NewFeed(WireSchema(), 8)
	srv2, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed2})
	if err != nil {
		t.Fatal(err)
	}
	got, done2 := collect(feed2)
	c2, err := Dial(srv2.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if n := srv2.Counters().ActiveConns; n != 1 {
		t.Fatalf("connection severed without IdleTimeout (active %d)", n)
	}
	gen := RecordGen{Keys: 8, WindowRecords: 100}
	if err := c2.Send(gen.Records(0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	<-done2
	if n := got.Load(); n != 50 {
		t.Fatalf("ingested %d records after silence, want 50", n)
	}
}

// TestAckWriteDeadlineSeversNonReadingClient pins the bound on the ack
// write. A client that keeps sending frames but never reads its acks
// fills the socket buffers; the handler used to block in that write
// with no deadline — attached, so the reaper never parked its cursor and
// every window stayed open behind it. The write is bounded by
// IdleTimeout: past it the connection is severed, counted as an idle
// timeout, and the session detaches and parks like any lost client's.
// The connection is an in-memory pipe, the limit of a shrunken socket
// buffer: nothing is buffered, so the first ack nobody reads blocks.
// (Over loopback TCP the kernel's receive-queue collapsing lets an ack
// through every ~40 ms for seconds before the buffers are really full,
// and how long depends on the host.)
func TestAckWriteDeadlineSeversNonReadingClient(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:           feed,
		IdleTimeout:    100 * time.Millisecond,
		CursorGrace:    20 * time.Millisecond,
		SessionTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	conn, served := net.Pipe()
	defer conn.Close()
	srv.wg.Add(1)
	go srv.handle(served)
	if err := writeHello(conn, parsefmt.Columnar, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := readGrant(conn); err != nil {
		t.Fatal(err)
	}
	// Frames go out for as long as the server takes them; no ack is
	// ever read. The writes end when the server severs the connection.
	payload := genPayload(parsefmt.Columnar, &gen, 0, 10)
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	for seq := uint64(1); writeSeqFrame(conn, seq, payload) == nil; seq++ {
	}
	waitFor(t, 5*time.Second, func() bool {
		ctr := srv.Counters()
		return ctr.ActiveConns == 0 && ctr.ActiveSessions == 1 && ctr.ParkedCursors == 1
	}, "the non-reading client to be severed, its session detached and its cursor parked")
	if n := srv.Counters().IdleTimeouts; n != 1 {
		t.Fatalf("IdleTimeouts = %d, want 1 (the expired ack write)", n)
	}
	srv.Close()
	<-done
	if n := got.Load(); n != 10 {
		t.Fatalf("ingested %d records, want the 10 of the frame whose ack stalled", n)
	}
}

// TestClientWriteTimeout pins the typed write-deadline error: against a
// server that handshakes and then never reads, a client with a
// WriteTimeout surfaces *TimeoutError instead of blocking forever.
func TestClientWriteTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetReadBuffer(4 << 10) // shrink the kernel buffer so writes stall sooner
		}
		// Handshake, grant a huge credit window, then go silent: never
		// read a frame, never grant again.
		if fakeGrant(conn, 0xFFFF) != nil {
			conn.Close()
			return
		}
		accepted <- conn
	}()

	c, err := Dial(ln.Addr().String(), ClientConfig{
		Format:       parsefmt.Columnar,
		FrameRecords: 4096,
		WriteTimeout: 150 * time.Millisecond,
		// Room for every frame the loop below sends: the writes must
		// stall on the socket, not on a full replay buffer.
		ReplayFrames: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	conn := <-accepted
	defer conn.Close()

	cols := make([][]uint64, 7)
	for k := range cols {
		cols[k] = make([]uint64, 1<<16)
	}
	var sendErr error
	for i := 0; i < 64 && sendErr == nil; i++ { // ~229 MiB max, stalls long before that
		sendErr = c.SendColumns(cols)
	}
	if sendErr == nil {
		t.Fatal("writes against a non-reading server never timed out")
	}
	var te *TimeoutError
	if !errors.As(sendErr, &te) {
		t.Fatalf("send error %v, want *TimeoutError", sendErr)
	}
	if !te.Timeout() || te.After != 150*time.Millisecond {
		t.Fatalf("timeout error %+v not carrying the configured deadline", te)
	}
}

// TestAbruptDisconnectMatrix cuts connections at every interesting
// offset — during the handshake, at frame boundaries, and mid-frame at
// several byte offsets — then resumes the session, replays what the cut
// swallowed and ends the stream. Every frame must be ingested exactly
// once and nothing may leak. A disconnect no longer retires the cursor
// on the spot: the last part abandons sessions for good and watches the
// reaper park, then expire them.
func TestAbruptDisconnectMatrix(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	addr := srv.Addr().String()

	const frameRecs = 32
	payload := genPayload(parsefmt.Columnar, &gen, 0, frameRecs)
	// wireFrame is one full frame as it appears on the wire.
	wireFrame := func(seq uint64) []byte {
		var buf bytes.Buffer
		writeSeqFrame(&buf, seq, payload)
		return buf.Bytes()
	}
	frameLen := len(wireFrame(1))

	settle := func(tc *testing.T) {
		tc.Helper()
		waitFor(tc, 5*time.Second, func() bool {
			total, _ := feed.liveCursors()
			ctr := srv.Counters()
			return ctr.ActiveConns == 0 && ctr.ActiveSessions == 0 && total == 0
		}, "connection, session and cursor to unwind")
	}
	// cutAndResume opens a session, delivers fullFrames complete frames
	// (acked), writes the first cut bytes of the next one and drops the
	// socket; then resumes, checks the grant names exactly the complete
	// frames, replays the torn frame whole and ends the stream.
	cutAndResume := func(tc *testing.T, fullFrames, cut int) {
		tc.Helper()
		before := srv.Counters()
		conn, _, token, _ := rawSessionDial(tc, addr, parsefmt.Columnar, 0)
		for seq := 1; seq <= fullFrames; seq++ {
			if _, err := conn.Write(wireFrame(uint64(seq))); err != nil {
				tc.Fatal(err)
			}
		}
		if fullFrames > 0 {
			awaitAck(tc, conn, uint64(fullFrames))
		}
		torn := uint64(fullFrames + 1)
		conn.Write(wireFrame(torn)[:cut])
		conn.Close()

		conn, _, token2, last := rawSessionDial(tc, addr, parsefmt.Columnar, token)
		if token2 != token || last != uint64(fullFrames) {
			tc.Fatalf("resume grant token=%d lastSeq=%d, want %d/%d", token2, last, token, fullFrames)
		}
		want := int64(fullFrames * frameRecs)
		if cut > 0 {
			if _, err := conn.Write(wireFrame(torn)); err != nil {
				tc.Fatal(err)
			}
			awaitAck(tc, conn, torn)
			want += frameRecs
		}
		if err := writeEOS(conn); err != nil {
			tc.Fatal(err)
		}
		settle(tc)
		conn.Close()
		after := srv.Counters()
		if n := after.IngestedRecords - before.IngestedRecords; n != want {
			tc.Fatalf("ingested %d records, want exactly %d", n, want)
		}
		if n := after.DuplicateFrames - before.DuplicateFrames; n != 0 {
			tc.Fatalf("%d duplicate frames: the grant trailed what was ingested", n)
		}
	}

	t.Run("mid-handshake", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("SBX"))
		conn.Close()
		// Gone inside the hello's second half, after the version was
		// accepted: nothing was admitted and no session was created.
		var hello bytes.Buffer
		writeHello(&hello, parsefmt.Columnar, 0)
		conn, err = net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello.Bytes()[:helloBytes-3])
		conn.Close()
		settle(t)
	})

	for _, fullFrames := range []int{0, 1, 2} {
		t.Run("frame-boundary", func(t *testing.T) { cutAndResume(t, fullFrames, 0) })
	}

	// Inside the length prefix (twice), inside the sequence number,
	// inside the columnar header, inside the column data, one byte short.
	for _, cut := range []int{1, 3, 5, 12 + 11, 12 + parsefmt.ColumnarHeaderBytes + 3, frameLen - 1} {
		t.Run("mid-frame", func(t *testing.T) { cutAndResume(t, 1, cut) })
	}

	srv.Close()
	<-done
	final := srv.Counters()
	if final.ActiveConns != 0 {
		t.Fatalf("ActiveConns %d after close", final.ActiveConns)
	}
	if total, _ := feed.liveCursors(); total != 0 {
		t.Fatalf("%d cursors leaked", total)
	}
	if n := got.Load(); n != final.IngestedRecords {
		t.Fatalf("feed delivered %d records, server counted %d", n, final.IngestedRecords)
	}

	// Abandoned sessions: one cut between the hello and the grant, one
	// cut mid-frame, neither ever resumed. Their cursors hold
	// the watermark for CursorGrace, are parked, and go with the sessions
	// at SessionTimeout.
	feed2 := NewFeed(WireSchema(), 64)
	srv2, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:           feed2,
		CursorGrace:    30 * time.Millisecond,
		SessionTimeout: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done2 := collect(feed2)
	addr2 := srv2.Addr().String()
	conn := rawSessionRequest(t, addr2, parsefmt.Columnar, 0)
	conn.Close()
	conn, _, token, _ := rawSessionDial(t, addr2, parsefmt.Columnar, 0)
	conn.Write(wireFrame(1))
	awaitAck(t, conn, 1)
	conn.Write(wireFrame(2)[:frameLen/2])
	conn.Close()
	waitFor(t, 5*time.Second, func() bool {
		ctr := srv2.Counters()
		return ctr.ActiveConns == 0 && ctr.ActiveSessions == 2 && ctr.ParkedCursors == 2
	}, "both abandoned cursors to park")
	waitFor(t, 5*time.Second, func() bool {
		total, _ := feed2.liveCursors()
		ctr := srv2.Counters()
		return ctr.ExpiredSessions == 2 && ctr.ActiveSessions == 0 && total == 0
	}, "both abandoned sessions to expire")
	conn, _, late, _ := rawSessionDial(t, addr2, parsefmt.Columnar, token)
	if late != 0 {
		t.Fatalf("expired session resumed (token %d)", late)
	}
	conn.Close()
	srv2.Close()
	<-done2
	if n := srv2.Counters().IngestedRecords; n != frameRecs {
		t.Fatalf("abandoned session ingested %d records, want only the complete frame's %d", n, frameRecs)
	}
}

// sessionFormats are the two decode steps of the one frame loop the
// raw-wire session tests run through: a row format and columnar.
var sessionFormats = []parsefmt.Format{parsefmt.PB, parsefmt.Columnar}

// TestSessionResumeDedupe drives the resume protocol by hand: frames
// acked under a dead connection are replayed and discarded by seq
// dedup, a sequence gap severs the connection, and a retired session
// refuses to resume.
func TestSessionResumeDedupe(t *testing.T) {
	for _, format := range sessionFormats {
		t.Run(format.String(), func(t *testing.T) { testSessionResumeDedupe(t, format) })
	}
}

func testSessionResumeDedupe(t *testing.T, format parsefmt.Format) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	conn, _, token, lastSeq := rawSessionDial(t, srv.Addr().String(), format, 0)
	if token == 0 || lastSeq != 0 {
		t.Fatalf("fresh session grant token=%d lastSeq=%d", token, lastSeq)
	}
	p1 := genPayload(format, &gen, 0, 10)
	p2 := genPayload(format, &gen, 10, 10)
	p3 := genPayload(format, &gen, 20, 10)
	for i, p := range [][]byte{p1, p2} {
		if err := writeSeqFrame(conn, uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	awaitAck(t, conn, 2)
	conn.Close() // abrupt loss after both frames were acked

	conn2, _, token2, last2 := rawSessionDial(t, srv.Addr().String(), format, token)
	if token2 != token || last2 != 2 {
		t.Fatalf("resume grant token=%d lastSeq=%d, want %d/2", token2, last2, token)
	}
	if n := srv.Counters().SessionsResumed; n != 1 {
		t.Fatalf("SessionsResumed = %d, want 1", n)
	}
	// Replay seq 2 (a frame the server already ingested), then the new
	// frame: the dup is discarded, the new frame lands.
	if err := writeSeqFrame(conn2, 2, p2); err != nil {
		t.Fatal(err)
	}
	if err := writeSeqFrame(conn2, 3, p3); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, conn2, 3)
	if n := srv.Counters().DuplicateFrames; n != 1 {
		t.Fatalf("DuplicateFrames = %d, want 1", n)
	}

	// A sequence gap severs the connection so the client replays.
	if err := writeSeqFrame(conn2, 9, p3); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readCreditAck(conn2); err == nil {
		t.Fatal("server kept the connection across a sequence gap")
	}
	conn2.Close()

	// Resume once more and end the stream cleanly; the retired session
	// must then refuse a further resume.
	conn3, _, token3, last3 := rawSessionDial(t, srv.Addr().String(), format, token)
	if token3 != token || last3 != 3 {
		t.Fatalf("second resume grant token=%d lastSeq=%d, want %d/3", token3, last3, token)
	}
	if err := writeEOS(conn3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 0 }, "session retirement on EOS")
	conn3.Close()

	conn4, _, token4, _ := rawSessionDial(t, srv.Addr().String(), format, token)
	if token4 != 0 {
		t.Fatalf("retired session resumed (token %d)", token4)
	}
	conn4.Close()

	srv.Close()
	<-done
	if n := got.Load(); n != 30 {
		t.Fatalf("ingested %d records, want exactly 30 (no loss, no duplication)", n)
	}
}

// TestAcksCoalesceOverBufferedFrames sends 8 small PB frames in one
// write, so the server finds the later ones already buffered: it owes
// their credit and writes one ack for what it consumed, rather than one
// per frame. The credits still add up to the frames sent, no ack is
// empty, and the server's ack counter saw exactly the acks read.
func TestAcksCoalesceOverBufferedFrames(t *testing.T) {
	const frames = 8
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	conn, _, _, _ := rawSessionDial(t, srv.Addr().String(), parsefmt.PB, 0)
	defer conn.Close()
	var burst bytes.Buffer
	for seq := uint64(1); seq <= frames; seq++ {
		if err := writeSeqFrame(&burst, seq, genPayload(parsefmt.PB, &gen, int(seq-1)*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var acks, credits int
	for last := uint64(0); last < frames; {
		n, seq, err := readCreditAck(conn)
		if err != nil {
			t.Fatalf("ack %d: %v", acks+1, err)
		}
		if n < 1 {
			t.Fatalf("ack %d grants %d credits, want at least 1", acks+1, n)
		}
		acks++
		credits += int(n)
		last = seq
	}
	if credits != frames {
		t.Errorf("acks granted %d credits for %d frames", credits, frames)
	}
	if acks >= frames {
		t.Errorf("%d acks for %d buffered frames, want fewer", acks, frames)
	}
	t.Logf("%d frames, %d acks", frames, acks)
	srv.Close() // the handler has exited: its counts are final
	<-done
	if n := srv.acks.Load(); n != int64(acks) {
		t.Errorf("streambox_ingest_acks_total reads %d, %d acks were read", n, acks)
	}
	if n := got.Load(); n != frames*10 {
		t.Fatalf("ingested %d records, want %d", n, frames*10)
	}
}

// TestTakeoverWaitsForInFlightDelivery is the regression for the
// exactly-once hole in session takeover. Connection A holds a fully
// read, decoded frame 2 and is blocked pushing it into a stalled
// feed (queue full, no receiver) when connection B resumes the token.
// The grant used to be written at once from lastSeq = 1; A then pushed
// frame 2 anyway, the client replayed it to B as the grant asked, and
// the frame was ingested twice. Now B's grant waits for A's delivery
// and acknowledges frame 2, so the client has nothing to replay.
func TestTakeoverWaitsForInFlightDelivery(t *testing.T) {
	for _, format := range sessionFormats {
		t.Run(format.String(), func(t *testing.T) { testTakeoverWaitsForInFlightDelivery(t, format) })
	}
}

func testTakeoverWaitsForInFlightDelivery(t *testing.T, format parsefmt.Format) {
	feed := NewFeed(WireSchema(), 1)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	addr := srv.Addr().String()

	connA, _, token, _ := rawSessionDial(t, addr, format, 0)
	defer connA.Close()
	// Frame 1 fills the one-slot queue; frame 2 stalls in the push.
	if err := writeSeqFrame(connA, 1, genPayload(format, &gen, 0, 10)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, connA, 1)
	if err := writeSeqFrame(connA, 2, genPayload(format, &gen, 10, 10)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, srv.lookup(token).delivering, "connection A to stall delivering frame 2")

	connB := rawSessionRequest(t, addr, format, token)
	defer connB.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().SessionsResumed == 1 }, "connection B's resume")
	connB.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if g, err := readGrant(connB); err == nil {
		t.Fatalf("grant (lastSeq %d) written while frame 2 was still being delivered", g.lastSeq)
	}
	connB.SetReadDeadline(time.Time{})

	got, done := collect(feed) // resume the feed
	g, err := readGrant(connB)
	if err != nil || g.token != token || g.lastSeq != 2 {
		t.Fatalf("resume grant token=%d lastSeq=%d err=%v, want %d/2", g.token, g.lastSeq, err, token)
	}
	if err := writeSeqFrame(connB, 3, genPayload(format, &gen, 20, 10)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, connB, 3)
	srv.Close()
	<-done
	if n := got.Load(); n != 30 {
		t.Fatalf("ingested %d records, want exactly 30: frame 2 must be delivered once", n)
	}
	if n := srv.Counters().DuplicateFrames; n != 0 {
		t.Fatalf("DuplicateFrames = %d, want 0", n)
	}
}

// TestOverloadShedsNewConns pins admission control: handshakes past
// MaxConns (or while ShedPressure holds) are refused with a
// statusOverloaded grant that surfaces as ErrOverloaded.
func TestOverloadShedsNewConns(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)

	c1, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dial past MaxConns: %v, want ErrOverloaded", err)
	}
	if n := srv.Counters().ShedConns; n != 1 {
		t.Fatalf("ShedConns = %d, want 1", n)
	}
	// A reconnecting client retries and still surfaces the shed.
	if _, err := Dial(srv.Addr().String(), ClientConfig{
		Format:    parsefmt.PB,
		Reconnect: &ReconnectConfig{MaxRetries: 2, BaseDelay: time.Millisecond},
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("retried dial past MaxConns: %v, want ErrOverloaded", err)
	}
	// Freeing the slot admits the next dial.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveConns == 0 }, "slot to free")
	c3, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	c3.Close()
	srv.Close()
	<-done

	// Pressure-driven shedding, independent of the connection cap.
	feed2 := NewFeed(WireSchema(), 8)
	var pressured atomic.Bool
	pressured.Store(true)
	srv2, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed2, ShedPressure: pressured.Load})
	if err != nil {
		t.Fatal(err)
	}
	_, done2 := collect(feed2)
	if _, err := Dial(srv2.Addr().String(), ClientConfig{Format: parsefmt.PB}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dial under pressure: %v, want ErrOverloaded", err)
	}
	pressured.Store(false)
	c4, err := Dial(srv2.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatalf("dial after pressure cleared: %v", err)
	}
	c4.Close()
	srv2.Close()
	<-done2
}

// TestUnloggableSessionIsRefused: a fresh session whose open record the
// log refuses is never granted. The hello is answered overloaded, and
// the session and its watermark cursor are undone.
func TestUnloggableSessionIsRefused(t *testing.T) {
	log, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	log.Close() // every append fails from here on
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	if _, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dial against a log that cannot record the session: %v, want ErrOverloaded", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		c := srv.Counters()
		live, _ := feed.liveCursors()
		return c.ActiveSessions == 0 && c.ActiveConns == 0 && live == 0
	}, "the refused session to be undone")
	srv.Close()
	<-done
}

// TestHungConnectionParksCursor pins stale-cursor expiry: a dead
// session's cursor first stalls the watermark (grace), then is parked
// so the watermark advances past it, and un-parks when the session
// resumes.
func TestHungConnectionParksCursor(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed: feed,
		// Long enough that B's whole stream lands inside it on a loaded
		// two-CPU box: the first check below races this timer.
		CursorGrace:    500 * time.Millisecond,
		SessionTimeout: 10 * time.Second, // expiry out of the picture here
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	// Session A delivers window-0 records, then goes silent.
	connA, _, token, _ := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, 0)
	if err := writeSeqFrame(connA, 1, genPayload(parsefmt.Columnar, &gen, 0, 100)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, connA, 1)
	connA.Close()

	// Connection B streams far past window 0.
	cB, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.Columnar, FrameRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := cB.Send(gen.Records(0, 10_000)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().IngestedRecords == 10_100 }, "B's records to land")

	// Within the grace period A's cursor still holds the watermark at
	// window 0.
	if w := feed.Watermark(); w >= WindowTicks {
		t.Fatalf("watermark %d advanced past the hung cursor before the grace period", w)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ParkedCursors == 1 }, "hung cursor to park")
	if w := feed.Watermark(); w < 50*WindowTicks {
		t.Fatalf("watermark %d still stalled after the cursor parked", w)
	}

	// Resuming un-parks the cursor: the watermark drops back to the
	// session's own position.
	connA2, _, token2, last2 := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, token)
	if token2 != token || last2 != 1 {
		t.Fatalf("resume grant token=%d lastSeq=%d", token2, last2)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ParkedCursors == 0 }, "cursor to un-park on resume")
	if w := feed.Watermark(); w >= WindowTicks {
		t.Fatalf("watermark %d ignores the resumed session's cursor", w)
	}
	if err := writeEOS(connA2); err != nil { // clean EOS retires the session
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 1 }, "session retirement (B's stays)")
	connA2.Close()
	cB.Close()
	srv.Close()
	<-done
}

// TestSessionExpiryRetiresCursor pins the second deadline: a session
// whose client never comes back is expired outright, its cursor
// removed, and a late resume is refused.
func TestSessionExpiryRetiresCursor(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:           feed,
		CursorGrace:    30 * time.Millisecond,
		SessionTimeout: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	conn, _, token, _ := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, 0)
	if err := writeSeqFrame(conn, 1, genPayload(parsefmt.Columnar, &gen, 0, 10)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, conn, 1)
	conn.Close()

	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ExpiredSessions == 1 }, "session expiry")
	if total, _ := feed.liveCursors(); total != 0 {
		t.Fatalf("%d cursors live after expiry", total)
	}
	conn2, _, token2, _ := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, token)
	if token2 != 0 {
		t.Fatalf("expired session resumed (token %d)", token2)
	}
	conn2.Close()
	srv.Close()
	<-done
}

// cutProxy forwards TCP connections to a target, cutting the Nth
// accepted connection after its byte budget (client→server direction)
// is spent. Budgets beyond the list are unlimited. With flipConn set,
// it flips bit flipBit of that connection's grant (counted from 1). ups
// counts what each connection carried client→server.
type cutProxy struct {
	ln       net.Listener
	target   string
	budgets  []int64
	mu       sync.Mutex
	next     int
	flipConn int
	flipBit  int
	ups      []*countingConn
	wg       sync.WaitGroup
}

func startCutProxy(t *testing.T, target string, budgets ...int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target, budgets: budgets}
	p.wg.Add(1)
	go p.acceptLoop()
	return p
}

func (p *cutProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		budget := int64(-1)
		if p.next < len(p.budgets) {
			budget = p.budgets[p.next]
		}
		p.next++
		flip := -1
		if p.next == p.flipConn {
			flip = p.flipBit
		}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn, budget, flip)
	}
}

func (p *cutProxy) pipe(client net.Conn, budget int64, flip int) {
	defer p.wg.Done()
	conn, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	server := &countingConn{Conn: conn}
	p.mu.Lock()
	p.ups = append(p.ups, server)
	p.mu.Unlock()
	go func() {
		if flip >= 0 {
			var g [grantBytes]byte
			if _, err := io.ReadFull(server.Conn, g[:]); err == nil {
				g[flip/8] ^= 1 << (flip % 8)
				client.Write(g[:])
			}
		}
		io.Copy(client, server.Conn) // server→client: acks flow freely
		client.Close()
	}()
	if budget < 0 {
		io.Copy(server, client)
	} else {
		io.CopyN(server, client, budget)
	}
	server.Close()
	client.Close()
}

// upBytes is what the proxy carried client→server over every
// connection; call it after Close.
func (p *cutProxy) upBytes() (n int) {
	for _, c := range p.ups {
		n += c.writtenBytes
	}
	return n
}

func (p *cutProxy) Close() {
	p.ln.Close()
	p.wg.Wait()
}

// TestClientReconnectResumeExactlyOnce drives the real client through
// deterministic mid-stream connection cuts (via a byte-budgeted proxy)
// and asserts the stream arrives complete and exactly once.
func TestClientReconnectResumeExactlyOnce(t *testing.T) {
	for _, format := range sessionFormats {
		t.Run(format.String(), func(t *testing.T) { testClientReconnectResumeExactlyOnce(t, format) })
	}
}

func testClientReconnectResumeExactlyOnce(t *testing.T, format parsefmt.Format) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	// Cut the first three connections 8, 11 and 20 KiB in: mid-frame or
	// within a frame or two of a boundary, whatever the format's frame
	// size (64 rows are ≈ 3.6 KiB columnar, ≈ 1.3 KiB PB).
	proxy := startCutProxy(t, srv.Addr().String(), 8<<10, 11<<10, 20<<10)
	defer proxy.Close()

	c, err := Dial(proxy.ln.Addr().String(), ClientConfig{
		Format:       format,
		FrameRecords: 64,
		Reconnect: &ReconnectConfig{
			MaxRetries: 20,
			BaseDelay:  time.Millisecond,
			MaxDelay:   10 * time.Millisecond,
			Seed:       7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	const total = 20_000
	if err := c.Send(gen.Records(0, total)); err != nil {
		t.Fatalf("send across cuts: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := c.Reconnects(); n < 3 {
		t.Fatalf("Reconnects = %d, want >= 3 (one per cut budget)", n)
	}
	if n := c.Replayed(); n < 1 {
		t.Fatalf("Replayed = %d, want >= 1", n)
	}
	srv.Close()
	<-done
	if n := got.Load(); n != total {
		t.Fatalf("ingested %d records, want exactly %d (no loss, no duplication)", n, total)
	}
	ctr := srv.Counters()
	if ctr.SessionsResumed < 3 {
		t.Fatalf("SessionsResumed = %d, want >= 3", ctr.SessionsResumed)
	}
	if total, _ := feed.liveCursors(); total != 0 {
		t.Fatalf("%d cursors leaked", total)
	}
}

// TestDamagedGrantRedials: a grant with one bit flipped in any of its
// fields — credits, token, resume sequence, column mask — fails its
// checksum, and the client redials instead of acting on it. The proxy
// cuts the first connection mid-stream and damages the second one's
// grant, a resume; the third resumes intact and the stream lands exactly
// once, over a feed of three wire columns.
func TestDamagedGrantRedials(t *testing.T) {
	for _, field := range []struct {
		name string
		bit  int
	}{
		{"credits", 7 * 8},
		{"token", 15*8 + 3},
		{"resume sequence", 23*8 + 1},
		{"column mask", 27*8 + 2},
	} {
		t.Run(field.name, func(t *testing.T) {
			feed := NewFeed(ProjectSchema(narrowFields), 64)
			srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
			if err != nil {
				t.Fatal(err)
			}
			got, done := collect(feed)
			proxy := startCutProxy(t, srv.Addr().String(), 2<<10)
			proxy.mu.Lock()
			proxy.flipConn, proxy.flipBit = 2, field.bit
			proxy.mu.Unlock()
			c, err := Dial(proxy.ln.Addr().String(), ClientConfig{
				Format: parsefmt.Columnar, FrameRecords: 16,
				Reconnect: &ReconnectConfig{MaxRetries: 5, BaseDelay: time.Millisecond, Seed: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			const total = 1024
			if err := c.Send(RecordGen{Keys: 8, WindowRecords: 1024}.Records(0, total)); err != nil {
				t.Fatalf("send: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			proxy.Close()
			srv.Close()
			<-done
			if n := got.Load(); n != total {
				t.Fatalf("ingested %d records, want exactly %d", n, total)
			}
			if proxy.next != 3 || c.Reconnects() != 1 {
				t.Fatalf("%d connections, %d reconnects; want the damaged grant's connection redialed once", proxy.next, c.Reconnects())
			}
		})
	}
}

// TestDamagedAckResumes: an ack that fails its checksum is never
// applied. The server reads frames 1-3, ingests only the first, and
// acks it with one bit of the cumulative sequence flipped, so the ack
// claims frame 3 — still within what the client sent, so the range
// check alone would trim two frames the server never ingested. The
// client must instead end the connection's credit stream, resume at the
// grant's sequence 1 and replay, so every frame lands exactly once.
func TestDamagedAckResumes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var ingested []uint64
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(first bool) {
				defer conn.Close()
				if _, _, _, err := readHello(conn); err != nil {
					return
				}
				mu.Lock()
				last := uint64(len(ingested))
				mu.Unlock()
				if writeGrant(conn, grant{status: statusOK, credits: 64, token: 42, lastSeq: last, fields: parsefmt.AllFields}) != nil {
					return
				}
				for {
					size, seq, eos, err := readFrameHeader(conn)
					if err != nil || eos {
						return
					}
					if _, err := io.CopyN(io.Discard, conn, size); err != nil {
						return
					}
					if first {
						if seq < 3 {
							if seq == 1 {
								mu.Lock()
								ingested = append(ingested, seq)
								mu.Unlock()
							}
							continue
						}
						var ack bytes.Buffer
						writeCreditAck(&ack, 1, 1)
						ack.Bytes()[11] ^= 0x02 // lastSeq 1 → 3
						conn.Write(ack.Bytes())
						return
					}
					mu.Lock()
					switch {
					case seq == last+1:
						ingested = append(ingested, seq)
						last = seq
					case seq > last+1:
						mu.Unlock()
						return // gap: sever
					}
					mu.Unlock()
					if writeCreditAck(conn, 1, last) != nil {
						return
					}
				}
			}(first)
		}
	}()

	c, err := Dial(ln.Addr().String(), ClientConfig{
		Format: parsefmt.Columnar, FrameRecords: 16, ReplayFrames: 4,
		WriteTimeout: 5 * time.Second,
		Reconnect:    &ReconnectConfig{MaxRetries: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		err := c.Send(RecordGen{Keys: 8, WindowRecords: 1024}.Records(0, 128))
		if err == nil {
			err = c.Close()
		}
		sent <- err
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send and close: %v", err)
		}
	case <-time.After(10 * time.Second):
		// A trimmed replay ring resumes at a gap the server severs, over
		// and over.
		t.Fatal("stream not delivered after 10s")
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}; !slices.Equal(ingested, want) {
		t.Fatalf("server ingested frames %v, want %v", ingested, want)
	}
	if c.Reconnects() != 1 {
		t.Fatalf("%d reconnects, want 1", c.Reconnects())
	}
}

// TestGrantOutsideAckRangeRedials: the client accepts a grant only at a
// resume point it can account for, acked <= lastSeq <= maxTx: zero on a
// fresh session. A fresh grant claiming frame 7 used to number the first
// frame 8; the server, expecting 1, severed on the gap, and every resume
// rewound to the same wrong ack. Such a grant is now treated like a
// damaged ack. A raw listener answers the first hello with lastSeq 7 and
// every later one with 0: without Reconnect Dial fails, and with it the
// client redials once and streams from frame 1.
func TestGrantOutsideAckRangeRedials(t *testing.T) {
	listen := func() (addr string, hellos *atomic.Int32, first chan uint64) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		hellos, first = new(atomic.Int32), make(chan uint64, 1)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					_, token, _, err := readHello(conn)
					if err != nil {
						return
					}
					g := grant{status: statusOK, credits: 16, token: 42, fields: parsefmt.AllFields}
					if hellos.Add(1) == 1 {
						g.lastSeq = 7
					}
					if token != 0 && token != g.token || writeGrant(conn, g) != nil {
						return
					}
					if _, seq, _, err := readFrameHeader(conn); err == nil {
						first <- seq
					}
					io.Copy(io.Discard, conn)
				}()
			}
		}()
		return ln.Addr().String(), hellos, first
	}

	addr, _, _ := listen()
	if c, err := Dial(addr, ClientConfig{Format: parsefmt.Columnar}); err == nil {
		c.conn.Close()
		t.Fatal("Dial accepted a fresh grant that resumes after frame 7")
	}

	addr, hellos, first := listen()
	c, err := Dial(addr, ClientConfig{
		Format:    parsefmt.Columnar,
		Reconnect: &ReconnectConfig{MaxRetries: 1, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("Dial with Reconnect: %v", err)
	}
	defer c.conn.Close()
	if n := hellos.Load(); n != 2 {
		t.Fatalf("%d hellos, want 2: the refused grant and one redial", n)
	}
	if err := c.Send(RecordGen{Keys: 8, WindowRecords: 1024}.Records(0, 16)); err != nil {
		t.Fatal(err)
	}
	select {
	case seq := <-first:
		if seq != 1 {
			t.Fatalf("first frame carries seq %d, want 1", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the server")
	}
}
