package netio

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/parsefmt"
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

// genColumnarPayload builds one columnar frame payload holding records
// [lo, lo+n) of gen.
func genColumnarPayload(gen *RecordGen, lo, n int) []byte {
	cols := make([][]uint64, 7)
	for i := lo; i < lo+n; i++ {
		rc := gen.ColsAt(uint64(i))
		for k := range cols {
			cols[k] = append(cols[k], rc[k])
		}
	}
	return parsefmt.EncodeColumnarFrame(cols)
}

// rawSessionRequest runs the version-3 session handshake by hand up to
// and including the resume request, leaving the grant unread.
func rawSessionRequest(t *testing.T, addr string, token uint64) (conn net.Conn, credits int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, parsefmt.Columnar, Version, helloFlagSession); err != nil {
		t.Fatal(err)
	}
	credits, version, err := readAck(conn)
	if err != nil {
		t.Fatal(err)
	}
	if version < 3 {
		t.Fatalf("negotiated version %d, want >= 3", version)
	}
	if err := writeResume(conn, token); err != nil {
		t.Fatal(err)
	}
	return conn, credits
}

// rawSessionDial runs the full version-3 session handshake by hand and
// returns the raw connection plus the grant. A zero returned token
// means the server refused the resume (unknown/expired session).
func rawSessionDial(t *testing.T, addr string, token uint64) (conn net.Conn, credits int, gotToken, lastSeq uint64) {
	t.Helper()
	conn, credits = rawSessionRequest(t, addr, token)
	gotToken, lastSeq, err := readSessionGrant(conn)
	if err != nil {
		t.Fatal(err)
	}
	return conn, credits, gotToken, lastSeq
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
// with IdleTimeout set a silent connection is severed and its cursor
// retired; with it unset (the old behavior) silence is tolerated.
func TestIdleTimeoutClosesSilentConn(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, IdleTimeout: 50 * time.Millisecond})
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
		if _, _, _, _, err := readHello(conn, Version); err != nil {
			conn.Close()
			return
		}
		writeAck(conn, 2, statusOK, 0xFFFF)
		accepted <- conn
	}()

	c, err := Dial(ln.Addr().String(), ClientConfig{
		Format:       parsefmt.Columnar,
		FrameRecords: 4096,
		WriteTimeout: 150 * time.Millisecond,
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
// several byte offsets — and asserts the server retires each cursor,
// counts only the complete frames, and leaks nothing.
func TestAbruptDisconnectMatrix(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	const frameRecs = 32
	payload := genColumnarPayload(&gen, 0, frameRecs)
	// One full wire frame: length prefix + payload.
	var frame []byte
	frame = append(frame, byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
	frame = append(frame, payload...)

	handshake := func(tc *testing.T) net.Conn {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			tc.Fatal(err)
		}
		if err := writeHello(conn, parsefmt.Columnar, Version, 0); err != nil {
			tc.Fatal(err)
		}
		if _, _, err := readAck(conn); err != nil {
			tc.Fatal(err)
		}
		return conn
	}
	settle := func(tc *testing.T) {
		waitFor(tc, 5*time.Second, func() bool {
			total, _ := feed.liveCursors()
			return srv.Counters().ActiveConns == 0 && total == 0
		}, "cursor retirement after abrupt disconnect")
	}

	t.Run("mid-handshake", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("SBX"))
		conn.Close()
		settle(t)
	})

	for _, fullFrames := range []int{0, 1, 2} {
		t.Run("frame-boundary", func(t *testing.T) {
			before := srv.Counters().IngestedRecords
			conn := handshake(t)
			for i := 0; i < fullFrames; i++ {
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
			}
			conn.Close()
			settle(t)
			waitFor(t, 5*time.Second, func() bool {
				return srv.Counters().IngestedRecords-before == int64(fullFrames*frameRecs)
			}, "complete frames ingested")
		})
	}

	for _, cut := range []int{1, 3, 5, 4 + 11, 4 + parsefmt.ColumnarHeaderBytes + 3, len(frame) - 1} {
		t.Run("mid-frame", func(t *testing.T) {
			before := srv.Counters().IngestedRecords
			conn := handshake(t)
			// One full frame, then a truncated second one.
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			conn.Write(frame[:cut])
			conn.Close()
			settle(t)
			waitFor(t, 5*time.Second, func() bool {
				return srv.Counters().IngestedRecords-before == int64(frameRecs)
			}, "only the complete frame ingested")
		})
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
	_ = got
}

// TestSessionResumeDedupe drives the resume protocol by hand: frames
// acked under a dead connection are replayed and discarded by seq
// dedup, a sequence gap severs the connection, and a retired session
// refuses to resume.
func TestSessionResumeDedupe(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	conn, _, token, lastSeq := rawSessionDial(t, srv.Addr().String(), 0)
	if token == 0 || lastSeq != 0 {
		t.Fatalf("fresh session grant token=%d lastSeq=%d", token, lastSeq)
	}
	p1 := genColumnarPayload(&gen, 0, 10)
	p2 := genColumnarPayload(&gen, 10, 10)
	p3 := genColumnarPayload(&gen, 20, 10)
	// In sequence order: the server severs on any gap, and map
	// iteration order would make the first write a coin flip.
	for seq, p := range []([]byte){1: p1, 2: p2} {
		if seq == 0 {
			continue
		}
		if err := writeSeqFrame(conn, uint64(seq), p); err != nil {
			t.Fatal(err)
		}
	}
	awaitAck(t, conn, 2)
	conn.Close() // abrupt loss after both frames were acked

	conn2, _, token2, last2 := rawSessionDial(t, srv.Addr().String(), token)
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
	conn3, _, token3, last3 := rawSessionDial(t, srv.Addr().String(), token)
	if token3 != token || last3 != 3 {
		t.Fatalf("second resume grant token=%d lastSeq=%d, want %d/3", token3, last3, token)
	}
	if err := writeFrame(conn3, nil); err != nil { // EOS
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 0 }, "session retirement on EOS")
	conn3.Close()

	conn4, _, token4, _ := rawSessionDial(t, srv.Addr().String(), token)
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

// TestTakeoverWaitsForInFlightDelivery is the regression for the
// exactly-once hole in session takeover. Connection A holds a fully
// read, checksummed frame 2 and is blocked pushing it into a stalled
// feed (queue full, no receiver) when connection B resumes the token.
// The grant used to be written at once from lastSeq = 1; A then pushed
// frame 2 anyway, the client replayed it to B as the grant asked, and
// the frame was ingested twice. Now B's grant waits for A's delivery
// and acknowledges frame 2, so the client has nothing to replay.
func TestTakeoverWaitsForInFlightDelivery(t *testing.T) {
	feed := NewFeed(WireSchema(), 1)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	addr := srv.Addr().String()

	connA, _, token, _ := rawSessionDial(t, addr, 0)
	defer connA.Close()
	// Frame 1 fills the one-slot queue; frame 2 stalls in the push.
	if err := writeSeqFrame(connA, 1, genColumnarPayload(&gen, 0, 10)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, connA, 1)
	p2 := genColumnarPayload(&gen, 10, 10)
	if err := writeSeqFrame(connA, 2, p2); err != nil {
		t.Fatal(err)
	}
	sess := srv.sessions.lookup(token)
	waitFor(t, 5*time.Second, func() bool {
		if sess.dmu.TryLock() {
			sess.dmu.Unlock()
			return false
		}
		return true
	}, "connection A to stall delivering frame 2")

	connB, _ := rawSessionRequest(t, addr, token)
	defer connB.Close()
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().SessionsResumed == 1 }, "connection B's resume")
	connB.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, last, err := readSessionGrant(connB); err == nil {
		t.Fatalf("grant (lastSeq %d) written while frame 2 was still being delivered", last)
	}
	connB.SetReadDeadline(time.Time{})

	got, done := collect(feed) // resume the feed
	tokenB, lastB, err := readSessionGrant(connB)
	if err != nil || tokenB != token || lastB != 2 {
		t.Fatalf("resume grant token=%d lastSeq=%d err=%v, want %d/2", tokenB, lastB, err, token)
	}
	if err := writeSeqFrame(connB, 3, genColumnarPayload(&gen, 20, 10)); err != nil {
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
// statusOverloaded ack that surfaces as ErrOverloaded.
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

// TestHungConnectionParksCursor pins stale-cursor expiry: a dead
// session's cursor first stalls the watermark (grace), then is parked
// so the watermark advances past it, and un-parks when the session
// resumes.
func TestHungConnectionParksCursor(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:           feed,
		CursorGrace:    80 * time.Millisecond,
		SessionTimeout: 10 * time.Second, // expiry out of the picture here
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	// Session A delivers window-0 records, then goes silent.
	connA, _, token, _ := rawSessionDial(t, srv.Addr().String(), 0)
	if err := writeSeqFrame(connA, 1, genColumnarPayload(&gen, 0, 100)); err != nil {
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
	connA2, _, token2, last2 := rawSessionDial(t, srv.Addr().String(), token)
	if token2 != token || last2 != 1 {
		t.Fatalf("resume grant token=%d lastSeq=%d", token2, last2)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ParkedCursors == 0 }, "cursor to un-park on resume")
	if w := feed.Watermark(); w >= WindowTicks {
		t.Fatalf("watermark %d ignores the resumed session's cursor", w)
	}
	if err := writeFrame(connA2, nil); err != nil { // clean EOS retires the session
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 0 }, "session retirement")
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

	conn, _, token, _ := rawSessionDial(t, srv.Addr().String(), 0)
	if err := writeSeqFrame(conn, 1, genColumnarPayload(&gen, 0, 10)); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, conn, 1)
	conn.Close()

	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ExpiredSessions == 1 }, "session expiry")
	if total, _ := feed.liveCursors(); total != 0 {
		t.Fatalf("%d cursors live after expiry", total)
	}
	conn2, _, token2, _ := rawSessionDial(t, srv.Addr().String(), token)
	if token2 != 0 {
		t.Fatalf("expired session resumed (token %d)", token2)
	}
	conn2.Close()
	srv.Close()
	<-done
}

// cutProxy forwards TCP connections to a target, cutting the Nth
// accepted connection after its byte budget (client→server direction)
// is spent. Budgets beyond the list are unlimited.
type cutProxy struct {
	ln      net.Listener
	target  string
	budgets []int64
	mu      sync.Mutex
	next    int
	wg      sync.WaitGroup
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
		p.mu.Unlock()
		p.wg.Add(1)
		go p.pipe(conn, budget)
	}
}

func (p *cutProxy) pipe(client net.Conn, budget int64) {
	defer p.wg.Done()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	go func() {
		io.Copy(client, server) // server→client: acks flow freely
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

func (p *cutProxy) Close() {
	p.ln.Close()
	p.wg.Wait()
}

// TestClientReconnectResumeExactlyOnce drives the real client through
// deterministic mid-stream connection cuts (via a byte-budgeted proxy)
// and asserts the stream arrives complete and exactly once.
func TestClientReconnectResumeExactlyOnce(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	// Cut the first connection mid-frame after 8 KiB, the second at
	// ~3 frames (64 rows ≈ 3.6 KiB each), the third mid-frame again.
	proxy := startCutProxy(t, srv.Addr().String(), 8<<10, 11<<10, 20<<10)
	defer proxy.Close()

	c, err := Dial(proxy.ln.Addr().String(), netioTestReconnectCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Session() {
		t.Fatal("client did not negotiate a session")
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

func netioTestReconnectCfg() ClientConfig {
	return ClientConfig{
		Format:       parsefmt.Columnar,
		FrameRecords: 64,
		Reconnect: &ReconnectConfig{
			MaxRetries: 20,
			BaseDelay:  time.Millisecond,
			MaxDelay:   10 * time.Millisecond,
			Seed:       7,
		},
	}
}
