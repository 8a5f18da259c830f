package netio

import (
	"bufio"
	"bytes"
	"net"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

var stageLabel = regexp.MustCompile(`^# labels: .*"stage":"([a-z]+)"`)

// goroutineStages returns, per record of the goroutine profile, the
// stage label its goroutines carry ("" for none) and their frames.
func goroutineStages(t *testing.T) (stages []string, stacks [][]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		stage, frames := "", []string(nil)
		for _, line := range strings.Split(rec, "\n") {
			if m := stageLabel.FindStringSubmatch(line); m != nil {
				stage = m[1]
			} else if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && strings.HasPrefix(f[1], "0x") {
				fn, _, _ := strings.Cut(f[2], "+0x")
				frames = append(frames, fn)
			}
		}
		stages, stacks = append(stages, stage), append(stacks, frames)
	}
	return stages, stacks
}

// waitStage waits for a goroutine whose stack names every one of fns,
// then requires each such goroutine to carry stage want.
func waitStage(t *testing.T, want string, fns ...string) {
	t.Helper()
	match := func(frames []string) bool {
		for _, fn := range fns {
			if !slices.ContainsFunc(frames, func(f string) bool { return strings.Contains(f, fn) }) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		stages, stacks := goroutineStages(t)
		found := false
		for i, frames := range stacks {
			if match(frames) {
				found = true
				if stages[i] != want {
					t.Errorf("goroutine in stage %q, want %q:\n\t%s", stages[i], want, strings.Join(frames, "\n\t"))
				}
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine in %v where stage %q runs", fns, want)
		}
	}
}

// TestStageLabels parks a goroutine in each stage of the ingest server
// and client and reads its CPU-profile label off the goroutine profile:
// the acceptor (accept), the reaper (reap), a handler waiting for a
// hello and for a frame (read), settling credit (ack — parked in the
// Overloaded callback) and pushing into a full feed (push), and the
// client's credit loop (credit); then the steps that never wait
// (frameSteps) and the log appends (walSteps).
func TestStageLabels(t *testing.T) {
	feed := NewFeed(WireSchema(), 1) // nothing drains it: the second batch waits
	var overloaded sync.Once
	parked, release := make(chan struct{}), make(chan struct{})
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed: feed,
		Overloaded: func() bool {
			overloaded.Do(func() { close(parked) })
			<-release
			return false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c *Client
	defer func() {
		srv.Close() // unblocks the push before the client waits for its acks
		if c != nil {
			c.Close()
		}
		feed.Reclaim()
	}()
	addr := srv.Addr().String()
	waitStage(t, "accept", "(*Server).acceptLoop")
	waitStage(t, "reap", "(*Server).reaper")

	hello, err := net.Dial("tcp", addr) // connected, hello never sent
	if err != nil {
		t.Fatal(err)
	}
	defer hello.Close()
	waitStage(t, "read", "(*Server).handle", "readHello")

	// The first connection to settle credit parks in Overloaded.
	if c, err = Dial(addr, ClientConfig{Format: parsefmt.Columnar, FrameRecords: 10}); err != nil {
		t.Fatal(err)
	}
	<-parked
	waitStage(t, "ack", "(*Server).flushCredit", "TestStageLabels")
	close(release)
	waitStage(t, "read", "(*Server).serveFrames", "readFrameHeader")
	waitStage(t, "credit", "(*Client).creditLoop")

	gen := RecordGen{Keys: 4, WindowRecords: 100}
	if err := c.Send(gen.Records(0, 30)); err != nil { // three frames into a one-batch feed
		t.Fatal(err)
	}
	waitStage(t, "push", "(*Server).deliver", "(*Feed).push")

	frameSteps(t)
	walSteps(t)
}

// frameSteps checks the stages of a frame's steps that never wait, each
// run on a goroutine of its own that then parks: decode of either
// format, a push into a feed with room, and the frame loop's read of a
// header already buffered behind a delivered frame.
func frameSteps(t *testing.T) {
	feed := NewFeed(WireSchema(), 4)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, IdleTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		feed.Reclaim()
	}()
	newConn := func(key int64, conn net.Conn) *serverConn {
		c := &serverConn{key: key, id: key, conn: conn, format: parsefmt.Columnar, sess: &session{}}
		c.sess.core.owner = key
		return c
	}
	gen := RecordGen{Keys: 4, WindowRecords: 100}
	columnar := genPayload(parsefmt.Columnar, &gen, 0, 10)
	decode := func(c *serverConn, payload []byte) ([][]uint64, uint64) {
		br := bufio.NewReader(bytes.NewReader(payload))
		var cols [][]uint64
		var maxTs uint64
		var ok bool
		if c.format == parsefmt.Columnar {
			cols, maxTs, ok = srv.decodeColumnar(c, &frameDecoder{}, br, int64(len(payload)))
		} else {
			cols, maxTs, ok = srv.decodeRecords(c, &frameDecoder{}, br, int64(len(payload)))
		}
		if !ok || cols == nil {
			t.Error("frame did not decode")
		}
		return cols, maxTs
	}

	c := newConn(1, nil)
	stageAfter(t, "decode", func() { feed.Recycle(first(decode(c, columnar))) })
	pb := newConn(2, nil)
	pb.format = parsefmt.PB
	stageAfter(t, "decode", func() { feed.Recycle(first(decode(pb, genPayload(parsefmt.PB, &gen, 0, 10)))) })
	stageAfter(t, "push", func() {
		cols, maxTs := decode(c, columnar)
		if !srv.deliver(c, 0, maxTs, cols, nil) {
			t.Error("delivery into a feed with room failed")
		}
	})

	// Two frames in the read buffer: after delivering the first, the
	// loop arms the idle deadline for the second, where parkingConn
	// holds it. No ack is owed before then; the one owed after it fails
	// on the closed pipe and ends the loop.
	local, remote := net.Pipe()
	remote.Close()
	pc := &parkingConn{Conn: local, release: make(chan struct{})}
	var wire bytes.Buffer
	writeSeqFrame(&wire, 0, columnar)
	writeSeqFrame(&wire, 1, columnar)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveFrames(newConn(3, pc), bufio.NewReaderSize(&wire, readBufferBytes))
	}()
	waitStage(t, "read", "(*Server).serveFrames", "(*parkingConn).SetReadDeadline")
	close(pc.release)
	<-done
}

func first(cols [][]uint64, _ uint64) [][]uint64 { return cols }

// walSteps checks the wal stage through a log already closed: an append
// fails there, and the handler stops in the stage it entered for it. A
// frame's delivery returns at once; a fresh session's handshake parks
// writing its refusal into a pipe nobody reads.
func walSteps(t *testing.T) {
	log, err := wal.Open(wal.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	feed := NewFeed(WireSchema(), 4)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, WAL: log})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		feed.Reclaim()
	}()
	gen := RecordGen{Keys: 4, WindowRecords: 100}
	columnar := genPayload(parsefmt.Columnar, &gen, 0, 10)
	c := &serverConn{key: 1, id: 1, format: parsefmt.Columnar, sess: &session{}}
	c.sess.core.owner = c.key
	stageAfter(t, "wal", func() {
		cols, maxTs, ok := srv.decodeColumnar(c, &frameDecoder{}, bufio.NewReader(bytes.NewReader(columnar)), int64(len(columnar)))
		if !ok || srv.deliver(c, 0, maxTs, cols, nil) {
			t.Error("a frame was delivered past a closed log")
		}
	})

	local, remote := net.Pipe()
	srv.wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(local)
	}()
	if err := writeHello(remote, parsefmt.Columnar, 0); err != nil {
		t.Fatal(err)
	}
	waitStage(t, "wal", "(*Server).handle", "writeGrant")
	remote.Close()
	<-done
}

// stageAfter runs step on a goroutine of its own, which then parks, and
// requires the stage step left it in to be want.
func stageAfter(t *testing.T, want string, step func()) {
	t.Helper()
	stepped, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		step()
		close(stepped)
		<-release
	}()
	<-stepped
	waitStage(t, want, "stageAfter.func")
	close(release)
	<-done
}

// parkingConn parks every SetReadDeadline after its first until release
// closes.
type parkingConn struct {
	net.Conn
	calls   atomic.Int32
	release chan struct{}
}

func (p *parkingConn) SetReadDeadline(time.Time) error {
	if p.calls.Add(1) > 1 {
		<-p.release
	}
	return nil
}
