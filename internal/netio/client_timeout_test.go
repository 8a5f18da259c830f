package netio

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"streambox/internal/parsefmt"
)

// startMuteServer runs a protocol-correct but mute server for one
// connection: it completes the handshake, then swallows every data
// frame without ever writing an ack.
func startMuteServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if fakeGrant(conn, 64) != nil {
			return
		}
		for {
			size, _, eos, err := readFrameHeader(conn)
			if err != nil || eos {
				return
			}
			if _, err := io.CopyN(io.Discard, conn, size); err != nil {
				return
			}
		}
	}()
	return ln
}

// TestCloseAckDrainTimeout pins the bounded ack drain: a server that
// accepts frames but never acks them (died mid-drain behind a proxy,
// wedged disk) must not park Close forever. The drain fails with a
// typed *TimeoutError once no ack arrives for a full WriteTimeout. (With
// no write deadline the bound is the 10 s handshake timeout, which
// TestSessionCores checks under a virtual clock.)
func TestCloseAckDrainTimeout(t *testing.T) {
	const bound = 150 * time.Millisecond
	t.Run("WriteTimeout", func(t *testing.T) {
		ln := startMuteServer(t)
		defer ln.Close()
		c, err := Dial(ln.Addr().String(), ClientConfig{
			Format:       parsefmt.Columnar,
			FrameRecords: 16,
			WriteTimeout: bound,
			Reconnect:    &ReconnectConfig{MaxRetries: 1, BaseDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := RecordGen{Keys: 8, WindowRecords: 1024}
		if err := c.Send(gen.Records(0, 64)); err != nil {
			t.Fatalf("send: %v", err)
		}

		closed := make(chan error, 1)
		go func() { closed <- c.Close() }()
		select {
		case err = <-closed:
		case <-time.After(3 * time.Second):
			t.Fatal("Close still draining acks after 3s against a server that never acks")
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("Close = %v, want a *TimeoutError", err)
		}
		if te.Op != "ack drain" || te.After != bound {
			t.Fatalf("TimeoutError %+v, want Op %q After %s", te, "ack drain", bound)
		}
	})
}

// TestReplayBufferFullTimeout pins the bounded replay-buffer wait: a
// server that takes the hello, reads frames and never acks used to park
// Send forever once ReplayFrames unacked frames were buffered. The wait
// now expires after WriteTimeout (the 10 s handshake timeout without
// one, which TestSessionCores checks) and the connection is treated as
// dead: without Reconnect Send fails with
// ErrReplayOverflow wrapping a *TimeoutError; with it the client redials,
// resumes and replays, and Send completes.
func TestReplayBufferFullTimeout(t *testing.T) {
	gen := RecordGen{Keys: 8, WindowRecords: 1024}
	send := func(t *testing.T, c *Client) error {
		t.Helper()
		sent := make(chan error, 1)
		go func() { sent <- c.Send(gen.Records(0, 64)) }() // 4 frames, 2 buffered
		select {
		case err := <-sent:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("Send still blocked on a full replay buffer after 5s against a server that never acks")
			return nil
		}
	}
	t.Run("WriteTimeout", func(t *testing.T) {
		const bound = 150 * time.Millisecond
		ln := startMuteServer(t)
		defer ln.Close()
		c, err := Dial(ln.Addr().String(), ClientConfig{
			Format: parsefmt.Columnar, FrameRecords: 16, ReplayFrames: 2,
			WriteTimeout: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.conn.Close()
		err = send(t, c)
		var te *TimeoutError
		if !errors.Is(err, ErrReplayOverflow) || !errors.As(err, &te) || te.After != bound {
			t.Fatalf("Send = %v, want ErrReplayOverflow wrapping a *TimeoutError after %s", err, bound)
		}
	})

	t.Run("Reconnect", func(t *testing.T) {
		// The first connection is mute; every later one resumes the
		// session at what the client already sent and acks each frame.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for n := 0; ; n++ {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					if fakeGrant(conn, 64) != nil {
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
						if n > 0 && writeCreditAck(conn, 1, seq) != nil {
							return
						}
					}
				}()
			}
		}()
		c, err := Dial(ln.Addr().String(), ClientConfig{
			Format: parsefmt.Columnar, FrameRecords: 16, ReplayFrames: 2,
			WriteTimeout: 100 * time.Millisecond,
			Reconnect:    &ReconnectConfig{MaxRetries: 3, BaseDelay: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := send(t, c); err != nil {
			t.Fatalf("Send across the silent connection: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if c.Reconnects() != 1 || c.Replayed() != 2 {
			t.Fatalf("%d reconnects, %d frames replayed, want 1 and 2", c.Reconnects(), c.Replayed())
		}
	})
}
