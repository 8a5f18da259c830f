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
// connection: it completes the handshake and the session grant, then
// swallows every data frame without ever writing an ack.
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
		if _, _, err := readHello(conn); err != nil {
			return
		}
		if writeAck(conn, statusOK, 64) != nil {
			return
		}
		if _, err := readResume(conn); err != nil {
			return
		}
		if writeSessionGrant(conn, 42, 0) != nil {
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
// typed *TimeoutError once no ack arrives for a full WriteTimeout — or,
// with no write deadline configured, a full DialTimeout.
func TestCloseAckDrainTimeout(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		writeTimeout, dialTimeout time.Duration
		bound                     time.Duration
	}{
		{"WriteTimeout", 150 * time.Millisecond, 0, 150 * time.Millisecond},
		{"DialTimeout", 0, 50 * time.Millisecond, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := startMuteServer(t)
			defer ln.Close()
			c, err := Dial(ln.Addr().String(), ClientConfig{
				Format:       parsefmt.Columnar,
				FrameRecords: 16,
				WriteTimeout: tc.writeTimeout,
				DialTimeout:  tc.dialTimeout,
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
			if te.Op != "ack drain" || te.After != tc.bound {
				t.Fatalf("TimeoutError %+v, want Op %q After %s", te, "ack drain", tc.bound)
			}
		})
	}
}
