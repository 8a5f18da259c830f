// Package netio turns the native backend into a network server: an
// ingest listener accepts TCP connections carrying length-prefixed,
// sequence-numbered frames of parsefmt-encoded records (columnar,
// binary, JSON or CSV, chosen in a small handshake), decodes them, and
// hands sealed batches to the runtime through its ExternalFeed seam.
// One frame loop serves every format; the format contributes only the
// decode step. Columnar frames land their payload bytes directly in
// mempool-backed column slabs — decode is validate + bounds-check +
// endian-fix + pointer-cast, with zero per-record work; row-format
// payloads are read into one per-connection buffer and run through the
// streaming decoders inline. A credit-based flow-control loop ties
// client send permission to the engine's mempool backpressure signal,
// so an overloaded pipeline slows its clients instead of buffering
// unboundedly (paper §7.4 treats ingestion as a first-class bottleneck;
// the ROADMAP north-star is a server for live traffic). The package
// also serves live query results (/windows) and engine metrics
// (/metrics) over HTTP, and provides the client used by
// cmd/sbx-loadgen.
//
// # Wire format
//
// There is one protocol: every stream is a resumable session.
// Handshake and framing integers are big-endian. The client opens with
// an 8-byte hello:
//
//	offset 0: magic "SBX1"
//	offset 4: protocol version (3)
//	offset 5: payload format: 0 JSON, 1 binary (PB), 2 text (CSV),
//	          3 columnar
//	offset 6: flags: bit 0 (session) must be set
//	offset 7: reserved (zero)
//
// The server answers with an 8-byte ack:
//
//	offset 0: magic "SBXA"
//	offset 4: protocol version (3)
//	offset 5: status: 0 OK, 1 bad magic/version/flags (including the
//	          retired version-1 and version-2 hellos and a version-3
//	          hello without the session flag), 2 unknown format,
//	          3 overloaded (admission control shed the handshake; back
//	          off and redial). Any status but OK is followed by a close.
//	offset 6: initial credit grant, uint16 (frames the client may send)
//
// The client follows an OK ack with a 12-byte resume request — magic
// "SBXR" then a uint64 session token, zero to open a fresh session —
// and the server answers with a 20-byte session grant: magic "SBXT",
// the uint64 session token (zero: the resumed session is unknown or
// expired and the connection is useless), and the uint64 sequence
// number of the last frame it fully ingested under that session.
//
// Then the client sends data frames — a uint32 payload length, a
// uint64 frame sequence number, and that many bytes of records in the
// hello's format; a bare zero length (no sequence number) marks a clean
// end of stream and retires the session — and the server sends 12-byte
// acks, each a uint32 credit count extending the client's send window
// by that many frames followed by the uint64 cumulative last-ingested
// sequence. The client must keep one credit per in-flight frame. For
// the columnar format, each frame payload is exactly one parsefmt
// columnar frame (24-byte checksummed header + little-endian
// column-major data; see parsefmt/columnar.go for the layout).
//
// Frames at or below the acked sequence are discarded by the server
// (duplicate replay after a resume), a gap above the expected sequence
// severs the connection so the client replays from its send buffer,
// and a columnar checksum or geometry failure severs WITHOUT advancing
// the ack so the replay re-delivers the damaged frame. A row frame
// that goes bad part-way keeps the records decoded before the damage
// and is acked: row formats carry no checksum, so a replay of the same
// bytes could not do better. A connection that ends without the
// end-of-stream marker leaves its session resumable; the server parks
// its watermark cursor after CursorGrace and expires it after
// SessionTimeout.
package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"streambox/internal/parsefmt"
)

// Version is the one wire protocol version this build speaks. The byte
// stays in the hello and the ack so a future protocol can be told from
// this one; versions 1 (row formats only) and 2 (plus columnar) are
// retired and refused at the handshake.
const Version = 3

var (
	magicHello   = [4]byte{'S', 'B', 'X', '1'}
	magicAck     = [4]byte{'S', 'B', 'X', 'A'}
	magicResume  = [4]byte{'S', 'B', 'X', 'R'}
	magicSession = [4]byte{'S', 'B', 'X', 'T'}
)

// Handshake statuses.
const (
	statusOK         = 0
	statusBadMagic   = 1
	statusBadFormat  = 2
	statusOverloaded = 3
)

// helloFlagSession is bit 0 of the hello's flags byte (offset 6). Every
// stream is a resumable session — sequenced frames, cumulative acks,
// the session-token exchange after the ack — so the bit must be set; a
// hello without it comes from a retired protocol mode and is refused.
const helloFlagSession = 1 << 0

// ErrOverloaded marks a handshake shed by the server's admission
// control (too many connections, or memory pressure past the shedding
// threshold). Clients with a ReconnectConfig back off and redial;
// others surface it.
var ErrOverloaded = errors.New("netio: server overloaded, connection shed")

// ErrSessionExpired marks a resume attempt whose session the server no
// longer remembers (expired past SessionTimeout, or already retired by
// a clean end of stream). Exactly-once resume is impossible: the client
// cannot know which of its unacked frames were ingested.
var ErrSessionExpired = errors.New("netio: session expired on server, cannot resume exactly-once")

// ErrReplayOverflow marks a send-side replay buffer that filled while
// the server withheld acks; the session can no longer guarantee replay
// of every unacked frame.
var ErrReplayOverflow = errors.New("netio: session replay buffer overflow")

// TimeoutError is the typed error for a client-side wait that missed
// its deadline: a frame write past ClientConfig.WriteTimeout, or a wait
// for the server's ack (Close's drain, a full replay buffer) making no
// progress. It unwraps via errors.As and
// implements the net.Error timeout contract.
type TimeoutError struct {
	Op    string
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("netio: %s timed out after %v", e.Op, e.After)
}

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// DefaultMaxFrameBytes caps one frame's payload unless ServerConfig
// overrides it.
const DefaultMaxFrameBytes = 4 << 20

// writeHello sends the client's 8-byte hello.
func writeHello(w io.Writer, f parsefmt.Format) error {
	var h [8]byte
	copy(h[:4], magicHello[:])
	h[4] = Version
	h[5] = byte(f)
	h[6] = helloFlagSession
	_, err := w.Write(h[:])
	return err
}

// readHello parses the client hello, distinguishing protocol errors by
// ack status: anything but a version-3 session hello (bad magic, a
// retired or future version, the session flag missing) is
// statusBadMagic; an unknown payload format is statusBadFormat.
func readHello(r io.Reader) (f parsefmt.Format, status byte, err error) {
	var h [8]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, statusBadMagic, fmt.Errorf("netio: reading hello: %w", err)
	}
	if [4]byte(h[:4]) != magicHello || h[4] != Version || h[6]&helloFlagSession == 0 {
		return 0, statusBadMagic, fmt.Errorf("netio: bad hello magic/version/flags %q v%d flags %#x", h[:4], h[4], h[6])
	}
	f = parsefmt.Format(h[5])
	switch f {
	case parsefmt.JSON, parsefmt.PB, parsefmt.Text, parsefmt.Columnar:
	default:
		return 0, statusBadFormat, fmt.Errorf("netio: unknown payload format %d", h[5])
	}
	return f, statusOK, nil
}

// writeAck sends the server's 8-byte ack with the initial credit grant.
func writeAck(w io.Writer, status byte, credits uint16) error {
	var a [8]byte
	copy(a[:4], magicAck[:])
	a[4] = Version
	a[5] = status
	binary.BigEndian.PutUint16(a[6:], credits)
	_, err := w.Write(a[:])
	return err
}

// readAck parses the server ack, returning the initial credits.
func readAck(r io.Reader) (credits int, err error) {
	var a [8]byte
	if _, err := io.ReadFull(r, a[:]); err != nil {
		return 0, fmt.Errorf("netio: reading ack: %w", err)
	}
	if [4]byte(a[:4]) != magicAck || a[4] != Version {
		return 0, fmt.Errorf("netio: bad ack magic/version %q v%d", a[:4], a[4])
	}
	switch a[5] {
	case statusOK:
		return int(binary.BigEndian.Uint16(a[6:])), nil
	case statusOverloaded:
		return 0, ErrOverloaded
	default:
		return 0, fmt.Errorf("netio: server rejected handshake (status %d)", a[5])
	}
}

// writeResume sends the client's 12-byte session request, directly
// after the OK ack: the token of the session to resume, or zero to open
// a fresh one.
func writeResume(w io.Writer, token uint64) error {
	var b [12]byte
	copy(b[:4], magicResume[:])
	binary.BigEndian.PutUint64(b[4:], token)
	_, err := w.Write(b[:])
	return err
}

// readResume parses the session request.
func readResume(r io.Reader) (token uint64, err error) {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("netio: reading session request: %w", err)
	}
	if [4]byte(b[:4]) != magicResume {
		return 0, fmt.Errorf("netio: bad session request magic %q", b[:4])
	}
	return binary.BigEndian.Uint64(b[4:]), nil
}

// writeSessionGrant sends the server's 20-byte session grant: the
// session token (the one requested, or freshly assigned; zero means the
// requested session is unknown/expired and the connection will close)
// and the last frame sequence number fully ingested under it — the
// client replays everything after that seq from its replay buffer.
func writeSessionGrant(w io.Writer, token, lastSeq uint64) error {
	var b [20]byte
	copy(b[:4], magicSession[:])
	binary.BigEndian.PutUint64(b[4:], token)
	binary.BigEndian.PutUint64(b[12:], lastSeq)
	_, err := w.Write(b[:])
	return err
}

// readSessionGrant parses the session grant.
func readSessionGrant(r io.Reader) (token, lastSeq uint64, err error) {
	var b [20]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, fmt.Errorf("netio: reading session grant: %w", err)
	}
	if [4]byte(b[:4]) != magicSession {
		return 0, 0, fmt.Errorf("netio: bad session grant magic %q", b[:4])
	}
	return binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:]), nil
}

// writeSeqFrame sends one data frame: the uint32 payload length, the
// uint64 frame sequence number, then the payload.
func writeSeqFrame(w io.Writer, seq uint64, payload []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:], seq)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeEOS sends the end-of-stream marker: a bare zero length with no
// sequence number.
func writeEOS(w io.Writer) error {
	_, err := w.Write([]byte{0, 0, 0, 0})
	return err
}

// readFrameHeader reads one frame's length prefix and the frame
// sequence number that follows it. eos is true for the end-of-stream
// marker (which carries no sequence number).
func readFrameHeader(r io.Reader) (size int64, seq uint64, eos bool, err error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return 0, 0, false, err
	}
	size = int64(binary.BigEndian.Uint32(n[:]))
	if size == 0 {
		return 0, 0, true, nil
	}
	var s [8]byte
	if _, err := io.ReadFull(r, s[:]); err != nil {
		return 0, 0, false, fmt.Errorf("netio: truncated frame seq: %w", err)
	}
	return size, binary.BigEndian.Uint64(s[:]), false, nil
}

// writeCreditAck sends one ack: the uint32 credit extension plus the
// cumulative ack — the last frame sequence number the server has fully
// ingested, which lets the client trim its replay buffer.
func writeCreditAck(w io.Writer, n uint32, lastSeq uint64) error {
	var b [12]byte
	binary.BigEndian.PutUint32(b[:4], n)
	binary.BigEndian.PutUint64(b[4:], lastSeq)
	_, err := w.Write(b[:])
	return err
}

// readCreditAck reads one ack.
func readCreditAck(r io.Reader) (n uint32, lastSeq uint64, err error) {
	var b [12]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, err
	}
	return binary.BigEndian.Uint32(b[:4]), binary.BigEndian.Uint64(b[4:]), nil
}

// ParseFormat maps a format flag string to a parsefmt.Format.
func ParseFormat(s string) (parsefmt.Format, error) {
	switch s {
	case "json":
		return parsefmt.JSON, nil
	case "pb", "binary", "bin":
		return parsefmt.PB, nil
	case "text", "csv":
		return parsefmt.Text, nil
	case "columnar", "col":
		return parsefmt.Columnar, nil
	default:
		return 0, fmt.Errorf("netio: unknown format %q (json|pb|text|columnar)", s)
	}
}

// formatLabel is the short metrics label per wire format code.
var formatLabel = [4]string{"json", "pb", "text", "columnar"}
