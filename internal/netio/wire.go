// Package netio turns the native backend into a network server: an
// ingest listener accepts TCP connections carrying length-prefixed,
// sequence-numbered frames — column-major batches or protobuf-style
// records, chosen in the handshake — checks each frame's checksum,
// decodes it, and hands sealed batches to the runtime through its
// ExternalFeed seam. One frame loop serves both formats; the format
// contributes only the decode step, and both steps land their values in
// exact-length columns laid back to back in one mempool-backed slab per
// frame. A columnar frame's data section is one read into that slab,
// straight from the socket past the read buffer's first 64 KiB — decode
// is validate + bounds-check + endian-fix + pointer-cast, with zero
// per-record work; a row frame is read into one per-connection buffer
// and transposed into the slab by parsefmt.DecodePBColumns. A
// credit-based flow-control loop ties client send permission to the
// engine's mempool backpressure signal, so an overloaded pipeline slows
// its clients instead of buffering unboundedly (paper §7.4 treats
// ingestion as a first-class bottleneck; the ROADMAP north-star is a
// server for live traffic). The package also serves live query results
// (/windows) and engine metrics (/metrics) over HTTP, and provides the
// client used by cmd/sbx-loadgen.
//
// # Wire format
//
// There is one protocol, version 6: every stream is a resumable
// session, opened by one message each way. Handshake and framing
// integers are big-endian. The client opens with a 16-byte hello:
//
//	offset 0: magic "SBX1"
//	offset 4: protocol version (6)
//	offset 5: payload format: 1 binary (PB) or 3 columnar
//	offset 6: reserved (2 bytes, zero)
//	offset 8: resume token, uint64: the session to resume, or zero to
//	          open a fresh one
//
// and the server answers with a 32-byte grant:
//
//	offset  0: magic "SBXA"
//	offset  4: protocol version (6)
//	offset  5: status: 0 OK; 1 bad magic or version (the retired
//	           hellos of versions 1-5 are answered as soon as their
//	           version byte is read); 2 not a wire format (the
//	           codes of JSON and text, 0 and 2, included); 3 overloaded
//	           (admission control shed the handshake; back off and
//	           redial); 4 the resume token names no live session
//	           (expired, or retired by a clean end of stream), so
//	           exactly-once resume is impossible. Any status but OK is
//	           followed by a close.
//	offset  6: initial credit grant, uint16 (frames the client may send)
//	offset  8: session token, uint64 (the one resumed, or freshly
//	           assigned)
//	offset 16: sequence number of the last frame fully ingested under
//	           the session, uint64 — the client replays what follows it
//	offset 24: column mask, uint32: bit i set when the served plan reads
//	           wire column i (parsefmt.FieldSet; zero unless OK)
//	offset 28: CRC-32C of the 28 bytes before it
//
// Only the masked columns travel: the server's feed holds just the
// columns its plan reads (the key, value, window and filter columns and
// the event time), and the client drops the others before it encodes a
// frame. A columnar frame carries the masked columns, ascending, and
// nothing else; a PB record carries the masked fields, ascending. The
// first grant fixes a session's mask: the frames in the client's replay
// ring are already projected, so a resume grant naming another mask
// ends the session (ErrColumnsChanged). A grant that fails its CRC is
// redialed, like a damaged ack.
//
// Then the client sends data frames — a uint32 payload length, a
// uint64 frame sequence number, and that many payload bytes; a bare
// zero length (no sequence number) marks a clean end of stream and
// retires the session — and the server sends 16-byte acks, each a
// uint32 credit count extending the client's send window by that many
// frames, the uint64 cumulative last-ingested sequence and the CRC-32C
// of those 12 bytes. One ack may return the credit of several frames:
// the server acks what it has consumed before it next waits. The client
// must keep one credit per in-flight frame. A columnar payload is
// exactly one parsefmt columnar frame of the masked columns (24-byte
// header carrying the CRC-32C of the data section + little-endian
// column-major data; see parsefmt/columnar.go for the layout); the
// server refuses one whose column count is not the mask's. A PB payload
// is the records' length-delimited messages followed by a 4-byte
// trailer: the CRC-32C of the bytes before it.
// There is one checksum on the wire, CRC-32C (Castagnoli,
// parsefmt.UpdateCRC), always over bytes exactly as sent.
//
// Frames at or below the acked sequence are discarded by the server
// (duplicate replay after a resume) and a gap above the expected
// sequence severs the connection so the client replays from its send
// buffer. One integrity rule covers every frame: a payload that fails
// its checksum (or, columnar, whose geometry does not match its
// length) severs the connection WITHOUT advancing the ack, so the
// replay re-delivers the damaged frame. An ack that fails its checksum
// ends the client's credit stream the same way: the client severs,
// resumes and replays whatever the damaged ack might have covered. A PB
// payload that passes its CRC and still does not parse was encoded
// wrong by the sender, and a replay of the same bytes could not do
// better: it is counted as a decode error, dropped whole and acked. A
// connection that ends without the end-of-stream marker leaves its
// session resumable; the server parks its watermark cursor after
// CursorGrace and expires it after SessionTimeout.
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
// stays in the hello and the grant so a future protocol can be told from
// this one. Versions 1-3 (8-byte hello, a four-message exchange), 4 (the
// columnar digest over values, unchecked acks) and 5 (every column sent,
// a 24-byte grant without mask or CRC) are retired and refused at the
// handshake.
const Version = 6

var (
	magicHello = [4]byte{'S', 'B', 'X', '1'}
	magicGrant = [4]byte{'S', 'B', 'X', 'A'}
)

// Handshake statuses.
const (
	statusOK         = 0
	statusBadMagic   = 1
	statusBadFormat  = 2
	statusOverloaded = 3
	statusExpired    = 4
)

// isWireFormat reports whether a session may carry format f. The other
// two codes (JSON, text) are Figure 11's batch codecs.
func isWireFormat(f parsefmt.Format) bool {
	return f == parsefmt.PB || f == parsefmt.Columnar
}

// formatLabel is the short metrics label of each wire format, indexed
// by format code.
var formatLabel = [4]string{parsefmt.PB: "pb", parsefmt.Columnar: "columnar"}

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

// ErrColumnsChanged marks a resume grant whose column mask differs from
// the one the session's first grant fixed: the server now serves a plan
// that reads other columns. The frames in the client's replay ring carry
// only the old columns and cannot be re-projected, so the session ends
// rather than redialing.
var ErrColumnsChanged = errors.New("netio: resume grant names other columns than the session's")

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

// MaxFrameBytes caps one frame's payload: the server severs a connection
// whose frame header claims more.
const MaxFrameBytes = 4 << 20

// handshakeTimeout bounds the client's dial and both sides of the
// handshake — the hello and the grant. It is also the server's bound on
// each ack write when no IdleTimeout is configured, and the client's on a
// wait for an ack that makes no progress when no WriteTimeout is.
const handshakeTimeout = 10 * time.Second

const (
	helloBytes = 16
	grantBytes = 32
)

// writeHello sends the client's 16-byte hello: the payload format and
// the token of the session to resume, zero to open a fresh one.
func writeHello(w io.Writer, f parsefmt.Format, token uint64) error {
	var h [helloBytes]byte
	copy(h[:4], magicHello[:])
	h[4] = Version
	h[5] = byte(f)
	binary.BigEndian.PutUint64(h[8:], token)
	_, err := w.Write(h[:])
	return err
}

// readHello parses the client hello, distinguishing protocol errors by
// grant status: bad magic or any version but this one is statusBadMagic,
// a format no session carries is statusBadFormat. The first half is
// judged before the second is read: the retired protocols' hellos end
// there, and their senders are waiting for an answer.
func readHello(r io.Reader) (f parsefmt.Format, token uint64, status byte, err error) {
	var h [helloBytes]byte
	if _, err := io.ReadFull(r, h[:8]); err != nil {
		return 0, 0, statusBadMagic, fmt.Errorf("netio: reading hello: %w", err)
	}
	if [4]byte(h[:4]) != magicHello || h[4] != Version {
		return 0, 0, statusBadMagic, fmt.Errorf("netio: bad hello magic/version %q v%d", h[:4], h[4])
	}
	if _, err := io.ReadFull(r, h[8:]); err != nil {
		return 0, 0, statusBadMagic, fmt.Errorf("netio: reading hello: %w", err)
	}
	f = parsefmt.Format(h[5])
	if !isWireFormat(f) {
		return 0, 0, statusBadFormat, fmt.Errorf("netio: payload format %d is not a wire format", h[5])
	}
	return f, binary.BigEndian.Uint64(h[8:]), statusOK, nil
}

// grant is the server's answer to a hello. With statusOK it carries the
// initial credits, the session token (the one requested, or freshly
// assigned), the last frame sequence number fully ingested under it —
// the client replays everything after that from its replay buffer — and
// the columns the session moves. Any other status carries nothing else
// and is followed by a close.
type grant struct {
	status  byte
	credits uint16
	token   uint64
	lastSeq uint64
	fields  parsefmt.FieldSet
}

// writeGrant sends the 32-byte grant.
func writeGrant(w io.Writer, g grant) error {
	var b [grantBytes]byte
	copy(b[:4], magicGrant[:])
	b[4] = Version
	b[5] = g.status
	binary.BigEndian.PutUint16(b[6:], g.credits)
	binary.BigEndian.PutUint64(b[8:], g.token)
	binary.BigEndian.PutUint64(b[16:], g.lastSeq)
	binary.BigEndian.PutUint32(b[24:], uint32(g.fields))
	appendCRC(b[:grantBytes-crcBytes], 0) // fills b's last 4 bytes in place
	_, err := w.Write(b[:])
	return err
}

// errGrantChecksum marks a grant damaged in flight: none of its fields
// can be trusted, so the client redials.
var errGrantChecksum = errors.New("netio: grant failed its checksum")

// readGrant parses the grant; one that fails its checksum is
// errGrantChecksum, and a status other than OK comes back as the error
// the caller acts on (ErrOverloaded: back off and redial;
// ErrSessionExpired: give up).
func readGrant(r io.Reader) (grant, error) {
	var b [grantBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return grant{}, fmt.Errorf("netio: reading grant: %w", err)
	}
	if [4]byte(b[:4]) != magicGrant || b[4] != Version {
		return grant{}, fmt.Errorf("netio: bad grant magic/version %q v%d", b[:4], b[4])
	}
	if _, ok := splitCRC(b[:]); !ok {
		return grant{}, errGrantChecksum
	}
	mask := binary.BigEndian.Uint32(b[24:])
	g := grant{
		status:  b[5],
		credits: binary.BigEndian.Uint16(b[6:]),
		token:   binary.BigEndian.Uint64(b[8:]),
		lastSeq: binary.BigEndian.Uint64(b[16:]),
		fields:  parsefmt.FieldSet(mask),
	}
	switch g.status {
	case statusOK:
		if mask == 0 || mask&^uint32(parsefmt.AllFields) != 0 {
			return g, fmt.Errorf("netio: grant column mask %#x names no wire column or one past the seventh", mask)
		}
		return g, nil
	case statusOverloaded:
		return g, ErrOverloaded
	case statusExpired:
		return g, ErrSessionExpired
	default:
		return g, fmt.Errorf("netio: server rejected handshake (status %d)", g.status)
	}
}

// crcBytes is the size of a CRC-32C trailer: a PB payload's, a
// grant's and an ack's.
const crcBytes = 4

// appendCRC appends the CRC-32C trailer of buf[from:] — what precedes
// it is the sender's room for the frame header.
func appendCRC(buf []byte, from int) []byte {
	return binary.BigEndian.AppendUint32(buf, parsefmt.UpdateCRC(0, buf[from:]))
}

// splitCRC verifies a trailer and returns the bytes it covers; ok is
// false when the message is too short to carry one or the checksum does
// not match.
func splitCRC(msg []byte) (body []byte, ok bool) {
	if len(msg) < crcBytes {
		return nil, false
	}
	body = msg[:len(msg)-crcBytes]
	return body, binary.BigEndian.Uint32(msg[len(body):]) == parsefmt.UpdateCRC(0, body)
}

// frameHeaderBytes is what precedes a data frame's payload on the wire:
// the uint32 payload length and the uint64 frame sequence number.
const frameHeaderBytes = 12

// putFrameHeader fills in the header of the data frame held in frame —
// frameHeaderBytes of room, then the payload.
func putFrameHeader(frame []byte, seq uint64) {
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-frameHeaderBytes))
	binary.BigEndian.PutUint64(frame[4:frameHeaderBytes], seq)
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

// ackBytes is the size of one ack: the uint32 credit count, the uint64
// cumulative ack and the CRC-32C trailer of those 12 bytes.
const ackBytes = 16

// errAckChecksum marks an ack damaged in flight. Neither its credit
// count nor its cumulative ack can be trusted, so the client ends the
// connection's credit stream and resumes.
var errAckChecksum = errors.New("netio: ack failed its checksum")

// writeCreditAck sends one ack: the uint32 credit extension plus the
// cumulative ack — the last frame sequence number the server has fully
// ingested, which lets the client trim its replay buffer — and their
// CRC-32C.
func writeCreditAck(w io.Writer, n uint32, lastSeq uint64) error {
	var b [ackBytes]byte
	binary.BigEndian.PutUint32(b[:4], n)
	binary.BigEndian.PutUint64(b[4:], lastSeq)
	appendCRC(b[:ackBytes-crcBytes], 0) // fills b's last 4 bytes in place
	_, err := w.Write(b[:])
	return err
}

// readCreditAck reads one ack; one that fails its checksum is
// errAckChecksum.
func readCreditAck(r io.Reader) (n uint32, lastSeq uint64, err error) {
	var b [ackBytes]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, 0, err
	}
	body, ok := splitCRC(b[:])
	if !ok {
		return 0, 0, errAckChecksum
	}
	return binary.BigEndian.Uint32(body[:4]), binary.BigEndian.Uint64(body[4:]), nil
}
