// Package wal implements the durability tier behind the ingest path: a
// segmented, checksummed write-ahead log of accepted data frames plus
// periodic checkpoints of recovery metadata (session table, watermark
// cursors, sealed window results). The server logs a session's open
// record before its grant, appends every accepted frame, and only
// advances a session's cumulative ack after a batched group-commit
// fsync, so the client's replay buffer (frames above the
// ack) and the log (frames at or below it) partition the stream: every
// frame survives a process crash exactly once. A commit writes its
// buffer to the active segment, one write and one fsync of one file,
// and the first commit to a segment fsyncs the directory as well, so the
// segment's name is as durable as its records; segments roll only where a checkpoint marks them, and retire once the
// global watermark has sealed — and a checkpoint has persisted — every
// window their frames could feed. Disk use is bounded by the unsealed
// horizon plus one checkpoint interval.
//
// On-disk layout (all integers little-endian, host order for column
// payloads — the log never leaves the machine that wrote it):
//
//	wal-%016d.seg    segment: 16-byte header, then records back to back
//	checkpoint.ckpt  latest checkpoint (atomic tmp+rename)
//
// A segment header is the magic "SBXW", a version byte (3), three
// reserved zero bytes, and the uint64 segment index. Each record is a
// uint32 body length followed by the body: a kind byte (1 data frame,
// 2 session end, 3 session open), uint64 session token (never 0 in a
// log this build writes), uint64 feed cursor id, uint64 frame sequence
// number, uint64 max event timestamp, uint16 column count, uint32 row
// count, uint16 column mask, the packed columns, and a trailing uint32
// CRC-32C over the body before it.
//
// The column mask (a parsefmt.FieldSet) names the wire columns a frame
// record holds, ascending: a server logs just the columns its plan
// reads, as they arrived. A frame record's mask is nonzero and has a bit
// per column it holds; a session open's or end's is zero, as are its
// sequence number, timestamp and geometry. Version 1 segments, written
// before the mask, hold zero there and every frame record all seven
// columns; they are still read, as holding all seven. Version 2
// segments predate the session-open record and are read as they are;
// an older build stops at version 3 rather than mistake a session open
// for a torn record and truncate the log there. A log whose frames lack
// a column the log now records is refused at Open: recovery could not
// rebuild that column from them.
//
// Columns are frame-of-reference packed rather than stored as raw
// words: per column a uint64 base (the column's minimum), a width byte
// (0, 1, 2, 4, or 8), and nrows deltas of that many little-endian
// bytes each. Ingest columns are timestamps and small categorical ids,
// so their per-frame ranges are tiny and most columns pack to one or
// two bytes per value — or zero for a constant column — which is what
// keeps logging every accepted frame cheaper than the wire transfer
// that carried it. The encoding is canonical (base is the exact
// minimum, width the smallest that fits the range) and the decoder
// rejects non-canonical packings, so decode∘encode is the identity on
// accepted bytes. Recovery replays records in append order and treats
// the first torn or corrupt record as the end of the log — by the ack
// invariant nothing at or past a torn record was ever acknowledged, so
// the clients' replay buffers re-cover it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"streambox/internal/parsefmt"
)

// Record kinds.
const (
	KindFrame       = 1 // an accepted data frame with its column payload
	KindSessionEnd  = 2 // session finished cleanly or expired; never resumes
	KindSessionOpen = 3 // session granted; resumable from sequence 0
)

const (
	segMagic       = "SBXW"
	segVersion     = 3
	segHeaderBytes = 16

	// recHeaderBytes is the fixed body prefix before the packed columns:
	// kind(1) token(8) conn(8) seq(8) maxTs(8) ncols(2) nrows(4) mask(2).
	recHeaderBytes = 41
	recCRCBytes    = 4
	// colHeaderBytes prefixes each packed column: base(8) width(1).
	colHeaderBytes = 9

	// maxRecordData bounds a record's column payload so a corrupt length
	// field cannot drive the decoder into a huge allocation.
	maxRecordData = 64 << 20
)

// packWidth returns the canonical frame-of-reference width for a
// column whose deltas span [0, rng]: the smallest of 0, 1, 2, 4, 8
// bytes that holds rng.
func packWidth(rng uint64) int {
	switch {
	case rng == 0:
		return 0
	case rng < 1<<8:
		return 1
	case rng < 1<<16:
		return 2
	case rng < 1<<32:
		return 4
	default:
		return 8
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a torn or checksum-failing record; scanning stops
// there and treats everything before it as the durable prefix.
var ErrCorrupt = errors.New("wal: corrupt record")

// Record is one decoded log record. For KindFrame, Data holds the
// column words row-major by column: NCols runs of NRows uint64s, one per
// wire column of Fields, ascending.
type Record struct {
	Kind   byte
	Token  uint64
	Conn   int64
	Seq    uint64
	MaxTs  uint64
	NCols  int
	NRows  int
	Fields parsefmt.FieldSet
	Data   []uint64
}

// Project copies the record's columns of fields, which the record must
// hold, into cols — one slice per column of fields, ascending, each of
// at least NRows elements (extra capacity is left untouched) — and
// returns them truncated to NRows.
func (r *Record) Project(fields parsefmt.FieldSet, cols [][]uint64) [][]uint64 {
	for i, c := range fields.Cols() {
		at := r.Fields.Pos(c) * r.NRows
		cols[i] = cols[i][:r.NRows]
		copy(cols[i], r.Data[at:at+r.NRows])
	}
	return cols[:fields.Len()]
}

// appendRecord serializes a record body (length prefix included) into
// buf and returns the extended slice. cols is nil for control records,
// and fields the wire columns cols hold, zero for control records.
// ranges holds each column's exact min and max, which fix its base and
// canonical width — the ingest path computes them once, with the
// frame's maxTs; a stale or wrong range would pack deltas that the
// decoder's canonicality check rejects.
func appendRecord(buf []byte, kind byte, token uint64, conn int64, seq, maxTs uint64, fields parsefmt.FieldSet, cols [][]uint64, ranges []parsefmt.ColRange, nrows int) []byte {
	ncols := len(cols)
	body := recHeaderBytes + ncols*colHeaderBytes
	if nrows > 0 {
		for _, rng := range ranges[:ncols] {
			body += nrows * packWidth(rng.Max-rng.Min)
		}
	}
	total := 4 + body + recCRCBytes
	start := len(buf)
	buf = slices.Grow(buf, total)[:start+total]
	b := buf[start:]
	binary.LittleEndian.PutUint32(b, uint32(body+recCRCBytes))
	b = b[4:]
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], token)
	binary.LittleEndian.PutUint64(b[9:], uint64(conn))
	binary.LittleEndian.PutUint64(b[17:], seq)
	binary.LittleEndian.PutUint64(b[25:], maxTs)
	binary.LittleEndian.PutUint16(b[33:], uint16(ncols))
	binary.LittleEndian.PutUint32(b[35:], uint32(nrows))
	binary.LittleEndian.PutUint16(b[39:], uint16(fields))
	off := recHeaderBytes
	for ci, col := range cols {
		var base uint64 // an empty column's canonical base and width are zero
		var w int
		if nrows > 0 {
			base = ranges[ci].Min
			w = packWidth(ranges[ci].Max - base)
		}
		binary.LittleEndian.PutUint64(b[off:], base)
		b[off+8] = byte(w)
		off += colHeaderBytes
		// Pack deltas a full word at a time where the width allows: one
		// 8-byte store carries 8 (w=1), 4 (w=2), or 2 (w=4) values, which
		// matters because this loop runs on the ingest path for every
		// accepted frame.
		p := b[off:]
		i := 0
		switch w {
		case 0:
		case 1:
			for ; i+8 <= nrows; i += 8 {
				c := col[i : i+8 : i+8]
				binary.LittleEndian.PutUint64(p[i:],
					uint64(byte(c[0]-base))|uint64(byte(c[1]-base))<<8|
						uint64(byte(c[2]-base))<<16|uint64(byte(c[3]-base))<<24|
						uint64(byte(c[4]-base))<<32|uint64(byte(c[5]-base))<<40|
						uint64(byte(c[6]-base))<<48|uint64(byte(c[7]-base))<<56)
			}
			for ; i < nrows; i++ {
				p[i] = byte(col[i] - base)
			}
		case 2:
			for ; i+4 <= nrows; i += 4 {
				c := col[i : i+4 : i+4]
				binary.LittleEndian.PutUint64(p[i*2:],
					uint64(uint16(c[0]-base))|uint64(uint16(c[1]-base))<<16|
						uint64(uint16(c[2]-base))<<32|uint64(uint16(c[3]-base))<<48)
			}
			for ; i < nrows; i++ {
				binary.LittleEndian.PutUint16(p[i*2:], uint16(col[i]-base))
			}
		case 4:
			for ; i+2 <= nrows; i += 2 {
				c := col[i : i+2 : i+2]
				binary.LittleEndian.PutUint64(p[i*4:],
					uint64(uint32(c[0]-base))|uint64(uint32(c[1]-base))<<32)
			}
			for ; i < nrows; i++ {
				binary.LittleEndian.PutUint32(p[i*4:], uint32(col[i]-base))
			}
		default:
			for ; i < nrows; i++ {
				binary.LittleEndian.PutUint64(p[i*8:], col[i]-base)
			}
		}
		off += nrows * w
	}
	crc := crc32.Checksum(b[:off], castagnoli)
	binary.LittleEndian.PutUint32(b[off:], crc)
	return buf
}

// DecodeRecord parses one record of a segment of the given version from
// the front of b, returning the decoded record and the number of bytes
// consumed. It never panics and never reads past len(b); a short buffer,
// bad geometry, a column mask that does not match the column count, or
// a checksum mismatch returns ErrCorrupt (wrapped with detail).
func DecodeRecord(b []byte, version byte, rec *Record) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("%w: short length prefix", ErrCorrupt)
	}
	body := int(binary.LittleEndian.Uint32(b))
	if body < recHeaderBytes+recCRCBytes || body > maxRecordData+recHeaderBytes+recCRCBytes {
		return 0, fmt.Errorf("%w: body length %d out of range", ErrCorrupt, body)
	}
	if len(b) < 4+body {
		return 0, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrCorrupt, len(b)-4, body)
	}
	p := b[4 : 4+body]
	crcOff := body - recCRCBytes
	want := binary.LittleEndian.Uint32(p[crcOff:])
	if got := crc32.Checksum(p[:crcOff], castagnoli); got != want {
		return 0, fmt.Errorf("%w: checksum %08x, want %08x", ErrCorrupt, got, want)
	}
	kind := p[0]
	if kind != KindFrame && kind != KindSessionEnd && kind != KindSessionOpen {
		return 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	ncols := int(binary.LittleEndian.Uint16(p[33:]))
	nrows := int(binary.LittleEndian.Uint32(p[35:]))
	mask := binary.LittleEndian.Uint16(p[39:])
	fields := parsefmt.FieldSet(mask)
	if version == 1 {
		// Written before the mask: the bytes are reserved, and a frame
		// holds all seven columns.
		if mask != 0 {
			return 0, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
		}
		if kind == KindFrame {
			fields = parsefmt.AllFields
		}
	}
	if kind != KindFrame && (ncols|nrows != 0 || mask != 0) {
		return 0, fmt.Errorf("%w: session record carries data", ErrCorrupt)
	}
	if kind == KindFrame && (mask&^uint16(parsefmt.AllFields) != 0 || fields == 0 || fields.Len() != ncols) {
		return 0, fmt.Errorf("%w: column mask %#x does not name its %d columns", ErrCorrupt, mask, ncols)
	}
	rec.Kind = kind
	rec.Token = binary.LittleEndian.Uint64(p[1:])
	rec.Conn = int64(binary.LittleEndian.Uint64(p[9:]))
	rec.Seq = binary.LittleEndian.Uint64(p[17:])
	rec.MaxTs = binary.LittleEndian.Uint64(p[25:])
	rec.NCols, rec.NRows, rec.Fields = ncols, nrows, fields
	words := ncols * nrows
	if words > maxRecordData/8 {
		return 0, fmt.Errorf("%w: geometry %dx%d too large", ErrCorrupt, ncols, nrows)
	}
	if cap(rec.Data) < words {
		rec.Data = make([]uint64, words)
	}
	rec.Data = rec.Data[:words]
	off := recHeaderBytes
	for c := 0; c < ncols; c++ {
		if off+colHeaderBytes > crcOff {
			return 0, fmt.Errorf("%w: truncated column %d header", ErrCorrupt, c)
		}
		base := binary.LittleEndian.Uint64(p[off:])
		w := int(p[off+8])
		if w != 0 && w != 1 && w != 2 && w != 4 && w != 8 {
			return 0, fmt.Errorf("%w: column %d width %d", ErrCorrupt, c, w)
		}
		off += colHeaderBytes
		if off+nrows*w > crcOff {
			return 0, fmt.Errorf("%w: truncated column %d payload", ErrCorrupt, c)
		}
		out := rec.Data[c*nrows : (c+1)*nrows]
		q := p[off:]
		var maxDelta uint64
		minDelta := ^uint64(0)
		switch w {
		case 0:
			for i := range out {
				out[i] = base
			}
			minDelta, maxDelta = 0, 0
		case 1:
			for i := range out {
				d := uint64(q[i])
				out[i] = base + d
				if d < minDelta {
					minDelta = d
				}
				if d > maxDelta {
					maxDelta = d
				}
			}
		case 2:
			for i := range out {
				d := uint64(binary.LittleEndian.Uint16(q[i*2:]))
				out[i] = base + d
				if d < minDelta {
					minDelta = d
				}
				if d > maxDelta {
					maxDelta = d
				}
			}
		case 4:
			for i := range out {
				d := uint64(binary.LittleEndian.Uint32(q[i*4:]))
				out[i] = base + d
				if d < minDelta {
					minDelta = d
				}
				if d > maxDelta {
					maxDelta = d
				}
			}
		default:
			for i := range out {
				d := binary.LittleEndian.Uint64(q[i*8:])
				out[i] = base + d
				if d < minDelta {
					minDelta = d
				}
				if d > maxDelta {
					maxDelta = d
				}
			}
		}
		// Canonical form only: base is the exact column minimum and the
		// width is the smallest that fits the range, so re-encoding an
		// accepted record reproduces its bytes bit for bit.
		if nrows > 0 && (minDelta != 0 || packWidth(maxDelta) != w || maxDelta > ^uint64(0)-base) {
			return 0, fmt.Errorf("%w: column %d not canonically packed", ErrCorrupt, c)
		}
		if nrows == 0 && (base != 0 || w != 0) {
			return 0, fmt.Errorf("%w: empty column %d not canonically packed", ErrCorrupt, c)
		}
		off += nrows * w
	}
	if off != crcOff {
		return 0, fmt.Errorf("%w: geometry %dx%d does not match body length %d", ErrCorrupt, ncols, nrows, body)
	}
	return 4 + body, nil
}

func putSegHeader(b []byte, idx uint64) {
	copy(b, segMagic)
	b[4] = segVersion
	b[5], b[6], b[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(b[8:], idx)
}

// parseSegHeader returns the segment's index and version: this build's,
// 2, or 1, whose records it reads as holding all seven columns.
func parseSegHeader(b []byte) (idx uint64, version byte, err error) {
	if len(b) < segHeaderBytes || string(b[:4]) != segMagic {
		return 0, 0, fmt.Errorf("wal: bad segment magic")
	}
	if b[4] < 1 || b[4] > segVersion {
		return 0, 0, fmt.Errorf("wal: unsupported segment version %d", b[4])
	}
	if b[5]|b[6]|b[7] != 0 {
		return 0, 0, fmt.Errorf("wal: nonzero reserved segment header bytes")
	}
	return binary.LittleEndian.Uint64(b[8:]), b[4], nil
}
