// Columnar wire frames: the zero-copy ingest format (wire format code
// 3). A frame carries a column-major [ncols][nrows]uint64 batch — the
// exact in-memory layout the engine's column buffers use — so decoding
// degenerates to validate + bounds-check + endian-fix + pointer-cast
// instead of the per-record parse/scatter the row formats pay (the
// per-record data movement §7.4 identifies as the ingest tax).
//
// Frame payload layout (inside a netio length-prefixed frame):
//
//	offset  0: magic "SBXC" (4 bytes)
//	offset  4: ncols, uint16 little-endian
//	offset  6: reserved (2 bytes, zero)
//	offset  8: nrows, uint32 little-endian
//	offset 12: reserved (4 bytes, zero)
//	offset 16: checksum, uint32 little-endian: the CRC-32C (Castagnoli)
//	           of the data section's bytes as sent
//	offset 20: reserved (4 bytes, zero)
//	offset 24: data — ncols columns back to back, each nrows
//	           little-endian uint64 values
//
// Unlike the big-endian handshake/framing integers, columnar payloads
// are little-endian on the wire: that is the native order of every
// deployment host, so the receive path copies the bytes it reads into
// column slabs as they are and FixWireOrder is a no-op (big-endian hosts
// swap in place). The checksum is defined over the wire bytes, so it is
// the same on every host, and either end computes it over bytes it has
// just copied: the sender over the frame it encoded, the receiver over
// the bytes it read, before fixing their order.
package parsefmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"unsafe"
)

// ColumnarHeaderBytes is the fixed size of the columnar frame header.
const ColumnarHeaderBytes = 24

var columnarMagic = [4]byte{'S', 'B', 'X', 'C'}

// hostLittle reports whether this host stores uint64 little-endian —
// the wire order, making FixWireOrder a no-op.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ColumnarHeader is one parsed columnar frame header.
type ColumnarHeader struct {
	NCols, NRows int
	Checksum     uint32
}

// ColumnarDataBytes returns the data-section size of an ncols × nrows
// frame.
func ColumnarDataBytes(ncols, nrows int) int64 {
	return int64(ncols) * int64(nrows) * 8
}

// PutColumnarHeader writes a frame header into dst (at least
// ColumnarHeaderBytes long).
func PutColumnarHeader(dst []byte, ncols, nrows int, checksum uint32) {
	_ = dst[:ColumnarHeaderBytes]
	copy(dst, columnarMagic[:])
	binary.LittleEndian.PutUint16(dst[4:], uint16(ncols))
	binary.LittleEndian.PutUint16(dst[6:], 0)
	binary.LittleEndian.PutUint32(dst[8:], uint32(nrows))
	binary.LittleEndian.PutUint32(dst[12:], 0)
	binary.LittleEndian.PutUint32(dst[16:], checksum)
	binary.LittleEndian.PutUint32(dst[20:], 0)
}

// ParseColumnarHeader validates and parses a frame header. It checks
// only the header itself; callers must still check that the data
// section's length equals ColumnarDataBytes(NCols, NRows) before
// touching it.
func ParseColumnarHeader(h []byte) (ColumnarHeader, error) {
	if len(h) < ColumnarHeaderBytes {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: header truncated at %d bytes", len(h))
	}
	if [4]byte(h[:4]) != columnarMagic {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: bad magic %q", h[:4])
	}
	if binary.LittleEndian.Uint16(h[6:]) != 0 || binary.LittleEndian.Uint32(h[12:]) != 0 || binary.LittleEndian.Uint32(h[20:]) != 0 {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: nonzero reserved header bytes")
	}
	hdr := ColumnarHeader{
		NCols:    int(binary.LittleEndian.Uint16(h[4:])),
		NRows:    int(binary.LittleEndian.Uint32(h[8:])),
		Checksum: binary.LittleEndian.Uint32(h[16:]),
	}
	if hdr.NCols == 0 || hdr.NRows == 0 {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: empty frame (%d cols × %d rows)", hdr.NCols, hdr.NRows)
	}
	return hdr, nil
}

// ColumnBytes aliases a column's backing array as bytes, in host
// representation, so the receive path can io.ReadFull wire bytes
// straight into a pooled slab (and the send path can write a slab
// without re-encoding). Pair with FixWireOrder to convert between wire
// (little-endian) and host order; on little-endian hosts both are the
// identity and the whole decode is a pointer cast.
func ColumnBytes(col []uint64) []byte {
	if len(col) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*8)
}

// FixWireOrder converts a column between wire order (little-endian)
// and host order, in place. It is its own inverse; on little-endian
// hosts it is a no-op.
func FixWireOrder(col []uint64) {
	if hostLittle {
		return
	}
	swapWords(col)
}

// swapWords byte-reverses every word (split out so the big-endian path
// stays testable on little-endian hosts).
func swapWords(col []uint64) {
	for i, v := range col {
		col[i] = bits.ReverseBytes64(v)
	}
}

// --- Checksum ---------------------------------------------------------------

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC32 instruction where there is one (SSE4.2, ARMv8).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// UpdateCRC returns crc extended over p by CRC-32C (Castagnoli). It is
// the one checksum on the wire: a columnar frame's header carries
// UpdateCRC(0, data section), a PB payload's trailer that of its records
// and a credit ack that of its first 12 bytes — each over the bytes
// exactly as sent.
func UpdateCRC(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// ChecksumColumns computes the frame checksum of cols: the CRC-32C of
// their wire bytes, little-endian words in column order — the data
// section AppendColumnarFrame writes, so it is the same on every host.
func ChecksumColumns(cols [][]uint64) uint32 {
	var crc uint32
	for _, col := range cols {
		if hostLittle {
			crc = UpdateCRC(crc, ColumnBytes(col))
		} else {
			crc = updateCRCStaged(crc, col)
		}
	}
	return crc
}

// updateCRCStaged extends crc over col's wire bytes staged a block at a
// time: the big-endian host's path, split out so it stays testable on
// little-endian hosts.
func updateCRCStaged(crc uint32, col []uint64) uint32 {
	var buf [512]byte
	for len(col) > 0 {
		n := min(len(col), len(buf)/8)
		for i, v := range col[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		crc = UpdateCRC(crc, buf[:8*n])
		col = col[n:]
	}
	return crc
}

// ColRange is one column's exact value range: the WAL's
// frame-of-reference packer needs each column's min (the base) and max
// (the delta width).
type ColRange struct{ Min, Max uint64 }

// ColumnRanges fills ranges[i] with column i's min/max; ranges must
// have len(cols) entries, and an empty column yields {0, 0}. The loop is
// unrolled four wide, min/max alternating between two accumulator pairs
// so the loop-carried compare chain is half as deep as a naive scan.
func ColumnRanges(cols [][]uint64, ranges []ColRange) {
	for ci, col := range cols {
		var lo, hi uint64
		n := len(col)
		if n > 0 {
			lo, hi = col[0], col[0]
		}
		i := 0
		if n >= 4 {
			lo2, hi2 := lo, hi
			for ; i+4 <= n; i += 4 {
				c := col[i : i+4 : i+4]
				v0, v1, v2, v3 := c[0], c[1], c[2], c[3]
				if v0 < lo {
					lo = v0
				}
				if v0 > hi {
					hi = v0
				}
				if v1 < lo2 {
					lo2 = v1
				}
				if v1 > hi2 {
					hi2 = v1
				}
				if v2 < lo {
					lo = v2
				}
				if v2 > hi {
					hi = v2
				}
				if v3 < lo2 {
					lo2 = v3
				}
				if v3 > hi2 {
					hi2 = v3
				}
			}
			lo, hi = min(lo, lo2), max(hi, hi2)
		}
		for _, v := range col[i:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		ranges[ci] = ColRange{Min: lo, Max: hi}
	}
}

// ChecksumColumnsRanges returns ChecksumColumns(cols) and fills ranges
// as ColumnRanges does: the digest a frame of cols carries, and the scan
// the WAL's packer needs.
func ChecksumColumnsRanges(cols [][]uint64, ranges []ColRange) uint64 {
	ColumnRanges(cols, ranges)
	return uint64(ChecksumColumns(cols))
}

// --- Batch encode/decode ----------------------------------------------------

// AppendColumnarFrame appends one frame (header + data) holding cols to
// dst and returns the extended slice. Columns must be non-empty, of
// equal length, at most 65535 of them and at most 1<<32-1 rows —
// violations are programmer errors and panic. The data is copied first
// and checksummed after, over the bytes just written: the caller's
// columns are read once, and the checksum reads a copy still in cache.
func AppendColumnarFrame(dst []byte, cols [][]uint64) []byte {
	ncols := len(cols)
	if ncols == 0 || ncols > 0xFFFF {
		panic(fmt.Sprintf("parsefmt: columnar: %d columns", ncols))
	}
	nrows := len(cols[0])
	if nrows == 0 || int64(nrows) > 0xFFFFFFFF {
		panic(fmt.Sprintf("parsefmt: columnar: %d rows", nrows))
	}
	for _, c := range cols[1:] {
		if len(c) != nrows {
			panic("parsefmt: columnar: ragged columns")
		}
	}
	start := len(dst)
	dst = append(dst, make([]byte, ColumnarHeaderBytes)...)
	for _, c := range cols {
		dst = appendWireWords(dst, c)
	}
	PutColumnarHeader(dst[start:], ncols, nrows, UpdateCRC(0, dst[start+ColumnarHeaderBytes:]))
	return dst
}

// EncodeColumnarFrame renders one frame holding cols.
func EncodeColumnarFrame(cols [][]uint64) []byte {
	n := int64(ColumnarHeaderBytes) + ColumnarDataBytes(len(cols), len(cols[0]))
	return AppendColumnarFrame(make([]byte, 0, n), cols)
}

// appendWireWords appends a column's little-endian wire bytes.
func appendWireWords(dst []byte, col []uint64) []byte {
	if hostLittle {
		return append(dst, ColumnBytes(col)...)
	}
	var w [8]byte
	for _, v := range col {
		binary.LittleEndian.PutUint64(w[:], v)
		dst = append(dst, w[:]...)
	}
	return dst
}

// DecodeColumnarFrame validates one frame payload and returns its
// columns. The payload must be exactly one frame: every dimension is
// bounds-checked against len(payload) before any data is touched, the
// checksum is verified over the payload before anything is copied out
// of it, and malformed input returns an error — never a panic or an
// over-read. takeCol, when non-nil, supplies
// column storage of the requested length (the pooled-slab seam); nil
// falls back to make.
func DecodeColumnarFrame(payload []byte, takeCol func(rows int) []uint64) ([][]uint64, error) {
	hdr, err := ParseColumnarHeader(payload)
	if err != nil {
		return nil, err
	}
	want := int64(ColumnarHeaderBytes) + ColumnarDataBytes(hdr.NCols, hdr.NRows)
	if int64(len(payload)) != want {
		return nil, fmt.Errorf("parsefmt: columnar: %d-byte payload, header describes %d", len(payload), want)
	}
	data := payload[ColumnarHeaderBytes:]
	if sum := UpdateCRC(0, data); sum != hdr.Checksum {
		return nil, fmt.Errorf("parsefmt: columnar: checksum %#x, frame declares %#x", sum, hdr.Checksum)
	}
	if takeCol == nil {
		takeCol = func(rows int) []uint64 { return make([]uint64, rows) }
	}
	cols := make([][]uint64, hdr.NCols)
	for i := range cols {
		cols[i] = takeCol(hdr.NRows)[:hdr.NRows]
		copy(ColumnBytes(cols[i]), data[:hdr.NRows*8])
		FixWireOrder(cols[i])
		data = data[hdr.NRows*8:]
	}
	return cols, nil
}
