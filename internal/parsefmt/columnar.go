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
//	offset 16: checksum, uint64 little-endian (xxHash64-derived, over
//	           the data words in column order)
//	offset 24: data — ncols columns back to back, each nrows
//	           little-endian uint64 values
//
// Unlike the big-endian handshake/framing integers, columnar payloads
// are little-endian on the wire: that is the native order of every
// deployment host, so the receive path lands socket bytes directly in
// column slabs and FixWireOrder is a no-op (big-endian hosts swap in
// place). The checksum is defined over the decoded values, not the raw
// bytes, so both ends compute it over their native representation.
package parsefmt

import (
	"encoding/binary"
	"fmt"
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
	Checksum     uint64
}

// ColumnarDataBytes returns the data-section size of an ncols × nrows
// frame.
func ColumnarDataBytes(ncols, nrows int) int64 {
	return int64(ncols) * int64(nrows) * 8
}

// PutColumnarHeader writes a frame header into dst (at least
// ColumnarHeaderBytes long).
func PutColumnarHeader(dst []byte, ncols, nrows int, checksum uint64) {
	_ = dst[:ColumnarHeaderBytes]
	copy(dst, columnarMagic[:])
	binary.LittleEndian.PutUint16(dst[4:], uint16(ncols))
	binary.LittleEndian.PutUint16(dst[6:], 0)
	binary.LittleEndian.PutUint32(dst[8:], uint32(nrows))
	binary.LittleEndian.PutUint32(dst[12:], 0)
	binary.LittleEndian.PutUint64(dst[16:], checksum)
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
	if binary.LittleEndian.Uint16(h[6:]) != 0 || binary.LittleEndian.Uint32(h[12:]) != 0 {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: nonzero reserved header bytes")
	}
	hdr := ColumnarHeader{
		NCols:    int(binary.LittleEndian.Uint16(h[4:])),
		NRows:    int(binary.LittleEndian.Uint32(h[8:])),
		Checksum: binary.LittleEndian.Uint64(h[16:]),
	}
	if hdr.NCols == 0 || hdr.NRows == 0 {
		return ColumnarHeader{}, fmt.Errorf("parsefmt: columnar: empty frame (%d cols × %d rows)", hdr.NCols, hdr.NRows)
	}
	return hdr, nil
}

// ColumnBytes aliases a column's backing array as bytes, in host
// representation, so the receive path can io.ReadFull socket bytes
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

// xxHash64 primes.
const (
	xxhPrime1 = 0x9E3779B185EBCA87
	xxhPrime2 = 0xC2B2AE3D27D4EB4F
	xxhPrime3 = 0x165667B19E3779F9
)

func xxhRound(acc, w uint64) uint64 {
	acc += w * xxhPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxhPrime1
}

func xxhMerge(h, acc uint64) uint64 {
	h ^= xxhRound(0, acc)
	return h*xxhPrime1 + 0x85EBCA77C2B2AE63
}

// ChecksumColumns computes the frame checksum: an xxHash64-derived
// digest over the batch's words in column order, word i feeding hash
// lane i mod 4. One multiply+rotate per word keeps it far off the ingest
// critical path's bandwidth, and operating on values (not bytes) makes
// it endian-independent.
//
// The loop is ChecksumColumnsRanges' without the ranges: four words per
// step, each slot keeping a fixed lane in a register of its own for the
// whole column, where indexing the lanes by a variable would keep them
// in memory.
func ChecksumColumns(cols [][]uint64) uint64 {
	acc := [4]uint64{xxhPrime1, xxhPrime2, 0, 0}
	acc[0] += xxhPrime2 // wrapping variable arithmetic: these sums overflow as constants
	acc[3] -= xxhPrime1
	lane := 0
	var words uint64
	for _, col := range cols {
		n := len(col)
		i := 0
		if n >= 4 {
			l0, l1, l2, l3 := lane, (lane+1)&3, (lane+2)&3, (lane+3)&3
			a0, a1, a2, a3 := acc[l0], acc[l1], acc[l2], acc[l3]
			for ; i+4 <= n; i += 4 {
				c := col[i : i+4 : i+4]
				a0 = xxhRound(a0, c[0])
				a1 = xxhRound(a1, c[1])
				a2 = xxhRound(a2, c[2])
				a3 = xxhRound(a3, c[3])
			}
			acc[l0], acc[l1], acc[l2], acc[l3] = a0, a1, a2, a3
		}
		for ; i < n; i++ {
			acc[(lane+i)&3] = xxhRound(acc[(lane+i)&3], col[i])
		}
		lane = (lane + n) & 3
		words += uint64(n)
	}
	return xxhFinal(acc, words)
}

// ColRange is one column's exact value range. The WAL's
// frame-of-reference packer needs each column's min (the base) and max
// (the delta width); computing them in the checksum pass costs two
// compares on words already in registers, where a separate scan would
// re-stream the whole frame.
type ColRange struct{ Min, Max uint64 }

// ChecksumColumnsRanges computes the same digest as ChecksumColumns —
// bit for bit, both ends of the wire must agree — and fills ranges[i]
// with column i's min/max in the same pass. ranges must have len(cols)
// entries; an empty column yields {0, 0}.
//
// The loop is unrolled four wide: each slot keeps a fixed hash lane
// (lane is the global word index mod 4, so advancing four words leaves
// every slot's lane unchanged), and min/max alternates between two
// accumulator pairs so the loop-carried compare chain is half as deep
// as a naive fused scan.
func ChecksumColumnsRanges(cols [][]uint64, ranges []ColRange) uint64 {
	acc := [4]uint64{xxhPrime1, xxhPrime2, 0, 0}
	acc[0] += xxhPrime2
	acc[3] -= xxhPrime1
	lane := 0
	var words uint64
	for ci, col := range cols {
		var lo, hi uint64
		n := len(col)
		if n > 0 {
			lo, hi = col[0], col[0]
		}
		i := 0
		if n >= 4 {
			lo2, hi2 := lo, hi
			l0, l1, l2, l3 := lane, (lane+1)&3, (lane+2)&3, (lane+3)&3
			a0, a1, a2, a3 := acc[l0], acc[l1], acc[l2], acc[l3]
			for ; i+4 <= n; i += 4 {
				c := col[i : i+4 : i+4]
				v0, v1, v2, v3 := c[0], c[1], c[2], c[3]
				a0 = xxhRound(a0, v0)
				a1 = xxhRound(a1, v1)
				a2 = xxhRound(a2, v2)
				a3 = xxhRound(a3, v3)
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
			acc[l0], acc[l1], acc[l2], acc[l3] = a0, a1, a2, a3
			if lo2 < lo {
				lo = lo2
			}
			if hi2 > hi {
				hi = hi2
			}
		}
		for ; i < n; i++ {
			v := col[i]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			acc[(lane+i)&3] = xxhRound(acc[(lane+i)&3], v)
		}
		lane = (lane + n) & 3
		words += uint64(n)
		ranges[ci] = ColRange{Min: lo, Max: hi}
	}
	return xxhFinal(acc, words)
}

func xxhFinal(acc [4]uint64, words uint64) uint64 {
	h := bits.RotateLeft64(acc[0], 1) + bits.RotateLeft64(acc[1], 7) +
		bits.RotateLeft64(acc[2], 12) + bits.RotateLeft64(acc[3], 18)
	for _, a := range acc {
		h = xxhMerge(h, a)
	}
	h ^= words * 8
	h ^= h >> 33
	h *= xxhPrime2
	h ^= h >> 29
	h *= xxhPrime3
	h ^= h >> 32
	return h
}

// --- Batch encode/decode ----------------------------------------------------

// AppendColumnarFrame appends one frame (header + data) holding cols to
// dst and returns the extended slice. Columns must be non-empty, of
// equal length, at most 65535 of them and at most 1<<32-1 rows —
// violations are programmer errors and panic.
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
	var hdr [ColumnarHeaderBytes]byte
	PutColumnarHeader(hdr[:], ncols, nrows, ChecksumColumns(cols))
	dst = append(dst, hdr[:]...)
	for _, c := range cols {
		dst = appendWireWords(dst, c)
	}
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
// checksum must match, and malformed input returns an error — never a
// panic or an over-read. takeCol, when non-nil, supplies column storage
// of the requested length (the pooled-slab seam); nil falls back to
// make.
func DecodeColumnarFrame(payload []byte, takeCol func(rows int) []uint64) ([][]uint64, error) {
	hdr, err := ParseColumnarHeader(payload)
	if err != nil {
		return nil, err
	}
	want := int64(ColumnarHeaderBytes) + ColumnarDataBytes(hdr.NCols, hdr.NRows)
	if int64(len(payload)) != want {
		return nil, fmt.Errorf("parsefmt: columnar: %d-byte payload, header describes %d", len(payload), want)
	}
	if takeCol == nil {
		takeCol = func(rows int) []uint64 { return make([]uint64, rows) }
	}
	cols := make([][]uint64, hdr.NCols)
	data := payload[ColumnarHeaderBytes:]
	for i := range cols {
		cols[i] = takeCol(hdr.NRows)[:hdr.NRows]
		copy(ColumnBytes(cols[i]), data[:hdr.NRows*8])
		FixWireOrder(cols[i])
		data = data[hdr.NRows*8:]
	}
	if sum := ChecksumColumns(cols); sum != hdr.Checksum {
		return nil, fmt.Errorf("parsefmt: columnar: checksum %#x, frame declares %#x", sum, hdr.Checksum)
	}
	return cols, nil
}
