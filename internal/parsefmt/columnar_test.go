package parsefmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

func sampleCols(ncols, nrows int) [][]uint64 {
	cols := make([][]uint64, ncols)
	for i := range cols {
		cols[i] = make([]uint64, nrows)
		for r := range cols[i] {
			cols[i][r] = uint64(i)<<32 ^ uint64(r)*2654435761
		}
	}
	return cols
}

func TestColumnarFrameRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {7, 64}, {3, 1000}} {
		cols := sampleCols(dims[0], dims[1])
		frame := EncodeColumnarFrame(cols)
		want := int64(ColumnarHeaderBytes) + ColumnarDataBytes(dims[0], dims[1])
		if int64(len(frame)) != want {
			t.Fatalf("%v: frame is %d bytes, want %d", dims, len(frame), want)
		}
		got, err := DecodeColumnarFrame(frame, nil)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !reflect.DeepEqual(got, cols) {
			t.Fatalf("%v: columns changed across the round trip", dims)
		}
	}
}

// TestColumnarDecodeTakeCol pins the pooled-slab seam: storage with
// excess capacity and stale contents must come back trimmed and
// correct.
func TestColumnarDecodeTakeCol(t *testing.T) {
	cols := sampleCols(7, 33)
	frame := EncodeColumnarFrame(cols)
	taken := 0
	got, err := DecodeColumnarFrame(frame, func(rows int) []uint64 {
		taken++
		slab := make([]uint64, rows+100)
		for i := range slab {
			slab[i] = ^uint64(0) // stale garbage the copy must overwrite
		}
		return slab
	})
	if err != nil || taken != 7 {
		t.Fatalf("takeCol used %d times, err %v", taken, err)
	}
	for i := range got {
		if len(got[i]) != 33 || !reflect.DeepEqual(got[i], cols[i]) {
			t.Fatalf("col %d wrong through pooled storage", i)
		}
	}
}

func TestColumnarRejectsMalformedFrames(t *testing.T) {
	good := EncodeColumnarFrame(sampleCols(7, 16))
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(good)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:10],
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"reserved16":       mutate(func(b []byte) { b[6] = 1 }),
		"reserved32":       mutate(func(b []byte) { b[12] = 1 }),
		"zero cols":        mutate(func(b []byte) { b[4], b[5] = 0, 0 }),
		"zero rows":        mutate(func(b []byte) { b[8], b[9], b[10], b[11] = 0, 0, 0, 0 }),
		"truncated data":   good[:len(good)-1],
		"trailing bytes":   append(bytes.Clone(good), 0),
		"rows beyond data": mutate(func(b []byte) { b[8]++ }),
		"bad checksum":     mutate(func(b []byte) { b[16] ^= 1 }),
		"reserved crc":     mutate(func(b []byte) { b[20] = 1 }),
		"reserved crc top": mutate(func(b []byte) { b[23] = 0x80 }),
		"corrupt word":     mutate(func(b []byte) { b[ColumnarHeaderBytes+3] ^= 0x80 }),
	}
	for name, frame := range cases {
		if _, err := DecodeColumnarFrame(frame, nil); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := DecodeColumnarFrame(good, nil); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
}

func TestChecksumColumnsSensitivity(t *testing.T) {
	cols := sampleCols(7, 64)
	base := ChecksumColumns(cols)
	cols[3][17]++
	if ChecksumColumns(cols) == base {
		t.Fatal("checksum blind to a single-word change")
	}
	cols[3][17]--
	if ChecksumColumns(cols) != base {
		t.Fatal("checksum not deterministic")
	}
	// Column order matters: swapping two equal-length columns must not
	// collide (the words travel in column order).
	swapped := [][]uint64{cols[1], cols[0]}
	if ChecksumColumns(cols[:2]) == ChecksumColumns(swapped) {
		t.Fatal("checksum blind to column order")
	}
}

// TestChecksumColumnsRangesMatches pins the benchmark's replay seam:
// ChecksumColumnsRanges returns the digest of ChecksumColumns for any
// geometry — ragged and sub-unroll column lengths included — along with
// exact per-column ranges.
func TestChecksumColumnsRangesMatches(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 3}, {2, 4}, {7, 5}, {7, 64}, {3, 1001}, {5, 0}} {
		cols := sampleCols(dims[0], dims[1])
		if dims[0] > 1 && dims[1] > 2 {
			cols[1] = cols[1][:dims[1]-2] // ragged: the unroll's tail differs per column
		}
		ranges := make([]ColRange, len(cols))
		if got, want := ChecksumColumnsRanges(cols, ranges), uint64(ChecksumColumns(cols)); got != want {
			t.Fatalf("%v: fused checksum %#x, ChecksumColumns %#x", dims, got, want)
		}
		for ci, col := range cols {
			var lo, hi uint64
			if len(col) > 0 {
				lo, hi = col[0], col[0]
				for _, v := range col {
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
			}
			if ranges[ci] != (ColRange{Min: lo, Max: hi}) {
				t.Fatalf("%v col %d: range %+v, want {%d %d}", dims, ci, ranges[ci], lo, hi)
			}
		}
	}
}

// checksumColumnsRef is the frame checksum from its definition, with
// the standard library alone: each word's little-endian bytes
// (encoding/binary), in column order, fed to crc32.Checksum with the
// Castagnoli table.
func checksumColumnsRef(cols [][]uint64) uint32 {
	var wire []byte
	for _, col := range cols {
		for _, w := range col {
			wire = binary.LittleEndian.AppendUint64(wire, w)
		}
	}
	return crc32.Checksum(wire, crc32.MakeTable(crc32.Castagnoli))
}

// goldenFrames are the geometries TestChecksumColumnsGolden pins: 1, 3
// and 7 columns of 1, 3, 5 and 4 097 rows — below, at and past one
// staging block of the big-endian path — and a ragged frame, an empty
// column among them.
func goldenFrames() map[string][][]uint64 {
	frames := make(map[string][][]uint64)
	for _, ncols := range []int{1, 3, 7} {
		for _, nrows := range []int{1, 3, 5, 4097} {
			frames[fmt.Sprintf("%dx%d", ncols, nrows)] = sampleCols(ncols, nrows)
		}
	}
	ragged := sampleCols(5, 4097)
	ragged[1], ragged[2], ragged[3], ragged[4] = ragged[1][:3], ragged[2][:0], ragged[3][:6], ragged[4][:1]
	frames["ragged"] = ragged
	return frames
}

// TestChecksumColumnsGolden pins the wire bytes: the digests frames
// carry, as literals computed by checksumColumnsRef, against the
// reference itself, ChecksumColumns, ChecksumColumnsRanges, the staged
// path big-endian hosts take and — for every frame a sender can encode —
// the header AppendColumnarFrame writes. The literals changed with wire
// version 5, when the digest became the CRC-32C of the data bytes.
func TestChecksumColumnsGolden(t *testing.T) {
	golden := map[string]uint32{
		"1x1": 0x8c28b28a, "1x3": 0x0a64cbb8, "1x5": 0x55e85085, "1x4097": 0xcf99949a,
		"3x1": 0x0aed1b5f, "3x3": 0x979f8544, "3x5": 0x6b05d068, "3x4097": 0x3fb1fed2,
		"7x1": 0x1ca13a02, "7x3": 0x681a366e, "7x5": 0xee7586d7, "7x4097": 0x2a855006,
		"ragged": 0x15be4d40,
	}
	frames := goldenFrames()
	if len(frames) != len(golden) {
		t.Fatalf("%d frames for %d golden digests", len(frames), len(golden))
	}
	for name, cols := range frames {
		want, ok := golden[name]
		if !ok {
			t.Fatalf("frame %s has no golden digest", name)
		}
		ranges := make([]ColRange, len(cols))
		var staged uint32
		for _, col := range cols {
			staged = updateCRCStaged(staged, col)
		}
		loops := map[string]uint32{
			"reference":             checksumColumnsRef(cols),
			"ChecksumColumns":       ChecksumColumns(cols),
			"ChecksumColumnsRanges": uint32(ChecksumColumnsRanges(cols, ranges)),
			"staged":                staged,
		}
		if name != "ragged" {
			hdr, err := ParseColumnarHeader(EncodeColumnarFrame(cols))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loops["AppendColumnarFrame"] = hdr.Checksum
		}
		for loop, got := range loops {
			if got != want {
				t.Errorf("%s: %s digest %#08x, golden %#08x", name, loop, got, want)
			}
		}
	}
}

// TestCRC32CKnownAnswer pins UpdateCRC to the published CRC-32C check
// value, and its chaining: a digest extended piecewise equals the
// digest of the whole.
func TestCRC32CKnownAnswer(t *testing.T) {
	if got := UpdateCRC(0, []byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC-32C(\"123456789\") = %#08x, want 0xe3069283", got)
	}
	if got := UpdateCRC(UpdateCRC(0, []byte("1234")), []byte("56789")); got != 0xE3069283 {
		t.Fatalf("chained CRC-32C = %#08x, want 0xe3069283", got)
	}
}

// TestColumnarFrameDetectsEveryBitFlip: any one-bit flip anywhere in a
// 7 × 5 frame — header or data — is refused by the decoder.
func TestColumnarFrameDetectsEveryBitFlip(t *testing.T) {
	frame := EncodeColumnarFrame(sampleCols(7, 5))
	for bit := 0; bit < len(frame)*8; bit++ {
		frame[bit/8] ^= 1 << (bit % 8)
		if _, err := DecodeColumnarFrame(frame, nil); err == nil {
			t.Fatalf("bit %d (byte %d) flipped and the frame still decoded", bit, bit/8)
		}
		frame[bit/8] ^= 1 << (bit % 8)
	}
	if _, err := DecodeColumnarFrame(frame, nil); err != nil {
		t.Fatalf("restored frame rejected: %v", err)
	}
}

// BenchmarkChecksumColumns prices the frame checksum over a 4 096-record
// frame of seven columns, the net workloads' frame.
func BenchmarkChecksumColumns(b *testing.B) {
	cols := sampleCols(7, 4096)
	for b.Loop() {
		ChecksumColumns(cols)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(7*4096), "ns/word")
}

func TestSwapWordsIsWireOrderInverse(t *testing.T) {
	col := []uint64{0, 1, 0x0123456789ABCDEF, ^uint64(0)}
	want := bytes.Clone(ColumnBytes(col))
	swapWords(col)
	swapWords(col)
	if !bytes.Equal(ColumnBytes(col), want) {
		t.Fatal("swapWords is not an involution")
	}
}
