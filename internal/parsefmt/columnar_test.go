package parsefmt

import (
	"bytes"
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

// TestChecksumColumnsRangesMatches pins the wire contract: the fused
// checksum+min/max scan (server ingest) must produce the exact digest
// of ChecksumColumns (client encode) for any geometry — including the
// ragged and sub-unroll column lengths the unrolled loop special-cases
// — along with exact per-column ranges.
func TestChecksumColumnsRangesMatches(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {1, 3}, {2, 4}, {7, 5}, {7, 64}, {3, 1001}, {5, 0}} {
		cols := sampleCols(dims[0], dims[1])
		if dims[0] > 1 && dims[1] > 2 {
			cols[1] = cols[1][:dims[1]-2] // ragged: lane offset shifts mid-frame
		}
		ranges := make([]ColRange, len(cols))
		if got, want := ChecksumColumnsRanges(cols, ranges), ChecksumColumns(cols); got != want {
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

func TestSwapWordsIsWireOrderInverse(t *testing.T) {
	col := []uint64{0, 1, 0x0123456789ABCDEF, ^uint64(0)}
	want := bytes.Clone(ColumnBytes(col))
	swapWords(col)
	swapWords(col)
	if !bytes.Equal(ColumnBytes(col), want) {
		t.Fatal("swapWords is not an involution")
	}
}
