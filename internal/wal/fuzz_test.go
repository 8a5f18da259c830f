package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"streambox/internal/parsefmt"
)

// EncodeRecord serializes one record for the fuzzer — the
// exact bytes Append writes into a segment.
func EncodeRecord(rec *Record) []byte {
	cols := make([][]uint64, rec.NCols)
	for c := range cols {
		cols[c] = rec.Data[c*rec.NRows : (c+1)*rec.NRows]
	}
	ranges := make([]parsefmt.ColRange, len(cols))
	parsefmt.ColumnRanges(cols, ranges)
	return appendRecord(nil, rec.Kind, rec.Token, rec.Conn, rec.Seq, rec.MaxTs, rec.Fields, cols, ranges, rec.NRows)
}

func sampleRecords() [][]byte {
	frame := &Record{
		Kind: KindFrame, Token: 0xfeedface, Conn: 9, Seq: 41, MaxTs: 123456,
		NCols: 3, NRows: 4, Fields: 1<<0 | 1<<3 | 1<<6,
		Data: []uint64{1, 2, 3, 4, 10, 20, 30, 40, 100, 200, 300, 400},
	}
	valid := EncodeRecord(frame)
	endRec := EncodeRecord(&Record{Kind: KindSessionEnd, Token: 0xfeedface, Conn: 9})
	openRec := EncodeRecord(&Record{Kind: KindSessionOpen, Token: 0xfeedface, Conn: 9})

	truncated := valid[:len(valid)-5]
	corrupt := bytes.Clone(valid)
	corrupt[20] ^= 0x04
	badKind := bytes.Clone(valid)
	badKind[4] = 0x7f
	hugeLen := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(hugeLen, 0xfffffff0)
	badGeom := bytes.Clone(valid)
	binary.LittleEndian.PutUint16(badGeom[4+33:], 999) // ncols no longer matches body
	badMask := bytes.Clone(valid)
	badMask[4+39] = 1 // one column named for three

	return [][]byte{
		valid, endRec, openRec, truncated, corrupt, badKind, hugeLen, badGeom, badMask,
		{}, {0, 0, 0, 0}, bytes.Repeat([]byte{0xff}, 64),
	}
}

// FuzzWALRecord drives the segment record decoder with arbitrary bytes:
// it must never panic, never report consuming more bytes than it was
// given, and any record it accepts must re-encode to the exact bytes it
// consumed.
func FuzzWALRecord(f *testing.F) {
	for _, s := range sampleRecords() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		n, err := DecodeRecord(data, segVersion, &rec)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v but consumed %d bytes", err, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if rec.NCols*rec.NRows != len(rec.Data) {
			t.Fatalf("geometry %dx%d vs %d data words", rec.NCols, rec.NRows, len(rec.Data))
		}
		round := EncodeRecord(&rec)
		if !bytes.Equal(round, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", round, data[:n])
		}
	})
}
