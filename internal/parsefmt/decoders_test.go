package parsefmt

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

func wireSampleRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		u := uint64(i)
		recs[i] = Record{
			AdID:      u % 97,
			AdType:    u % 5,
			EventType: u % 3,
			UserID:    u * 2654435761,
			PageID:    u % 1000,
			IP:        0xC0A80000 + u,
			EventTime: u * 100,
		}
	}
	return recs
}

// makeCols is the plain-make column source of ncols columns (zero: all
// seven); takes counts its calls and the largest row count asked of it.
type makeCols struct{ takes, maxRows, ncols int }

func (m *makeCols) take(rows int) [][]uint64 {
	m.takes++
	if rows > m.maxRows {
		m.maxRows = rows
	}
	ncols := m.ncols
	if ncols == 0 {
		ncols = pbFields
	}
	cols := make([][]uint64, ncols)
	for i := range cols {
		cols[i] = make([]uint64, rows)
		for r := range cols[i] {
			cols[i][r] = ^uint64(0) // stale slab contents the decoder must overwrite
		}
	}
	return cols
}

// recordsOf transposes decoded columns back into records.
func recordsOf(cols [][]uint64) []Record {
	if cols == nil {
		return nil
	}
	recs := make([]Record, len(cols[0]))
	for r := range recs {
		recs[r] = fromCols([7]uint64{cols[0][r], cols[1][r], cols[2][r], cols[3][r], cols[4][r], cols[5][r], cols[6][r]})
	}
	return recs
}

// decodeAll runs every decoder of format f over data and returns the
// records each produced (PB has two: the library-style batch decoder of
// Figure 11 and the strict column decoder the server runs).
func decodeAll(f Format, data []byte) (out [][]Record, errs []error) {
	recs, err := Decode(f, data)
	out, errs = append(out, recs), append(errs, err)
	if f == PB {
		var m makeCols
		cols, err := DecodePBColumns(data, AllFields, m.take)
		if err != nil {
			cols = nil
		}
		out, errs = append(out, recordsOf(cols)), append(errs, err)
	}
	return out, errs
}

// TestStreamDecodersRoundTrip checks every format's decoders return
// exactly the records that were encoded.
func TestStreamDecodersRoundTrip(t *testing.T) {
	recs := wireSampleRecords(257)
	for _, f := range []Format{JSON, PB, Text} {
		got, errs := decodeAll(f, Encode(f, recs))
		for i := range got {
			if errs[i] != nil || !reflect.DeepEqual(got[i], recs) {
				t.Fatalf("%v decoder %d: round trip mismatch (err %v)", f, i, errs[i])
			}
		}
	}
}

// TestStreamDecodersTruncated checks every format reports an error (not
// a panic, not silent success) on a truncated payload — and, for the
// column decoder, at every possible cut: a cut on a record boundary
// decodes exactly the whole records before it, any other cut is an
// error, and neither borrows more rows than the cut payload holds.
func TestStreamDecodersTruncated(t *testing.T) {
	recs := wireSampleRecords(4)
	for _, f := range []Format{JSON, PB, Text} {
		data := Encode(f, recs)
		cut := len(data) - 3
		if f == Text {
			// Cutting mid-digit leaves a shorter but valid number, which
			// no CSV decoder can detect; cut a whole field instead.
			cut = bytes.LastIndexByte(data, ',')
		}
		_, errs := decodeAll(f, data[:cut])
		for i, err := range errs {
			if err == nil {
				t.Fatalf("%v decoder %d: truncated payload decoded cleanly", f, i)
			}
		}
	}

	data := EncodePB(recs)
	boundary := map[int]int{0: 0} // byte offset → whole records before it
	for i := range recs {
		boundary[len(EncodePB(recs[:i+1]))] = i + 1
	}
	for cut := 0; cut <= len(data); cut++ {
		var m makeCols
		cols, err := DecodePBColumns(data[:cut], AllFields, m.take)
		if whole, onBoundary := boundary[cut]; !onBoundary {
			if err == nil {
				t.Fatalf("cut %d mid-record decoded cleanly", cut)
			}
		} else if got := recordsOf(cols); err != nil || !slices.Equal(got, recs[:whole]) {
			t.Fatalf("cut %d (after record %d): %d records, err %v", cut, whole, len(got), err)
		}
		if m.maxRows > len(recs) || m.takes > 1 {
			t.Fatalf("cut %d: %d takes, largest of %d rows", cut, m.takes, m.maxRows)
		}
	}
}

// TestStreamDecoderGarbage checks malformed bytes surface as errors on
// every format.
func TestStreamDecoderGarbage(t *testing.T) {
	garbage := []byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xffnot,a,record\n")
	for _, f := range []Format{JSON, PB, Text} {
		_, errs := decodeAll(f, garbage)
		for i, err := range errs {
			if err == nil {
				t.Fatalf("%v decoder %d: garbage decoded cleanly", f, i)
			}
		}
	}
}

// TestTextOverflowRejected checks the text decoder rejects values that
// would overflow uint64 instead of silently wrapping.
func TestTextOverflowRejected(t *testing.T) {
	if _, err := DecodeText([]byte("99999999999999999999999,1,2,3,4,5,6\n")); err == nil {
		t.Fatal("decoder accepted overflowing value")
	}
}

// TestPBOversizedMessageRejected checks the column decoder bounds every
// record before it borrows storage: neither a length prefix claiming
// more than the payload holds nor a record that is really there but
// past the per-record limit reaches take.
func TestPBOversizedMessageRejected(t *testing.T) {
	huge := append([]byte{0x81, 0x80, 0x04}, make([]byte, maxWireRecordBytes+1)...) // 65537 zero bytes: all there, too long
	for name, data := range map[string][]byte{
		"1 GiB length prefix":    {0x80, 0x80, 0x80, 0x80, 0x04, 0x08, 0x01},
		"record past the limit":  huge,
		"good record, then huge": append(EncodePB(wireSampleRecords(1)), huge...),
	} {
		var m makeCols
		if _, err := DecodePBColumns(data, AllFields, m.take); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if m.takes != 0 {
			t.Fatalf("%s: storage borrowed before the payload was bounded", name)
		}
	}
}
