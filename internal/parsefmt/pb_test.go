package parsefmt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// decodePBStrict is DecodePBColumns as it was before the canonical fast
// path, kept as the reference the fuzz target holds the production
// decoder to: one generic varint loop over every field of every record
// through a staging array, from which the columns of fields are copied
// out.
func decodePBStrict(payload []byte, fields FieldSet, take func(rows int) [][]uint64) (cols [][]uint64, err error) {
	rows := 0
	for rest := payload; len(rest) > 0; rows++ {
		msgLen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < msgLen {
			return nil, fmt.Errorf("parsefmt: pb: truncated length prefix")
		}
		if msgLen > maxWireRecordBytes {
			return nil, fmt.Errorf("parsefmt: pb: message of %d bytes exceeds limit", msgLen)
		}
		rest = rest[n+int(msgLen):]
	}
	if rows == 0 {
		return nil, nil
	}
	cols = take(rows)
	for r := 0; r < rows; r++ {
		msgLen, n := binary.Uvarint(payload)
		msg := payload[n : n+int(msgLen)]
		payload = payload[n+int(msgLen):]
		var rec [7]uint64 // absent fields read zero, as in proto3
		for len(msg) > 0 {
			tag := msg[0]
			field := int(tag>>3) - 1
			if tag&7 != 0 || field < 0 || field >= len(rec) {
				return cols, fmt.Errorf("parsefmt: pb: bad field tag %#x", tag)
			}
			v, vn := binary.Uvarint(msg[1:])
			if vn <= 0 {
				return cols, fmt.Errorf("parsefmt: pb: truncated varint")
			}
			rec[field] = v
			msg = msg[1+vn:]
		}
		for i, c := range fields.Cols() {
			cols[i][r] = rec[c]
		}
	}
	return cols, nil
}

// fuzzFields maps a fuzzer's byte onto a nonempty field set.
func fuzzFields(mask uint8) FieldSet {
	if fs := FieldSet(mask) & AllFields; fs != 0 {
		return fs
	}
	return AllFields
}

// wireNarrow is the field set of the network benchmarks' plans: key,
// value and event time.
const wireNarrow FieldSet = 1<<0 | 1<<3 | 1<<6

// takeLog is a column source of ncols columns that records the row
// count of every call.
type takeLog struct {
	rows  []int
	ncols int
}

func (l *takeLog) take(rows int) [][]uint64 {
	l.rows = append(l.rows, rows)
	return (&makeCols{ncols: l.ncols}).take(rows)
}

// appendPBReference is AppendPB's byte-level definition: a length
// byte, then per field of fields, ascending, its tag and
// binary.AppendUvarint of its value.
func appendPBReference(dst []byte, recs []Record, fields FieldSet) []byte {
	for _, r := range recs {
		at := len(dst)
		dst = append(dst, 0)
		for i, v := range r.Cols() {
			if fields.Has(i) {
				dst = append(dst, byte((i+1)<<3))
				dst = binary.AppendUvarint(dst, v)
			}
		}
		dst[at] = byte(len(dst) - at - 1)
	}
	return dst
}

// pbEdgeRecords carries every varint length AppendPB can write, at both
// ends of the lengths where a value gains a byte, and the 10-byte
// varints whose last byte is 0x01.
func pbEdgeRecords() []Record {
	return []Record{
		{0, 127, 128, 1<<14 - 1, 1 << 14, 1<<56 - 1, 1 << 56},
		{1 << 63, math.MaxUint64, 0, 0, 0, 0, 0},
	}
}

// FuzzDecodePBMatchesStrict holds DecodePBColumns to decodePBStrict on
// every input and field set: the same accept or reject (with the same
// error), the same take calls with the same row counts, and on accept
// the same columns. A rejected decode's columns are storage to give
// back, not results, so only their presence is compared.
func FuzzDecodePBMatchesStrict(f *testing.F) {
	all := uint8(AllFields)
	canonical := EncodePB(append(sampleFuzzRecords(), wireShapedRecs(3)...))
	edges := EncodePB(pbEdgeRecords())
	// The second record's second field is MaxUint64: ten bytes ending in
	// 0x01. Bumping that byte to 0x02 overflows 64 bits.
	overflow := bytes.Clone(edges)
	last := 1 + int(edges[0]) + 1 + 11 + 1 + 9
	if overflow[last] != 0x01 {
		f.Fatalf("edge encoding moved: byte %d is %#x", last, overflow[last])
	}
	overflow[last] = 0x02
	// A canonical record whose third tag names field 8 or wire type 1.
	field8 := bytes.Clone(canonical)
	field8[5] = 8 << 3
	wire1 := bytes.Clone(canonical)
	wire1[5] = 3<<3 | 1
	// The first canonical record with field 7 appended again.
	repeat := append(slices.Clone(canonical[:1+int(canonical[0])]), 0x38, 0x05)
	repeat[0] += 2
	one := EncodePB(wireShapedRecs(1))
	// Projected canonical records, as a session of the narrow plan sends.
	narrow := AppendPB(nil, append(sampleFuzzRecords(), wireShapedRecs(3)...), wireNarrow)
	narrowEdges := AppendPB(nil, pbEdgeRecords(), wireNarrow)
	// A narrow record lacking its value field: ad_id 1, event_time 9.
	missing := []byte{0x04, 0x08, 0x01, 0x38, 0x09}

	f.Add(all, canonical)
	f.Add(all, edges)
	f.Add(all, overflow)
	f.Add(all, field8)
	f.Add(all, wire1)
	f.Add(all, repeat)
	f.Add(all, []byte{0x04, 0x10, 0x01, 0x08, 0x02})       // fields out of order
	f.Add(all, []byte{0x04, 0x08, 0x01, 0x08, 0x02})       // field 1 repeated: last wins
	f.Add(all, []byte{0x02, 0x18, 0x05})                   // one field of seven present
	f.Add(all, []byte{0x02, 0x00, 0x01})                   // field 0
	f.Add(all, []byte{0x02, 0x40, 0x01})                   // field 8
	f.Add(all, []byte{0x02, 0x09, 0x01})                   // wire type 1
	f.Add(all, []byte{0x02, 0x08, 0x80, 0x02, 0x08, 0x01}) // a varint that runs into the next record
	f.Add(all, []byte{0x00})                               // a zero-length record
	f.Add(all, slices.Concat(one, []byte{0x00}, one))      // ... between two canonical ones
	f.Add(all, canonical[:len(canonical)-3])               // the last record truncated
	f.Add(uint8(wireNarrow), narrow)                       // projected canonical records
	f.Add(uint8(wireNarrow), narrowEdges)                  // ... at every varint length
	f.Add(uint8(wireNarrow), canonical)                    // whole records: unmasked fields dropped
	f.Add(uint8(wireNarrow), missing)                      // a masked field absent: reads zero
	f.Add(uint8(1<<6), narrow)                             // a narrower set than was sent
	f.Add(all, narrow)                                     // a wider one
	f.Fuzz(func(t *testing.T, mask uint8, data []byte) {
		fields := fuzzFields(mask)
		got, want := takeLog{ncols: fields.Len()}, takeLog{ncols: fields.Len()}
		gotCols, gotErr := DecodePBColumns(data, fields, got.take)
		wantCols, wantErr := decodePBStrict(data, fields, want.take)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, strict decoder says %v", gotErr, wantErr)
		}
		if !slices.Equal(got.rows, want.rows) {
			t.Fatalf("take called for rows %v, strict decoder %v", got.rows, want.rows)
		}
		if (gotCols == nil) != (wantCols == nil) {
			t.Fatalf("columns returned: %v, strict decoder: %v", gotCols != nil, wantCols != nil)
		}
		if gotErr == nil && !reflect.DeepEqual(gotCols, wantCols) {
			t.Fatalf("columns differ from the strict decoder's:\n%v\n%v", gotCols, wantCols)
		}
	})
}

// TestDecodePBProjects pins the field set's three cases by value: a
// projected canonical record, a whole record whose unmasked fields are
// decoded and dropped, and a record lacking a masked field, which reads
// zero.
func TestDecodePBProjects(t *testing.T) {
	rec := Record{AdID: 1, AdType: 2, EventType: 3, UserID: 4, PageID: 5, IP: 6, EventTime: 7}
	for name, tc := range map[string]struct {
		data []byte
		want [][]uint64
	}{
		"projected":      {AppendPB(nil, []Record{rec}, wireNarrow), [][]uint64{{1}, {4}, {7}}},
		"whole record":   {EncodePB([]Record{rec}), [][]uint64{{1}, {4}, {7}}},
		"value missing":  {[]byte{0x04, 0x08, 0x01, 0x38, 0x09}, [][]uint64{{1}, {0}, {9}}},
		"only the value": {[]byte{0x02, 0x20, 0x05}, [][]uint64{{0}, {5}, {0}}},
	} {
		cols, err := DecodePBColumns(tc.data, wireNarrow, (&makeCols{ncols: 3}).take)
		if err != nil || !reflect.DeepEqual(cols, tc.want) {
			t.Errorf("%s: %v, %v; want %v", name, cols, err, tc.want)
		}
	}
	if got, want := len(AppendPB(nil, []Record{rec}, wireNarrow)), 1+3*2; got != want {
		t.Errorf("a narrow record of one-byte values takes %d bytes, want %d", got, want)
	}
}

// TestEncodePBGolden pins the PB row wire's bytes: every varint length
// from one byte to ten, at the values where a length changes.
func TestEncodePBGolden(t *testing.T) {
	const want = "21" + // record 1: 33 bytes
		"0800" + "107f" + "188001" + "20ff7f" + "28808001" +
		"30ffffffffffffff7f" + "38808080808080808001" +
		"20" + // record 2: 32 bytes
		"0880808080808080808001" + "10ffffffffffffffffff01" +
		"1800" + "2000" + "2800" + "3000" + "3800"
	if got := hex.EncodeToString(EncodePB(pbEdgeRecords())); got != want {
		t.Fatalf("EncodePB = %s\nwant        %s", got, want)
	}
}

// TestPropAppendPBMatchesReference holds AppendPB to appendPBReference on
// random records whose values take every varint length, under random
// field sets, appending after a prefix that must stay as it was, with
// and without spare capacity.
func TestPropAppendPBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		recs := make([]Record, rng.Intn(40))
		for i := range recs {
			var c [7]uint64
			for f := range c {
				c[f] = rng.Uint64() >> rng.Intn(65)
			}
			recs[i] = fromCols(c)
		}
		fields := AllFields
		if trial%2 == 1 {
			fields = fuzzFields(uint8(rng.Intn(256)))
		}
		prefix := []byte("prefix")
		want := appendPBReference(slices.Clone(prefix), recs, fields)
		for _, spare := range []int{0, rng.Intn(4 * maxPBRecordBytes)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got := AppendPB(dst, recs, fields)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d, fields %v, %d spare: AppendPB differs from the reference\n%x\n%x", trial, fields, spare, got, want)
			}
			if !bytes.Equal(dst, prefix) {
				t.Fatalf("trial %d: the prefix became %q", trial, dst)
			}
		}
	}
}
