package parsefmt

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecodePB throws arbitrary bytes at the strict column decoder the
// server runs on untrusted network payloads, under a field set the
// fuzzer draws. It must return an error rather than panic or read past
// the payload; it must never borrow storage for more rows than the
// payload has length prefixes (so never more than its bytes); on every
// input the tolerant library decoder accepts too, the two must agree on
// the set's columns; and what it decodes must re-encode under the set
// and decode to the same columns.
func FuzzDecodePB(f *testing.F) {
	all := uint8(AllFields)
	f.Add(all, EncodePB(sampleFuzzRecords()))
	f.Add(all, []byte{})
	f.Add(all, []byte{0x00})
	f.Add(all, []byte{0x09, 0x08, 0x01, 0x10, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(all, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(all, []byte{0x02, 0x48, 0x01})                                     // field 9: strict refuses, library skips
	f.Add(all, []byte{0x02, 0x09, 0x01})                                     // field 1, wire type 1: both refuse
	f.Add(all, []byte{0x04, 0x08, 0x01, 0x08, 0x02, 0x00})                   // repeated field (last wins), then an empty record
	f.Add(all, []byte{0x02, 0x08, 0x01, 0x03, 0x10})                         // good record, then one that claims more than is left
	f.Add(uint8(wireNarrow), AppendPB(nil, sampleFuzzRecords(), wireNarrow)) // projected canonical records
	f.Add(uint8(wireNarrow), EncodePB(sampleFuzzRecords()))                  // unmasked fields, decoded and dropped
	f.Add(uint8(wireNarrow), []byte{0x04, 0x08, 0x01, 0x38, 0x09})           // a masked field missing: reads zero
	f.Fuzz(func(t *testing.T, mask uint8, data []byte) {
		fields := fuzzFields(mask)
		m := makeCols{ncols: fields.Len()}
		cols, err := DecodePBColumns(data, fields, m.take) // must not panic
		if m.takes > 1 || m.maxRows > len(data) {
			t.Fatalf("%d takes, largest of %d rows, from a %d-byte payload", m.takes, m.maxRows, len(data))
		}
		lib, lerr := DecodePBLibrary(data)
		if err != nil {
			return
		}
		got := recordsOf(unproject(cols, fields))
		if len(got) != m.maxRows {
			t.Fatalf("decoded %d records into %d borrowed rows", len(got), m.maxRows)
		}
		if lerr == nil && !slices.Equal(got, projectRecords(lib, fields)) {
			t.Fatalf("column decoder and library decoder disagree:\n%v\n%v", got, lib)
		}
		// Decoded records must re-encode and decode to the same values.
		again, err := DecodePBColumns(AppendPB(nil, got, fields), fields, m.take)
		if err != nil || !reflect.DeepEqual(again, cols) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

// unproject spreads a batch of fields' columns over all seven, the
// others zero.
func unproject(cols [][]uint64, fields FieldSet) [][]uint64 {
	if cols == nil {
		return nil
	}
	out := make([][]uint64, pbFields)
	for c := range out {
		if fields.Has(c) {
			out[c] = cols[fields.Pos(c)]
		} else {
			out[c] = make([]uint64, len(cols[0]))
		}
	}
	return out
}

// projectRecords zeroes every field of recs outside fields.
func projectRecords(recs []Record, fields FieldSet) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		var c [pbFields]uint64
		for f, v := range r.Cols() {
			if fields.Has(f) {
				c[f] = v
			}
		}
		out[i] = fromCols(c)
	}
	return out
}

// FuzzDecodeJSON mirrors FuzzDecodePB for the JSON decoder: no panics,
// stable re-encode round trip.
func FuzzDecodeJSON(f *testing.F) {
	f.Add(EncodeJSON(sampleFuzzRecords()))
	f.Add([]byte{})
	f.Add([]byte(`{"ad_id":1}`))
	f.Add([]byte(`{"ad_id":1}{"ad_id":`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"event_time":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeJSON(data) // must not panic
		if err != nil {
			return
		}
		again, err := DecodeJSON(EncodeJSON(recs))
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

// FuzzDecodeCSV mirrors FuzzDecodePB for the text decoder.
func FuzzDecodeCSV(f *testing.F) {
	f.Add(EncodeText(sampleFuzzRecords()))
	f.Add([]byte{})
	f.Add([]byte("1,2,3,4,5,6,7\n"))
	f.Add([]byte("1,2,3\n"))
	f.Add([]byte("not,a,record\n\n8,9,10,11,12,13,14"))
	f.Add([]byte("18446744073709551616,0,0,0,0,0,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeText(data) // must not panic
		if err != nil {
			return
		}
		again, err := DecodeText(EncodeText(recs))
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

// FuzzColumnarFrame attacks the columnar frame validator with mutated
// headers, lengths and checksums: DecodeColumnarFrame must never panic
// or over-read, and whatever it accepts must re-encode to a frame it
// accepts again with identical columns.
func FuzzColumnarFrame(f *testing.F) {
	recs := sampleFuzzRecords()
	goodCols := make([][]uint64, 7)
	for _, r := range recs {
		for i, v := range r.Cols() {
			goodCols[i] = append(goodCols[i], v)
		}
	}
	good := EncodeColumnarFrame(goodCols)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("SBXC"))
	// Truncated data section.
	f.Add(good[:len(good)-3])
	// Oversized dims for the payload.
	huge := bytes.Clone(good)
	huge[8], huge[9] = 0xFF, 0xFF
	f.Add(huge)
	// Corrupted checksum.
	sum := bytes.Clone(good)
	sum[16] ^= 0x01
	f.Add(sum)
	// Nonzero reserved bytes.
	res := bytes.Clone(good)
	res[6] = 1
	f.Add(res)
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := DecodeColumnarFrame(data, nil) // must not panic or over-read
		if err != nil {
			return
		}
		// Accepted frames re-encode bit-for-bit and decode identically.
		again, err2 := DecodeColumnarFrame(EncodeColumnarFrame(cols), nil)
		if err2 != nil || !reflect.DeepEqual(again, cols) {
			t.Fatalf("re-encode round trip failed: %v", err2)
		}
	})
}

func sampleFuzzRecords() []Record {
	return []Record{
		{AdID: 1, AdType: 2, EventType: 3, UserID: 4, PageID: 5, IP: 6, EventTime: 7},
		{AdID: ^uint64(0), EventTime: 1 << 62},
	}
}
