package parsefmt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords(n int, seed int64) []Record {
	r := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			AdID:      r.Uint64() % 1000,
			AdType:    r.Uint64() % 5,
			EventType: r.Uint64() % 3,
			UserID:    r.Uint64() % 100000,
			PageID:    r.Uint64() % 1000,
			IP:        r.Uint64(),
			EventTime: r.Uint64() % 1_000_000,
		}
	}
	return out
}

func TestRoundTripAllFormats(t *testing.T) {
	recs := sampleRecords(500, 1)
	for _, f := range []Format{JSON, PB, Text} {
		data := Encode(f, recs)
		got, err := Decode(f, data)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("%v: round trip mismatch", f)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, f := range []Format{JSON, PB, Text} {
		got, err := Decode(f, nil)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if len(got) != 0 {
			t.Fatalf("%v: decoded %d records from nothing", f, len(got))
		}
	}
}

func TestFormatNames(t *testing.T) {
	if JSON.String() != "JSON" || PB.String() != "Protocol Buffers" || Text.String() != "Text Strings" {
		t.Error("format names must match Figure 11 labels")
	}
}

func TestPBErrors(t *testing.T) {
	var m makeCols
	if _, err := DecodePBColumns([]byte{0x05, 0x01}, AllFields, m.take); err == nil {
		t.Error("truncated message must fail")
	}
	// Field 9 (tag 0x48) is invalid, and so is field 1 with wire type 1.
	for _, bad := range [][]byte{{0x02, 0x48, 0x01}, {0x02, 0x09, 0x01}} {
		if cols, err := DecodePBColumns(bad, AllFields, m.take); err == nil || cols == nil {
			t.Errorf("bad tag %#x: err %v, cols %v; want an error beside the borrowed columns", bad[1], err, cols)
		}
	}
}

func TestTextErrors(t *testing.T) {
	if _, err := DecodeText([]byte("1,2,3\n")); err == nil {
		t.Error("short line must fail")
	}
	if _, err := DecodeText([]byte("1,2,3,4,5,6,7,8\n")); err == nil {
		t.Error("long line must fail")
	}
	if _, err := DecodeText([]byte("a,2,3,4,5,6,7\n")); err == nil {
		t.Error("non-numeric must fail")
	}
	// Trailing newline and blank lines are tolerated.
	got, err := DecodeText([]byte("1,2,3,4,5,6,7\n\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank line handling: %v %d", err, len(got))
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := DecodeJSON([]byte(`{"ad_id":`)); err == nil {
		t.Error("truncated JSON must fail")
	}
}

func TestEncodingSizes(t *testing.T) {
	recs := sampleRecords(1000, 2)
	j := len(EncodeJSON(recs))
	p := len(EncodePB(recs))
	x := len(EncodeText(recs))
	// JSON carries field names: largest. PB varints: smallest.
	if !(p < x && x < j) {
		t.Fatalf("sizes: pb=%d text=%d json=%d, want pb < text < json", p, x, j)
	}
}

func TestPropPBRoundTrip(t *testing.T) {
	f := func(cols [7]uint64) bool {
		rec := fromCols(cols)
		dec, err := DecodePBColumns(EncodePB([]Record{rec}), AllFields, new(makeCols).take)
		got := recordsOf(dec)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropTextRoundTrip(t *testing.T) {
	f := func(cols [7]uint64) bool {
		rec := fromCols(cols)
		got, err := DecodeText(EncodeText([]Record{rec}))
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFactorsOrdering(t *testing.T) {
	// §7.4: X56 parses 3-4x faster than KNL per core.
	ratio := X56ParseScale / KNLParseScale
	if ratio < 3 || ratio > 4.5 {
		t.Fatalf("X56/KNL parse ratio = %g, want 3-4x", ratio)
	}
}
