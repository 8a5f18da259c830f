// Package parsefmt implements the ingestion-format study of paper §7.4
// (Figure 11): encoding and parsing YSB records as JSON, as a
// protobuf-style varint binary format (hand-written, stdlib only), and
// as comma-separated text. Parse throughput is measured for real on the
// host and projected onto the paper's KNL and X56 machines with the
// per-core scale factors below. The varint format is also the network's
// row wire: AppendPB encodes the fields a session moves and
// DecodePBColumns decodes them straight into columns, each in one pass
// over a record's bytes; columnar.go holds the columnar wire.
package parsefmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Record is one YSB event with seven numeric columns (§6).
type Record struct {
	AdID      uint64 `json:"ad_id"`
	AdType    uint64 `json:"ad_type"`
	EventType uint64 `json:"event_type"`
	UserID    uint64 `json:"user_id"`
	PageID    uint64 `json:"page_id"`
	IP        uint64 `json:"ip"`
	EventTime uint64 `json:"event_time"`
}

// Cols flattens the record into column order.
func (r Record) Cols() [7]uint64 {
	return [7]uint64{r.AdID, r.AdType, r.EventType, r.UserID, r.PageID, r.IP, r.EventTime}
}

// fromCols rebuilds a record.
func fromCols(c [7]uint64) Record {
	return Record{c[0], c[1], c[2], c[3], c[4], c[5], c[6]}
}

// FieldSet is a set of a record's fields, which are also the columns of
// the network's wire schema: bit i stands for column i of Cols, PB field
// i+1. A session moves only the fields its plan reads; both wire formats
// carry the set's columns in ascending order, and so does the log.
type FieldSet uint8

// AllFields is every field of a record.
const AllFields FieldSet = 1<<pbFields - 1

// fieldNames are the fields' names, in column order.
var fieldNames = [pbFields]string{"ad_id", "ad_type", "event_type", "user_id", "page_id", "ip", "event_time"}

// Has reports whether column col is in the set.
func (fs FieldSet) Has(col int) bool { return col >= 0 && col < pbFields && fs>>col&1 != 0 }

// Len is the number of columns in the set.
func (fs FieldSet) Len() int { return bits.OnesCount8(uint8(fs)) }

// Pos is column col's position among the set's columns, ascending: the
// index of its slice in a batch of the set.
func (fs FieldSet) Pos(col int) int { return bits.OnesCount8(uint8(fs) & (1<<col - 1)) }

// Covers reports whether every column of other is in the set.
func (fs FieldSet) Covers(other FieldSet) bool { return fs&other == other }

// Cols lists the set's columns, ascending.
func (fs FieldSet) Cols() []int {
	cols := make([]int, 0, pbFields)
	for c := range pbFields {
		if fs.Has(c) {
			cols = append(cols, c)
		}
	}
	return cols
}

// String names the set's columns, e.g. {ad_id,user_id,event_time}.
func (fs FieldSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range fs.Cols() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fieldNames[c])
	}
	b.WriteByte('}')
	return b.String()
}

// --- JSON ------------------------------------------------------------------

// EncodeJSON renders records as newline-delimited JSON objects.
func EncodeJSON(recs []Record) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			panic(err) // numeric structs cannot fail to encode
		}
	}
	return buf.Bytes()
}

// DecodeJSON parses newline-delimited JSON records.
func DecodeJSON(data []byte) ([]Record, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []Record
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("parsefmt: json: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// --- Protobuf-style varint binary -------------------------------------------
//
// Wire format per record: up to 7 fields, each (tag byte, uvarint value),
// prefixed by a uvarint byte length — the shape of a proto3 message
// with fields 1..7, implemented from scratch.
//
// AppendPB writes every record in one canonical form: the fields of its
// FieldSet in ascending order, once each. DecodePBColumns accepts more
// than that (any field order, repeats, absent fields, fields outside its
// set, as proto3 does) but is built around it: a canonical record is
// decoded in one pass with the field's position as the loop counter, and
// only a record that departs from the form is decoded again by the
// general field loop, which defines what is accepted.

// pbFields is the number of fields in a record; maxPBRecordBytes is the
// longest record AppendPB can write — a one-byte length, then per field
// a tag byte and a varint of at most binary.MaxVarintLen64 bytes. It is
// under 128, so the length prefix of every encoded record is one byte.
const (
	pbFields         = 7
	maxPBRecordBytes = 1 + pbFields*(1+binary.MaxVarintLen64)
)

// EncodePB renders whole records in the varint wire format.
func EncodePB(recs []Record) []byte { return AppendPB(nil, recs, AllFields) }

// AppendPB appends the varint wire form of the records' fields in fields
// to dst and returns the extended slice — EncodePB into a buffer the
// caller reuses, of only the fields a session moves. Each record
// reserves its worst case once, then writes its length byte, tags and
// varint bytes by index: no per-byte append, no staging buffer.
func AppendPB(dst []byte, recs []Record, fields FieldSet) []byte {
	for i := range recs {
		r := &recs[i]
		dst = slices.Grow(dst, maxPBRecordBytes)
		at := len(dst)
		buf := dst[at : at+maxPBRecordBytes]
		// One call per field rather than a loop over them: each inlined
		// copy of the varint loop is a branch of its own, which learns its
		// field's usual length, and the test of the set is the same every
		// record.
		n := 1 // buf[0] is the length, filled in last
		if fields&(1<<0) != 0 {
			n = putField(buf, n, 1, r.AdID)
		}
		if fields&(1<<1) != 0 {
			n = putField(buf, n, 2, r.AdType)
		}
		if fields&(1<<2) != 0 {
			n = putField(buf, n, 3, r.EventType)
		}
		if fields&(1<<3) != 0 {
			n = putField(buf, n, 4, r.UserID)
		}
		if fields&(1<<4) != 0 {
			n = putField(buf, n, 5, r.PageID)
		}
		if fields&(1<<5) != 0 {
			n = putField(buf, n, 6, r.IP)
		}
		if fields&(1<<6) != 0 {
			n = putField(buf, n, 7, r.EventTime)
		}
		buf[0] = byte(n - 1)
		dst = dst[:at+n]
	}
	return dst
}

// putField writes field's tag (wire type 0) and v's uvarint at buf[n:]
// and returns the index past them.
func putField(buf []byte, n int, field byte, v uint64) int {
	buf[n] = field << 3
	n++
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	return n + 1
}

// maxWireRecordBytes bounds one encoded record on the wire. A legitimate
// record is well under 200 bytes; anything larger is a corrupt or
// hostile stream.
const maxWireRecordBytes = 1 << 16

// DecodePBColumns is the strict decoder the network ingest path runs
// (fields 1..7 only, wire type 0, records of at most maxWireRecordBytes):
// it transposes the payload's records straight into column-major
// storage, the layout the engine's bundles use, one column per field of
// fields, ascending. It walks the payload twice — first the length
// prefixes alone, to count the records and bound every one against the
// payload before anything is allocated, then each record once, every
// value stored at its record's row of its column. take supplies the
// fields.Len() columns at exactly that row count (the pooled-slab seam;
// they may hold stale values, every element is overwritten) and is not
// called for an empty payload, which decodes to nil. A field outside
// fields is decoded and dropped; a field of fields a record lacks reads
// zero. Network bytes are untrusted: malformed input is an error, never
// a panic or a read past the payload. A field error surfaces after take
// has run; cols is then returned beside the error, with unspecified
// contents, so the caller can give the storage back.
func DecodePBColumns(payload []byte, fields FieldSet, take func(rows int) [][]uint64) (cols [][]uint64, err error) {
	rows := 0
	for rest := payload; len(rest) > 0; rows++ {
		msgLen, n := lengthPrefix(rest)
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
	in := fields.Cols()
	var tags [pbFields]byte // the canonical record's tags, in order
	for i, c := range in {
		tags[i] = byte((c + 1) << 3)
	}
	canon := tags[:len(in)]
	for r := 0; r < rows; r++ {
		msgLen, n := lengthPrefix(payload)
		msg := payload[n : n+int(msgLen)]
		payload = payload[n+int(msgLen):]
		if !decodeCanonical(msg, canon, cols, r) {
			if err := decodeFields(msg, in, cols, r); err != nil {
				return cols, err
			}
		}
	}
	return cols, nil
}

// lengthPrefix is binary.Uvarint over a non-empty b, with the one-byte
// prefix every AppendPB record has read without the call.
func lengthPrefix(b []byte) (uint64, int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}

// decodeCanonical decodes msg into row r of dst if it is a canonical
// record — exactly the tags of tags, in order, once each, wire type 0,
// every varint within msg and within binary.Uvarint's 64-bit overflow
// rule — and reports whether it was. tags[i] is the tag of dst[i]'s
// field. On false some of the row's columns may have been written;
// decodeFields then writes them all.
func decodeCanonical(msg []byte, tags []byte, dst [][]uint64, r int) bool {
	i := 0
	for f, tag := range tags {
		if i >= len(msg) || msg[i] != tag {
			return false
		}
		i++
		if i >= len(msg) {
			return false
		}
		v := uint64(msg[i])
		i++
		if v >= 0x80 {
			v &= 0x7f
			for s := 7; ; s += 7 {
				if i >= len(msg) {
					return false
				}
				b := uint64(msg[i])
				i++
				if b < 0x80 {
					if s == 63 && b > 1 {
						return false // the tenth byte overflows 64 bits
					}
					v |= b << s
					break
				}
				if s == 63 {
					return false // ten bytes and still continuing
				}
				v |= (b & 0x7f) << s
			}
		}
		dst[f][r] = v
	}
	return i == len(msg)
}

// decodeFields is the general record decoder and the definition of what
// DecodePBColumns accepts: fields in any order, a repeated field's last
// value wins, absent fields read zero (as in proto3), fields outside in
// (the columns of dst, ascending) are dropped; field 0, fields past 7,
// wire types other than 0 and varints that run past the record or
// overflow 64 bits are errors. It writes row r of every column of dst
// only once the record has parsed.
func decodeFields(msg []byte, in []int, dst [][]uint64, r int) error {
	var rec [pbFields]uint64
	for len(msg) > 0 {
		tag := msg[0]
		field := int(tag>>3) - 1
		if tag&7 != 0 || field < 0 || field >= len(rec) {
			return fmt.Errorf("parsefmt: pb: bad field tag %#x", tag)
		}
		v, vn := binary.Uvarint(msg[1:])
		if vn <= 0 {
			return fmt.Errorf("parsefmt: pb: truncated varint")
		}
		rec[field] = v
		msg = msg[1+vn:]
	}
	for i, c := range in {
		dst[i][r] = rec[c]
	}
	return nil
}

// fieldDescriptor drives the library-style decoder: one entry per
// proto field, dispatched through closures the way a protobuf runtime
// dispatches through generated setters and descriptor tables.
type fieldDescriptor struct {
	num      int
	wireType uint8
	set      func(m *Record, v uint64)
}

var recordDescriptor = []fieldDescriptor{
	{1, 0, func(m *Record, v uint64) { m.AdID = v }},
	{2, 0, func(m *Record, v uint64) { m.AdType = v }},
	{3, 0, func(m *Record, v uint64) { m.EventType = v }},
	{4, 0, func(m *Record, v uint64) { m.UserID = v }},
	{5, 0, func(m *Record, v uint64) { m.PageID = v }},
	{6, 0, func(m *Record, v uint64) { m.IP = v }},
	{7, 0, func(m *Record, v uint64) { m.EventTime = v }},
}

// DecodePBLibrary parses the same wire format the way a general-purpose
// protobuf runtime does: one heap-allocated message per record,
// descriptor-table dispatch per field, wire-type validation, and
// tolerant skipping of unknown fields. This is the configuration the
// paper measures ("Protocol Buffers (v3.6.0)", §7.4); DecodePBColumns
// above is the strict hand-inlined codec the server runs.
func DecodePBLibrary(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		msgLen, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data)-n) < msgLen {
			return nil, fmt.Errorf("parsefmt: pb: truncated length prefix")
		}
		data = data[n:]
		msg := data[:msgLen]
		data = data[msgLen:]
		m := new(Record) // per-message allocation, as in the library
		for len(msg) > 0 {
			tag := msg[0]
			field := int(tag >> 3)
			wire := tag & 7
			if wire != 0 {
				return nil, fmt.Errorf("parsefmt: pb: unsupported wire type %d", wire)
			}
			v, vn := binary.Uvarint(msg[1:])
			if vn <= 0 {
				return nil, fmt.Errorf("parsefmt: pb: truncated varint")
			}
			// Descriptor-table dispatch.
			known := false
			for i := range recordDescriptor {
				if recordDescriptor[i].num == field {
					recordDescriptor[i].set(m, v)
					known = true
					break
				}
			}
			_ = known // unknown fields are skipped, per proto3
			msg = msg[1+vn:]
		}
		out = append(out, *m)
	}
	return out, nil
}

// --- Text (comma-separated integers) ----------------------------------------

// EncodeText renders records as comma-separated integer lines.
func EncodeText(recs []Record) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		cols := r.Cols()
		for i, v := range cols {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.FormatUint(v, 10))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// DecodeText parses comma-separated integer lines.
func DecodeText(data []byte) ([]Record, error) {
	var out []Record
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			nl = len(data)
		}
		line := data[:nl]
		if nl < len(data) {
			data = data[nl+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		r, err := parseTextLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// parseTextLine parses one comma-separated record line. Network bytes
// are untrusted, so values that would overflow uint64 are rejected
// instead of silently wrapping.
func parseTextLine(line []byte) (Record, error) {
	var cols [7]uint64
	field := 0
	var v uint64
	digits := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ',' {
			if field >= 7 {
				return Record{}, fmt.Errorf("parsefmt: text: too many fields")
			}
			if digits == 0 {
				return Record{}, fmt.Errorf("parsefmt: text: empty field")
			}
			cols[field] = v
			field++
			v, digits = 0, 0
			continue
		}
		c := line[i]
		if c < '0' || c > '9' {
			return Record{}, fmt.Errorf("parsefmt: text: invalid byte %q", c)
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return Record{}, fmt.Errorf("parsefmt: text: value overflows uint64")
		}
		// Allocation-free digit accumulation (the paper cites the
		// "fastest string-to-uint64" conversion, §7.4).
		v = v*10 + d
		digits++
	}
	if field != 7 {
		return Record{}, fmt.Errorf("parsefmt: text: %d fields, want 7", field)
	}
	return fromCols(cols), nil
}

// Format identifies one tested encoding.
type Format int

// The tested formats (JSON/PB/Text are Figure 11's row encodings;
// Columnar is the zero-copy frame format of columnar.go). The values
// double as the wire-protocol format codes.
const (
	JSON Format = iota
	PB
	Text
	Columnar
)

// String returns the format name as used in Figure 11.
func (f Format) String() string {
	switch f {
	case JSON:
		return "JSON"
	case PB:
		return "Protocol Buffers"
	case Columnar:
		return "Columnar"
	default:
		return "Text Strings"
	}
}

// Encode renders records in one of Figure 11's row formats. Columnar
// carries columns, not records (EncodeColumnarFrame); asking for it here
// is a programmer error.
func Encode(f Format, recs []Record) []byte {
	switch f {
	case JSON:
		return EncodeJSON(recs)
	case PB:
		return EncodePB(recs)
	case Text:
		return EncodeText(recs)
	}
	panic(fmt.Sprintf("parsefmt: Encode: %v is not a row format", f))
}

// Decode parses records in one of Figure 11's row formats, using the
// library-style protobuf decoder (the configuration the paper measures).
func Decode(f Format, data []byte) ([]Record, error) {
	switch f {
	case JSON:
		return DecodeJSON(data)
	case PB:
		return DecodePBLibrary(data)
	case Text:
		return DecodeText(data)
	}
	return nil, fmt.Errorf("parsefmt: Decode: %v is not a row format", f)
}

// Per-core parsing-speed projection factors relative to the host core
// the measurement runs on. Parsing is branchy scalar code: the paper
// finds KNL's 1.3 GHz in-order-ish cores parse 3-4x slower than the
// 2 GHz Xeon's (§7.4). The absolute host speed cancels in the ratios
// Figure 11 reports.
const (
	// KNLParseScale projects host parse throughput to one KNL core.
	KNLParseScale = 0.22
	// X56ParseScale projects host parse throughput to one X56 core.
	X56ParseScale = 0.80
)
