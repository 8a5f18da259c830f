// Package parsefmt implements the ingestion-format study of paper §7.4
// (Figure 11): encoding and parsing YSB records as JSON, as a
// protobuf-style varint binary format (hand-written, stdlib only), and
// as comma-separated text. Parse throughput is measured for real on the
// host and projected onto the paper's KNL and X56 machines with the
// per-core scale factors below.
package parsefmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
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
// Wire format per record: 7 fields, each (tag byte, uvarint value),
// prefixed by a uvarint byte length — the shape of a proto3 message
// with fields 1..7, implemented from scratch.

// EncodePB renders records in the varint wire format.
func EncodePB(recs []Record) []byte { return AppendPB(nil, recs) }

// AppendPB appends the records' varint wire form to dst and returns the
// extended slice — EncodePB into a buffer the caller reuses.
func AppendPB(dst []byte, recs []Record) []byte {
	for _, r := range recs {
		// Reserve the length byte, encode the fields behind it, then
		// fill it in: no staging buffer, no second copy.
		at := len(dst)
		dst = append(dst, 0)
		for i, v := range r.Cols() {
			dst = append(dst, byte((i+1)<<3)) // field tag, wire type 0
			dst = binary.AppendUvarint(dst, v)
		}
		// 7 fields of a tag byte and at most a 10-byte varint: under 128,
		// so the length is a one-byte uvarint.
		dst[at] = byte(len(dst) - at - 1)
	}
	return dst
}

// maxWireRecordBytes bounds one encoded record on the wire. A legitimate
// record is well under 200 bytes; anything larger is a corrupt or
// hostile stream.
const maxWireRecordBytes = 1 << 16

// DecodePBColumns is the strict decoder the network ingest path runs
// (fields 1..7 only, wire type 0, records of at most maxWireRecordBytes):
// it transposes the payload's records straight into column-major
// storage, the layout the engine's bundles use. It walks the payload
// twice — first the length prefixes alone, to count the records and
// bound every one against the payload before anything is allocated, then
// the fields, each value stored at its record's row of its column. take
// supplies the seven columns at exactly that row count (the pooled-slab
// seam; they may hold stale values, every element is overwritten) and is
// not called for an empty payload, which decodes to nil. Network bytes
// are untrusted: malformed input is an error, never a panic or a read
// past the payload. A field error surfaces after take has run; cols is
// then returned beside the error so the caller can give the storage back.
func DecodePBColumns(payload []byte, take func(rows int) [][]uint64) (cols [][]uint64, err error) {
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
		for i, v := range rec {
			cols[i][r] = v
		}
	}
	return cols, nil
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
