package netio

import (
	"fmt"
	"slices"

	"streambox/internal/bundle"
	"streambox/internal/parsefmt"
)

// WindowTicks is the event-time length of one "second" window in ticks,
// matching streambox.Second.
const WindowTicks = 1_000_000

// WireSchema is the record layout carried by the wire format: the seven
// numeric columns of a parsefmt (YSB-style) record, with event_time as
// the timestamp column.
func WireSchema() bundle.Schema {
	return bundle.Schema{
		NumCols: 7,
		TsCol:   6,
		Names:   []string{"ad_id", "ad_type", "event_type", "user_id", "page_id", "ip", "event_time"},
	}
}

// ProjectSchema is the layout of a feed holding only the wire columns
// in fields, ascending — what a server whose plan reads just those
// columns asks its clients to send. fields must hold the event time,
// which stays the timestamp column.
func ProjectSchema(fields parsefmt.FieldSet) bundle.Schema {
	wire := WireSchema()
	out := bundle.Schema{NumCols: fields.Len(), TsCol: fields.Pos(wire.TsCol)}
	for _, c := range fields.Cols() {
		out.Names = append(out.Names, wire.Names[c])
	}
	return out
}

// wireFields is the inverse of ProjectSchema: the wire columns a feed of
// schema holds, by name. Every column must be a wire column, in wire
// order, and the timestamp column the wire's event time.
func wireFields(schema bundle.Schema) (parsefmt.FieldSet, error) {
	wire := WireSchema()
	if len(schema.Names) != schema.NumCols || schema.TsCol < 0 || schema.TsCol >= schema.NumCols ||
		schema.Names[schema.TsCol] != wire.Names[wire.TsCol] {
		return 0, fmt.Errorf("netio: feed schema %v must name each column after a wire column, %q the timestamp", schema.Names, wire.Names[wire.TsCol])
	}
	var fields parsefmt.FieldSet
	last := -1
	for i, name := range schema.Names {
		c := slices.Index(wire.Names, name)
		if c <= last {
			return 0, fmt.Errorf("netio: feed column %d (%q) is not a wire column in wire order %v", i, name, wire.Names)
		}
		fields |= 1 << c
		last = c
	}
	return fields, nil
}

// RecordGen deterministically produces the wire workload stream: record
// i is a pure function of i, so any subsequence partitioning (one
// client per residue class, as sbx-loadgen does) reassembles into
// exactly the same stream — the seam that lets a network run be
// compared bit-for-bit against an in-process generator run.
type RecordGen struct {
	// Keys is the ad_id cardinality (0 picks 1024).
	Keys uint64
	// ValueRange bounds user_id values; 0 means the constant 1, making
	// per-window sums exactly predictable.
	ValueRange uint64
	// WindowRecords is the event-time density: this many records span
	// one window of WindowTicks (0 picks 100_000).
	WindowRecords uint64
	// Random draws keys and values from a splitmix64 sequence instead
	// of round-robin.
	Random bool
	// Seed perturbs the random sequence.
	Seed uint64
}

// withDefaults fills zero fields.
func (g RecordGen) withDefaults() RecordGen {
	if g.Keys == 0 {
		g.Keys = 1 << 10
	}
	if g.WindowRecords == 0 {
		g.WindowRecords = 100_000
	}
	return g
}

// splitmix64 is the standard 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ColsAt returns record i of the stream in column order — the columnar
// send path's primitive, filling column buffers without materializing a
// Record.
func (g RecordGen) ColsAt(i uint64) [7]uint64 {
	g = g.withDefaults()
	// Per-window decomposition avoids overflow for very long streams.
	ts := i/g.WindowRecords*WindowTicks + i%g.WindowRecords*WindowTicks/g.WindowRecords
	key, val := i%g.Keys, uint64(1)
	if g.Random {
		key = splitmix64(g.Seed^i) % g.Keys
	}
	if g.ValueRange > 0 {
		val = splitmix64(g.Seed^(i+0x51ED2701)) % g.ValueRange
	}
	return [7]uint64{key, key % 10, i % 4, val, i % 1000, 0x0A000000 + i%65536, ts}
}

// At returns record i of the stream.
func (g RecordGen) At(i uint64) parsefmt.Record {
	c := g.ColsAt(i)
	return parsefmt.Record{
		AdID:      c[0],
		AdType:    c[1],
		EventType: c[2],
		UserID:    c[3],
		PageID:    c[4],
		IP:        c[5],
		EventTime: c[6],
	}
}

// Records materializes records [lo, hi) of the stream.
func (g RecordGen) Records(lo, hi uint64) []parsefmt.Record {
	out := make([]parsefmt.Record, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, g.At(i))
	}
	return out
}

// StreamGen adapts a RecordGen to the engine.Generator interface,
// producing exactly the records network clients would send — run it on
// the native backend in-process to get the ground truth for a loopback
// equivalence check.
type StreamGen struct {
	g    RecordGen
	next uint64
}

// NewStreamGen starts the adapter at record 0.
func NewStreamGen(g RecordGen) *StreamGen { return &StreamGen{g: g} }

// Schema implements engine.Generator.
func (s *StreamGen) Schema() bundle.Schema { return WireSchema() }

// Fill implements engine.Generator. The event timestamps come from the
// RecordGen's own clock (identical to what travels the wire), not from
// the engine-proposed [tsLo, tsHi) range.
func (s *StreamGen) Fill(bd *bundle.Builder, n int, _, _ uint64) {
	for i := 0; i < n; i++ {
		c := s.g.ColsAt(s.next)
		bd.Append(c[:]...)
		s.next++
	}
}
