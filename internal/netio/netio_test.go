package netio

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"streambox/internal/bundle"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/metrics"
	"streambox/internal/parsefmt"
	"streambox/internal/wal"
)

// --- Wire format. -----------------------------------------------------------

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, parsefmt.Columnar, 0xA1B2C3D4E5F60718); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Bytes(), []byte("SBX1\x06\x03\x00\x00\xA1\xB2\xC3\xD4\xE5\xF6\x07\x18"); !bytes.Equal(got, want) {
		t.Fatalf("hello bytes % x, want % x", got, want)
	}
	f, token, status, err := readHello(&buf)
	if err != nil || status != statusOK || f != parsefmt.Columnar || token != 0xA1B2C3D4E5F60718 {
		t.Fatalf("hello round trip: %v %#x %d %v", f, token, status, err)
	}

	buf.Reset()
	want := grant{status: statusOK, credits: 37, token: 42, lastSeq: 9, fields: 1<<0 | 1<<3 | 1<<6}
	writeGrant(&buf, want)
	if buf.Len() != grantBytes {
		t.Fatalf("grant is %d bytes, want %d", buf.Len(), grantBytes)
	}
	gb := bytes.Clone(buf.Bytes())
	if got, wantHex := hex.EncodeToString(gb[:28]), "5342584106000025000000000000002a0000000000000009"+"00000049"; got != wantHex {
		t.Fatalf("grant bytes %s, want %s", got, wantHex)
	}
	if g, err := readGrant(&buf); err != nil || g != want {
		t.Fatalf("grant round trip: %+v %v", g, err)
	}
	// Any one-bit flip of the grant past its magic and version — status,
	// credits, token, resume sequence, column mask or trailer — fails its
	// checksum, so a damaged grant can neither move the resume point within
	// the ack range nor change the columns.
	for bit := 40; bit < grantBytes*8; bit++ {
		damaged := bytes.Clone(gb)
		damaged[bit/8] ^= 1 << (bit % 8)
		if g, err := readGrant(bytes.NewReader(damaged)); !errors.Is(err, errGrantChecksum) {
			t.Fatalf("bit %d flipped: grant read as %+v, err %v", bit, g, err)
		}
	}
	// A grant whose mask names no column, or one past the seventh, is
	// refused even with a good checksum.
	for _, fields := range []parsefmt.FieldSet{0, 1 << 7} {
		buf.Reset()
		writeGrant(&buf, grant{status: statusOK, credits: 1, token: 42, fields: fields})
		if _, err := readGrant(&buf); err == nil {
			t.Fatalf("grant of column mask %#x accepted", uint8(fields))
		}
	}

	buf.Reset()
	payload := []byte("hello frames")
	writeSeqFrame(&buf, 7, payload)
	writeEOS(&buf)
	size, seq, eos, err := readFrameHeader(&buf)
	if err != nil || eos || seq != 7 || size != int64(len(payload)) || !bytes.Equal(buf.Next(int(size)), payload) {
		t.Fatalf("frame round trip: size=%d seq=%d eos=%v err=%v", size, seq, eos, err)
	}
	if _, _, eos, err = readFrameHeader(&buf); err != nil || !eos {
		t.Fatalf("EOS frame: eos=%v err=%v", eos, err)
	}

	buf.Reset()
	writeCreditAck(&buf, 5, 9)
	if buf.Len() != ackBytes {
		t.Fatalf("ack is %d bytes, want %d", buf.Len(), ackBytes)
	}
	ack := bytes.Clone(buf.Bytes())
	if n, last, err := readCreditAck(&buf); err != nil || n != 5 || last != 9 {
		t.Fatalf("credit ack round trip: %d %d %v", n, last, err)
	}
	// Any one-bit flip of the ack — credit count, cumulative ack or
	// trailer — is refused, so a damaged ack can neither trim frames the
	// server never ingested nor widen the send window.
	for bit := 0; bit < ackBytes*8; bit++ {
		damaged := bytes.Clone(ack)
		damaged[bit/8] ^= 1 << (bit % 8)
		if n, last, err := readCreditAck(bytes.NewReader(damaged)); !errors.Is(err, errAckChecksum) {
			t.Fatalf("bit %d flipped: ack read as %d credits, last %d, err %v", bit, n, last, err)
		}
	}

	// The PB trailer: any one-bit flip, in the records or in the trailer
	// itself, fails verification; so does a payload too short to carry it.
	framed := appendCRC(bytes.Clone(payload), 0)
	if body, ok := splitCRC(framed); !ok || !bytes.Equal(body, payload) {
		t.Fatalf("CRC trailer round trip: %q %v", body, ok)
	}
	for bit := 0; bit < len(framed)*8; bit++ {
		framed[bit/8] ^= 1 << (bit % 8)
		if _, ok := splitCRC(framed); ok {
			t.Fatalf("bit %d flipped and the trailer still verified", bit)
		}
		framed[bit/8] ^= 1 << (bit % 8)
	}
	if _, ok := splitCRC(framed[:crcBytes-1]); ok {
		t.Fatal("a payload shorter than its trailer verified")
	}
}

// retiredHellos are the hellos of the protocols this build refuses:
// version 1 (row formats), version 2 (plus columnar), version 3
// (sessions, opened by a four-message exchange), all 8 bytes, and
// version 4 (this hello, 16 bytes, with the columnar digest over values
// and unchecked acks behind it).
var retiredHellos = []struct{ name, hello string }{
	{"v1 row", "SBX1\x01\x01\x00\x00"},
	{"v2 columnar", "SBX1\x02\x03\x00\x00"},
	{"v3 session", "SBX1\x03\x03\x01\x00"},
	{"v4 session", "SBX1\x04\x03\x00\x00" + strings.Repeat("\x00", 8)},
	{"v5 session", "SBX1\x05\x03\x00\x00" + strings.Repeat("\x00", 8)},
}

// v6Hello is a version-6 hello for a fresh session with the given
// format code.
func v6Hello(format byte) string {
	return "SBX1\x06" + string(format) + "\x00\x00" + strings.Repeat("\x00", 8)
}

func TestWireRejectsBadHandshake(t *testing.T) {
	type tc struct {
		name, hello string
		status      byte
	}
	cases := []tc{
		{"bad magic", "XXXX\x06\x03\x00\x00", statusBadMagic},
		{"future version", "SBX1\x09\x03\x00\x00", statusBadMagic},
		{"JSON code", v6Hello(byte(parsefmt.JSON)), statusBadFormat},
		{"text code", v6Hello(byte(parsefmt.Text)), statusBadFormat},
		{"unknown format", v6Hello(9), statusBadFormat},
		{"cut inside the token", v6Hello(byte(parsefmt.PB))[:helloBytes-1], statusBadMagic},
	}
	for _, r := range retiredHellos {
		// Refused on their first eight bytes: nothing after them is
		// waited for.
		cases = append(cases, tc{r.name, r.hello, statusBadMagic})
	}
	for _, tc := range cases {
		if _, _, status, err := readHello(strings.NewReader(tc.hello)); err == nil || status != tc.status {
			t.Fatalf("%s: status %d err %v, want status %d and an error", tc.name, status, err, tc.status)
		}
	}
	for _, tc := range []struct {
		status byte
		want   error // nil: some other rejection error
	}{
		{statusOverloaded, ErrOverloaded},
		{statusExpired, ErrSessionExpired},
		{statusBadMagic, nil},
		{statusBadFormat, nil},
	} {
		var buf bytes.Buffer
		writeGrant(&buf, grant{status: tc.status})
		_, err := readGrant(&buf)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) ||
			tc.want == nil && (errors.Is(err, ErrOverloaded) || errors.Is(err, ErrSessionExpired)) {
			t.Fatalf("status-%d grant: %v, want %v", tc.status, err, tc.want)
		}
	}
}

// --- Feed watermark semantics. ----------------------------------------------

func TestFeedWatermarkIsMinAcrossConnections(t *testing.T) {
	f := NewFeed(WireSchema(), 8)
	f.register(1)
	f.register(2)
	if w := f.Watermark(); w != 0 {
		t.Fatalf("fresh feed watermark %d, want 0", w)
	}
	push := func(conn int64, ts uint64) {
		f.push(batch{conn: conn, cols: [][]uint64{{1}, {0}, {0}, {1}, {0}, {0}, {ts}}, maxTs: ts})
		f.Recv(0)
	}
	push(1, 500)
	if w := f.Watermark(); w != 0 {
		t.Fatalf("watermark %d with conn 2 silent, want 0", w)
	}
	push(2, 300)
	if w := f.Watermark(); w != 300 {
		t.Fatalf("watermark %d, want min(500,300)=300", w)
	}
	// Conn 2 retires: only conn 1's cursor remains.
	f.push(batch{conn: 2, retire: true})
	push(1, 900)
	if w := f.Watermark(); w != 900 {
		t.Fatalf("watermark %d after retire, want 900", w)
	}
	// All conns retire: watermark falls back to the delivered maximum.
	f.push(batch{conn: 1, retire: true})
	go f.closeSend()
	if _, ok, _ := f.Recv(0); ok {
		t.Fatal("Recv delivered after close")
	}
	if w := f.Watermark(); w != 900 {
		t.Fatalf("drained watermark %d, want 900", w)
	}
}

// colPoisonWord is what mempool writes over a slab PutCol takes back in
// poison mode.
const colPoisonWord = 0xDEAD_C015_DEAD_C015

// TestFeedOwnPoolTakesBatchesBack runs one batch through a feed no
// engine pool was attached to — borrow, push, Recv, Recycle — and
// checks its columns came from the feed's own pool, as one slab, and
// went back to it. The columns are disjoint exact-length views, and
// each reads poison once the slab is back (TestMain sets PoisonCols).
func TestFeedOwnPoolTakesBatchesBack(t *testing.T) {
	const rows = 100
	f := NewFeed(WireSchema(), 8)
	f.register(1)
	cols := f.borrowCols(rows)
	if out := f.pool.Stats().ColsOut; out != 1 {
		t.Fatalf("%d column slabs out after borrowing one batch, want 1", out)
	}
	for k, c := range cols {
		if len(c) != rows {
			t.Fatalf("column %d has %d rows, want %d", k, len(c), rows)
		}
		if k > 0 && cap(c) != rows {
			t.Fatalf("column %d has capacity %d, want exactly %d", k, cap(c), rows)
		}
		for i := range c {
			c[i] = uint64(k*rows + i)
		}
	}
	// Every column still holds what was written to it: no two share a
	// word.
	for k, c := range cols {
		for i, v := range c {
			if v != uint64(k*rows+i) {
				t.Fatalf("column %d row %d reads %d: columns overlap", k, i, v)
			}
		}
	}
	if !f.push(batch{conn: 1, cols: cols, maxTs: 99}) {
		t.Fatal("push refused before shutdown")
	}
	got, ok, _ := f.Recv(0)
	if !ok || len(got) != len(cols) || len(got[0]) != rows {
		t.Fatalf("Recv: ok %v, %d columns", ok, len(got))
	}
	views := append([][]uint64(nil), got...) // Recycle clears the header
	f.Recycle(got)
	if out := f.pool.Stats().ColsOut; out != 0 {
		t.Fatalf("%d column slabs still out of the feed's pool after Recycle", out)
	}
	for k, c := range views {
		for i, v := range c {
			if v != colPoisonWord {
				t.Fatalf("column %d row %d reads %#x after Recycle, want poison", k, i, v)
			}
		}
	}
}

// --- Server/client loopback. ------------------------------------------------

// collect drains the feed in the background, tallying records.
func collect(f *Feed) (*atomic.Int64, chan struct{}) {
	var n atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			cols, ok, _ := f.Recv(0)
			if !ok {
				return
			}
			n.Add(int64(len(cols[0])))
		}
	}()
	return &n, done
}

func TestServerClientLoopback(t *testing.T) {
	for _, format := range sessionFormats {
		feed := NewFeed(WireSchema(), 8)
		srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
		if err != nil {
			t.Fatal(err)
		}
		got, done := collect(feed)

		gen := RecordGen{Keys: 16, WindowRecords: 100}
		c, err := Dial(srv.Addr().String(), ClientConfig{Format: format, FrameRecords: 64})
		if err != nil {
			t.Fatal(err)
		}
		const total = 1000
		if err := c.Send(gen.Records(0, total)); err != nil {
			t.Fatalf("%v: send: %v", format, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%v: close: %v", format, err)
		}
		srv.Close()
		<-done

		if n := got.Load(); n != total {
			t.Fatalf("%v: feed received %d records, want %d", format, n, total)
		}
		ctr := srv.Counters()
		if ctr.IngestedRecords != total || ctr.DecodeErrors != 0 || ctr.DroppedRecords != 0 || ctr.ChecksumErrors != 0 {
			t.Fatalf("%v: counters %+v", format, ctr)
		}
		if ctr.Conns != 1 || ctr.ActiveConns != 0 {
			t.Fatalf("%v: connection counters %+v", format, ctr)
		}
		if ctr.FramesByFormat[format] != ctr.Frames {
			t.Fatalf("%v: %d of %d frames attributed to the format", format, ctr.FramesByFormat[format], ctr.Frames)
		}
	}
}

// TestWALLogsEveryFormat: both wires log every frame they deliver,
// packed from the ranges their decode step scanned, and the log replays
// each record's columns as sent.
func TestWALLogsEveryFormat(t *testing.T) {
	for _, format := range sessionFormats {
		dir := t.TempDir()
		log, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		feed := NewFeed(WireSchema(), 8)
		srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, WAL: log})
		if err != nil {
			t.Fatal(err)
		}
		_, done := collect(feed)
		gen := RecordGen{Keys: 16, ValueRange: 1000, WindowRecords: 100}
		c, err := Dial(srv.Addr().String(), ClientConfig{Format: format, FrameRecords: 64})
		if err != nil {
			t.Fatal(err)
		}
		const total = 1000
		if err := c.Send(gen.Records(0, total)); err != nil {
			t.Fatalf("%v: send: %v", format, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%v: close: %v", format, err)
		}
		srv.Close()
		<-done
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		replay, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var i uint64
		_, err = replay.ReplayExisting(func(r *wal.Record) error {
			for row := 0; r.Kind == wal.KindFrame && row < r.NRows; row++ {
				want := gen.ColsAt(i)
				for col := range r.NCols {
					if got := r.Data[col*r.NRows+row]; got != want[col] {
						t.Fatalf("%v: record %d column %d logged as %d, sent %d", format, i, col, got, want[col])
					}
				}
				i++
			}
			return nil
		})
		replay.Close()
		if err != nil || i != total {
			t.Fatalf("%v: replayed %d records (%v), want %d", format, i, err, total)
		}
	}
}

// narrowFields are the columns of the network benchmarks' plans: key
// (ad_id), value (user_id) and event time.
const narrowFields parsefmt.FieldSet = 1<<0 | 1<<3 | 1<<6

// TestProjectSchemaRoundTrip: every set of wire columns holding the
// event time maps to a feed schema and back, and Listen refuses a feed
// whose columns are not wire columns in wire order, event_time the
// timestamp.
func TestProjectSchemaRoundTrip(t *testing.T) {
	for fs := parsefmt.FieldSet(1 << 6); fs <= parsefmt.AllFields; fs++ {
		if !fs.Has(6) {
			continue
		}
		sc := ProjectSchema(fs)
		if got, err := wireFields(sc); err != nil || got != fs || sc.Validate() != nil {
			t.Fatalf("%v: schema %+v maps back to %v, %v", fs, sc, got, err)
		}
	}
	for name, sc := range map[string]bundle.Schema{
		"out of order":  {NumCols: 3, TsCol: 2, Names: []string{"user_id", "ad_id", "event_time"}},
		"repeated":      {NumCols: 3, TsCol: 2, Names: []string{"ad_id", "ad_id", "event_time"}},
		"not a column":  {NumCols: 2, TsCol: 1, Names: []string{"key", "event_time"}},
		"other ts":      {NumCols: 2, TsCol: 0, Names: []string{"ad_id", "event_time"}},
		"no event time": {NumCols: 2, TsCol: 1, Names: []string{"ad_id", "user_id"}},
		"unnamed":       {NumCols: 7, TsCol: 6},
	} {
		if _, err := Listen("127.0.0.1:0", ServerConfig{Feed: NewFeed(sc, 1)}); err == nil {
			t.Errorf("%s: Listen accepted feed schema %+v", name, sc)
		}
	}
}

// TestNarrowFeedMovesOnlyItsColumns: a server whose feed holds three
// wire columns grants just those, and the client sends nothing else. A
// counting proxy weighs what crossed the wire: a columnar frame carries
// 3 × 8 × rows data bytes behind its header, a PB record the three
// fields; and the feed receives the three columns, value for value.
func TestNarrowFeedMovesOnlyItsColumns(t *testing.T) {
	for _, format := range sessionFormats {
		t.Run(format.String(), func(t *testing.T) {
			feed := NewFeed(ProjectSchema(narrowFields), 8)
			srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]uint64, 3)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					cols, ok, _ := feed.Recv(0)
					if !ok {
						return
					}
					if len(cols) != len(got) {
						t.Errorf("a batch of %d columns, want %d", len(cols), len(got))
						return
					}
					for i := range got {
						got[i] = append(got[i], cols[i]...)
					}
				}
			}()
			proxy := startCutProxy(t, srv.Addr().String())
			c, err := Dial(proxy.ln.Addr().String(), ClientConfig{Format: format, FrameRecords: 64})
			if err != nil {
				t.Fatal(err)
			}
			const total = 1000
			gen := RecordGen{Keys: 1 << 20, Random: true, WindowRecords: 100}
			recs := gen.Records(0, total)
			if format == parsefmt.Columnar {
				wire := make([][]uint64, 7)
				for _, r := range recs {
					for k, v := range r.Cols() {
						wire[k] = append(wire[k], v)
					}
				}
				err = c.SendColumns(wire)
			} else {
				err = c.Send(recs)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			proxy.Close()
			srv.Close()
			<-done

			want := helloBytes + 4 // the hello and the end-of-stream marker
			for lo := 0; lo < total; lo += 64 {
				chunk := recs[lo:min(lo+64, total)]
				want += frameHeaderBytes
				if format == parsefmt.Columnar {
					want += parsefmt.ColumnarHeaderBytes + 3*8*len(chunk)
				} else {
					want += len(parsefmt.AppendPB(nil, chunk, narrowFields)) + crcBytes
				}
			}
			if n := proxy.upBytes(); n != want {
				t.Fatalf("the client sent %d bytes, want %d", n, want)
			}
			for r, rec := range recs {
				if got[0][r] != rec.AdID || got[1][r] != rec.UserID || got[2][r] != rec.EventTime {
					t.Fatalf("record %d arrived as (%d, %d, %d), want (%d, %d, %d)", r,
						got[0][r], got[1][r], got[2][r], rec.AdID, rec.UserID, rec.EventTime)
				}
			}
		})
	}
}

// TestColumnarLoopbackSendColumns drives the column-native send path —
// no record materialization on either side — with the feed drawing its
// column slabs from a mempool, and checks the batches and the slab
// recycling both flow.
func TestColumnarLoopbackSendColumns(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	pool := mempool.New(memsim.KNLConfig(), 0)
	feed.UsePool(pool)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}

	// Drain with recycling, as the runtime does.
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			cols, ok, _ := feed.Recv(0)
			if !ok {
				return
			}
			got.Add(int64(len(cols[0])))
			feed.Recycle(cols)
		}
	}()

	gen := RecordGen{Keys: 16, WindowRecords: 100}
	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.Columnar, FrameRecords: 64})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	cols := make([][]uint64, 7)
	for i := range cols {
		cols[i] = make([]uint64, total)
	}
	for i := uint64(0); i < total; i++ {
		rc := gen.ColsAt(i)
		for k := range cols {
			cols[k][i] = rc[k]
		}
	}
	if err := c.SendColumns(cols); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done

	if n := got.Load(); n != total {
		t.Fatalf("feed received %d records, want %d", n, total)
	}
	if n := pool.Stats().ColRecycled; n == 0 {
		t.Fatal("no column slab was recycled through the mempool")
	}
	if s := pool.Snapshot(); s.ColSlabsCached == 0 || s.ColSlabBytesCache == 0 {
		t.Fatalf("column free lists empty after the run: %+v", s)
	}
}

// TestRowDecodeSlabsPlateau: a steady stream of row frames far larger
// than the default slab sizing must settle into recycled column slabs.
// The decode slabs used to be drawn for 512 rows, append-grown by the
// decoder, and filed on recycle under a size class nothing drew from:
// the pool's cached bytes rose by seven slabs per frame, forever, and
// not one slab was ever reused.
func TestRowDecodeSlabsPlateau(t *testing.T) {
	const feedBuf, frameRows, phaseFrames = 4, 4096, 40
	feed := NewFeed(WireSchema(), feedBuf)
	pool := mempool.New(memsim.KNLConfig(), 0)
	feed.UsePool(pool)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	var recycled atomic.Int64 // records handed back to the pool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			cols, ok, _ := feed.Recv(0)
			if !ok {
				return
			}
			n := int64(len(cols[0]))
			feed.Recycle(cols)
			recycled.Add(n)
		}
	}()

	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB, FrameRecords: frameRows})
	if err != nil {
		t.Fatal(err)
	}
	recs := RecordGen{Keys: 16, WindowRecords: 100_000}.Records(0, frameRows*phaseFrames)
	// Every slab in flight at once — the feed's buffer plus one batch
	// each in the decoder, the push and the drain — at one 4096-word
	// class slab per column, with as much again for slack.
	const ceiling = 2 * (feedBuf + 3) * 7 * frameRows * 8
	var reused [2]int64
	for phase := range reused {
		if err := c.Send(recs); err != nil {
			t.Fatal(err)
		}
		want := int64(len(recs) * (phase + 1))
		waitFor(t, 10*time.Second, func() bool { return recycled.Load() == want }, "every batch to be recycled")
		snap := pool.Snapshot()
		if snap.ColSlabBytesCache > ceiling {
			t.Fatalf("after %d frames the pool caches %d B of column slabs, want a plateau under %d B",
				phaseFrames*(phase+1), snap.ColSlabBytesCache, ceiling)
		}
		reused[phase] = snap.ColSlabsRecycled
	}
	if reused[0] == 0 || reused[1] <= reused[0] {
		t.Fatalf("ColSlabsRecycled %d then %d: decode slabs are not being reused", reused[0], reused[1])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done
}

// TestServerRejectsOversizedFrame: a frame header declaring more bytes
// than MaxFrameBytes is a decode error and severs the connection, whatever
// the format, without its body being read or timed as decode work.
func TestServerRejectsOversizedFrame(t *testing.T) {
	for _, format := range []parsefmt.Format{parsefmt.PB, parsefmt.Columnar} {
		feed := NewFeed(WireSchema(), 8)
		srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
		if err != nil {
			t.Fatal(err)
		}
		_, done := collect(feed)

		c, err := Dial(srv.Addr().String(), ClientConfig{Format: format})
		if err != nil {
			t.Fatal(err)
		}
		if !c.core.takeCredit() {
			t.Fatal("no credit after the handshake")
		}
		hdr := make([]byte, frameHeaderBytes) // the header alone: no body follows
		binary.BigEndian.PutUint32(hdr[:4], MaxFrameBytes+1)
		binary.BigEndian.PutUint64(hdr[4:], 1)
		if _, err := c.conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srv.Close()
		<-done
		if ctr := srv.Counters(); ctr.DecodeErrors != 1 {
			t.Fatalf("%v: decode errors %d, want 1 (the frame is refused unread)", format, ctr.DecodeErrors)
		}
	}
}

// TestColumnarChecksumAndGeometryErrors: a corrupted checksum and a
// malformed header are counted in their own buckets, and each severs
// the connection without advancing the ack, so the client's replay of
// the same sequence number — intact this time — is what gets ingested.
func TestColumnarChecksumAndGeometryErrors(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}
	good := genPayload(parsefmt.Columnar, &gen, 0, 10)

	// sendAndExpectSever writes payload as frame 1 and waits for the
	// server to drop the connection instead of acking it.
	sendAndExpectSever := func(conn net.Conn, payload []byte, what string) {
		t.Helper()
		if err := writeSeqFrame(conn, 1, payload); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, last, err := readCreditAck(conn); err == nil {
			t.Fatalf("%s frame acked (cumulative ack %d); want the connection severed", what, last)
		}
		conn.Close()
	}

	conn, _, token, _ := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, 0)
	bad := append([]byte(nil), good...)
	bad[16] ^= 0xFF // flipped checksum byte
	sendAndExpectSever(conn, bad, "bad-checksum")

	conn, _, _, last := rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, token)
	if last != 0 {
		t.Fatalf("ack advanced to %d past a frame that failed its checksum", last)
	}
	// Wrong column count for the wire schema.
	cols := make([][]uint64, 5)
	for i := range cols {
		cols[i] = make([]uint64, 10)
	}
	sendAndExpectSever(conn, parsefmt.EncodeColumnarFrame(cols), "bad-geometry")

	conn, _, _, last = rawSessionDial(t, srv.Addr().String(), parsefmt.Columnar, token)
	if last != 0 {
		t.Fatalf("ack advanced to %d past a frame with malformed geometry", last)
	}
	if err := writeSeqFrame(conn, 1, good); err != nil { // the replay, intact
		t.Fatal(err)
	}
	awaitAck(t, conn, 1)
	if err := writeEOS(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 0 }, "session retirement on EOS")
	conn.Close()
	srv.Close()
	<-done

	ctr := srv.Counters()
	if ctr.ChecksumErrors != 1 {
		t.Fatalf("checksum errors %d, want 1 (counters %+v)", ctr.ChecksumErrors, ctr)
	}
	if ctr.DecodeErrors != 1 {
		t.Fatalf("decode errors %d, want 1 (counters %+v)", ctr.DecodeErrors, ctr)
	}
	if ctr.DuplicateFrames != 0 {
		t.Fatalf("duplicate frames %d, want 0: neither bad frame may have been consumed", ctr.DuplicateFrames)
	}
	if n := got.Load(); n != 10 {
		t.Fatalf("ingested %d records, want the 10 from the replayed frame", n)
	}
}

// TestConnCreditWindowServed: the per-connection series report
// the in-flight credit window while a connection is live.
func TestConnCreditWindowServed(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, FrameCredits: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)

	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`streambox_conn_credit_window{conn="1",remote=%q,format=%q} 5`, c.conn.LocalAddr(), parsefmt.PB)
	deadline := time.Now().Add(5 * time.Second)
	for {
		var text strings.Builder
		metrics.WriteText(&text, srv.Metrics())
		if strings.Contains(text.String(), want+"\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never served %s:\n%s", want, text.String())
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	srv.Close()
	<-done
}

// rawHelloGrant writes hello bytes to a fresh socket and returns the
// server's grant plus whether the server then closed the socket. A close
// that leaves hello bytes unread — a version-4 hello is refused on its
// first eight of sixteen — reaches the client as a reset.
func rawHelloGrant(t *testing.T, addr string, hello string) (g [grantBytes]byte, closed bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(hello)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, g[:]); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 1))
	return g, err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

// TestHelloAckOverWire exercises the refusals end to end: bad magic, a
// format no session carries (JSON and text among them) and a resume
// token naming no session each come back as an explicit status on the
// socket, not just a dropped connection — and the client refuses the
// non-wire formats itself, before it connects.
func TestHelloAckOverWire(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	for _, tc := range []struct {
		name, hello string
		status      byte
	}{
		{"bad magic", "XXXX\x06\x03\x00\x00", statusBadMagic},
		{"JSON code", v6Hello(byte(parsefmt.JSON)), statusBadFormat},
		{"text code", v6Hello(byte(parsefmt.Text)), statusBadFormat},
		{"unknown format", v6Hello(9), statusBadFormat},
		{"unknown token", v6Hello(byte(parsefmt.PB))[:8] + "\x00\x00\x00\x00\x00\x00\x12\x34", statusExpired},
	} {
		g, closed := rawHelloGrant(t, addr, tc.hello)
		if [4]byte(g[:4]) != magicGrant || g[4] != Version || g[5] != tc.status || !closed {
			t.Fatalf("%s answered % x (closed %v), want status %d and a close", tc.name, g, closed, tc.status)
		}
	}
	// The same unknown token through the client's half of the exchange.
	c := &Client{cfg: ClientConfig{Format: parsefmt.PB}, core: clientCore{token: 0x1234}}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := c.openSession(conn); !errors.Is(err, ErrSessionExpired) {
		t.Fatalf("resume of an unknown token: %v, want ErrSessionExpired", err)
	}

	before := srv.Counters().Conns
	for _, f := range []parsefmt.Format{parsefmt.JSON, parsefmt.Text, parsefmt.Format(9)} {
		if _, err := Dial(addr, ClientConfig{Format: f}); err == nil {
			t.Fatalf("Dial accepted format %d", f)
		}
	}
	if n := srv.Counters().Conns; n != before {
		t.Fatalf("Dial connected %d times before refusing a non-wire format", n-before)
	}
	if n := srv.Counters().ActiveSessions; n != 0 {
		t.Fatalf("ActiveSessions = %d after refused hellos, want 0", n)
	}
}

// countingConn counts the calls and bytes of each direction.
type countingConn struct {
	net.Conn
	reads, writes, readBytes, writtenBytes int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads++
	c.readBytes += n
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes++
	c.writtenBytes += n
	return n, err
}

// TestHandshakeIsOneExchange: opening a session — fresh or resumed — is
// one client write and one client read, after which the connection
// carries frames.
func TestHandshakeIsOneExchange(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed, FrameCredits: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	gen := RecordGen{Keys: 16, WindowRecords: 100}

	c := &Client{cfg: ClientConfig{Format: parsefmt.PB}}
	for round, wantLast := range []uint64{0, 1} {
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn := &countingConn{Conn: raw}
		credits, last, err := c.openSession(conn)
		if err != nil || credits != 5 || last != wantLast || c.core.token == 0 {
			t.Fatalf("round %d: credits %d lastSeq %d token %#x err %v", round, credits, last, c.core.token, err)
		}
		if conn.writes != 1 || conn.writtenBytes != helloBytes || conn.reads != 1 || conn.readBytes != grantBytes {
			t.Fatalf("round %d: %d writes (%d B), %d reads (%d B); want one %d-byte hello and one %d-byte grant",
				round, conn.writes, conn.writtenBytes, conn.reads, conn.readBytes, helloBytes, grantBytes)
		}
		seq := wantLast + 1
		if err := writeSeqFrame(conn, seq, genPayload(parsefmt.PB, &gen, int(wantLast)*10, 10)); err != nil {
			t.Fatal(err)
		}
		awaitAck(t, conn, seq)
		raw.Close() // abrupt: the second round resumes the session
	}
	srv.Close()
	<-done
	if n := got.Load(); n != 20 {
		t.Fatalf("ingested %d records, want 20", n)
	}
}

// TestHelloRejectsLegacyModes: the retired protocols' hellos — version
// 1, version 2 columnar, version 3 sessions, version 4 — are each
// refused with statusBadMagic and a close, on their first eight bytes,
// and leave nothing behind on the server.
func TestHelloRejectsLegacyModes(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range retiredHellos {
		g, closed := rawHelloGrant(t, srv.Addr().String(), tc.hello)
		if [4]byte(g[:4]) != magicGrant || g[4] != Version || g[5] != statusBadMagic {
			t.Fatalf("%s hello answered % x, want status %d at version %d", tc.name, g, statusBadMagic, Version)
		}
		if !closed {
			t.Fatalf("%s hello: socket left open after the rejection", tc.name)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveConns == 0 }, "rejected handshakes to unwind")
	if n := srv.Counters().ActiveSessions; n != 0 {
		t.Fatalf("ActiveSessions = %d after rejected hellos, want 0", n)
	}
	if total, _ := feed.liveCursors(); total != 0 {
		t.Fatalf("%d cursors registered by rejected hellos", total)
	}
}

// TestServerCountsDecodeErrors pins the two ways a PB frame goes wrong.
// One that passes its CRC and does not parse is the sender's bug: one
// decode error, dropped whole — the good records ahead of the damage
// included — and consumed, so the ack advances and the stream carries
// on. One that fails its CRC was damaged in flight: one checksum error,
// the connection severed without the ack advancing, and the replay of
// the same sequence number is what gets ingested.
func TestServerCountsDecodeErrors(t *testing.T) {
	feed := NewFeed(WireSchema(), 8)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	got, done := collect(feed)
	addr := srv.Addr().String()

	conn, _, token, _ := rawSessionDial(t, addr, parsefmt.PB, 0)
	// Two valid records, then a record with field number 9.
	misencoded := appendCRC(append(parsefmt.EncodePB(RecordGen{}.Records(0, 2)), 0x02, 0x48, 0x01), 0)
	if err := writeSeqFrame(conn, 1, misencoded); err != nil {
		t.Fatal(err)
	}
	awaitAck(t, conn, 1)
	good := appendCRC(parsefmt.EncodePB(RecordGen{}.Records(2, 4)), 0)
	damaged := bytes.Clone(good)
	damaged[3] ^= 0x10
	if err := writeSeqFrame(conn, 2, damaged); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, last, err := readCreditAck(conn); err == nil {
		t.Fatalf("damaged frame acked (cumulative ack %d); want the connection severed", last)
	}
	conn.Close()

	conn, _, _, last := rawSessionDial(t, addr, parsefmt.PB, token)
	if last != 1 {
		t.Fatalf("resume grant says %d, want 1: the misencoded frame consumed, the damaged one not", last)
	}
	if err := writeSeqFrame(conn, 2, good); err != nil { // the replay, intact
		t.Fatal(err)
	}
	awaitAck(t, conn, 2)
	if err := writeEOS(conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().ActiveSessions == 0 }, "session retirement on EOS")
	conn.Close()
	srv.Close()
	<-done

	ctr := srv.Counters()
	if ctr.DecodeErrors != 1 || ctr.ChecksumErrors != 1 || ctr.DuplicateFrames != 0 {
		t.Fatalf("decode errors %d, checksum errors %d, duplicates %d; want 1, 1, 0", ctr.DecodeErrors, ctr.ChecksumErrors, ctr.DuplicateFrames)
	}
	if got.Load() != 2 || ctr.IngestedRecords != 2 {
		t.Fatalf("ingested %d/%d, want the 2 records of the replayed frame", got.Load(), ctr.IngestedRecords)
	}
}

// TestCloseTwice: a second Close returns the first one's result at
// once — no end-of-stream write on the closed connection, no redial
// through the Reconnect budget. The server is gone by then, and a
// listener on its address counts any dial.
func TestCloseTwice(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	srv, err := Listen("127.0.0.1:0", ServerConfig{Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)
	addr := srv.Addr().String()
	c, err := Dial(addr, ClientConfig{Format: parsefmt.Columnar, FrameRecords: 10,
		Reconnect: &ReconnectConfig{MaxRetries: 3, BaseDelay: 200 * time.Millisecond, MaxDelay: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(RecordGen{Keys: 4, WindowRecords: 100}.Records(0, 30)); err != nil {
		t.Fatal(err)
	}
	first := c.Close()
	if first != nil {
		t.Fatalf("first Close: %v", first)
	}
	srv.Close()
	<-done

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			conn.Close()
		}
	}()
	defer ln.Close()

	t0 := time.Now()
	second := c.Close()
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Errorf("second Close took %v, want it at once", d)
	}
	if second != first {
		t.Errorf("second Close returned %v, the first %v", second, first)
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("second Close dialed %d times", n)
	}
}

func TestCreditWithholdingBlocksClient(t *testing.T) {
	feed := NewFeed(WireSchema(), 64)
	var overloaded atomic.Bool
	overloaded.Store(true)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Feed:         feed,
		FrameCredits: 2,
		Overloaded:   overloaded.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, done := collect(feed)

	c, err := Dial(srv.Addr().String(), ClientConfig{Format: parsefmt.PB, FrameRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	gen := RecordGen{Keys: 4, WindowRecords: 100}
	sent := make(chan error, 1)
	go func() { sent <- c.Send(gen.Records(0, 100)) }() // 10 frames, 2 credits

	select {
	case err := <-sent:
		t.Fatalf("send of 10 frames finished against a 2-frame window while overloaded (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
		// Blocked on credits, as intended.
	}
	overloaded.Store(false)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send after pressure cleared: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send still blocked after pressure cleared")
	}
	c.Close()
	srv.Close()
	<-done
	if n := srv.Counters().IngestedRecords; n != 100 {
		t.Fatalf("ingested %d, want 100", n)
	}
}

// --- Result store and HTTP endpoints. ---------------------------------------

func TestResultStoreRetainsAndMerges(t *testing.T) {
	st := NewResultStore(2)
	st.Publish("out", 0, 10, []ResultRow{{Key: 1, Val: 5}})
	st.Publish("out", 10, 20, []ResultRow{{Key: 1, Val: 6}})
	st.Publish("out", 20, 30, []ResultRow{{Key: 1, Val: 7}})
	wins := st.Snapshot()
	if len(wins) != 2 || wins[0].Start != 10 || wins[1].Start != 20 {
		t.Fatalf("retention: %+v", wins)
	}
	// Late duplicate merges rather than duplicating the window.
	st.Publish("out", 20, 30, []ResultRow{{Key: 2, Val: 9}})
	wins = st.Snapshot()
	if len(wins) != 2 || wins[1].Records != 2 {
		t.Fatalf("merge: %+v", wins)
	}
	if got := st.published.Load(); got != 4 {
		t.Fatalf("published %d, want 4", got)
	}
}

// TestResultStoreSharesRowsCopyOnMerge pins the store's ownership rule
// under -race: Snapshot hands out the published slices themselves (two
// snapshots of a window see one backing array), and that is safe
// because nothing writes a published slice — a re-publish merges into a
// fresh one, so a reader iterating an older snapshot keeps seeing the
// rows it was handed while publishers, re-publishers and other readers
// run beside it.
func TestResultStoreSharesRowsCopyOnMerge(t *testing.T) {
	const windows, rowsPer = 64, 32
	st := NewResultStore(windows)
	rows := func(val uint64) []ResultRow {
		out := make([]ResultRow, rowsPer)
		for i := range out {
			out[i] = ResultRow{Key: uint64(i), Val: val}
		}
		return out
	}
	// check walks one snapshot: a window holds its first publish (Val =
	// start) and, once re-published, the second (Val = start+1) after it.
	check := func(wins []WindowResult) {
		for _, w := range wins {
			if w.Records != len(w.Rows) || (len(w.Rows) != rowsPer && len(w.Rows) != 2*rowsPer) {
				t.Errorf("window %d: %d records, %d rows", w.Start, w.Records, len(w.Rows))
				return
			}
			for i, r := range w.Rows {
				if want := w.Start + uint64(i/rowsPer); r.Key != uint64(i%rowsPer) || r.Val != want {
					t.Errorf("window %d row %d: (%d, %d), want (%d, %d)", w.Start, i, r.Key, r.Val, i%rowsPer, want)
					return
				}
			}
		}
	}
	var wg sync.WaitGroup
	published := make(chan uint64, windows)
	wg.Add(1)
	go func() { // publisher
		defer wg.Done()
		defer close(published)
		for w := uint64(0); w < windows; w++ {
			st.Publish("out", w*10, w*10+10, rows(w*10))
			published <- w
		}
	}()
	wg.Add(1)
	go func() { // re-publisher, one window behind
		defer wg.Done()
		for w := range published {
			held := st.Snapshot()
			st.Publish("out", w*10, w*10+10, rows(w*10+1))
			check(held) // what it held before the merge is what it still holds
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // readers
			defer wg.Done()
			for i := 0; i < 200; i++ {
				check(st.Snapshot())
			}
		}()
	}
	wg.Wait()

	a, b := st.Snapshot(), st.Snapshot()
	check(a)
	if len(a) != windows || len(a[0].Rows) != 2*rowsPer {
		t.Fatalf("%d windows, %d rows in the first, want %d and %d", len(a), len(a[0].Rows), windows, 2*rowsPer)
	}
	for i := range a {
		if &a[i].Rows[0] != &b[i].Rows[0] {
			t.Fatalf("window %d: two snapshots hold different copies of its rows", a[i].Start)
		}
	}
}

// TestHTTPEndpoints: /windows serves the store, /metrics renders the
// sets it was handed, in order. What a live server puts in those sets is
// pinned by the golden test in the root package.
func TestHTTPEndpoints(t *testing.T) {
	st := NewResultStore(4)
	st.Publish("out", 0, WindowTicks, []ResultRow{{Key: 3, Val: 42}})
	var engine metrics.Set
	engine.Counter("streambox_sealed_panes_total").Add(5)
	h := NewHandler(st, &engine, st.Metrics())

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/windows", nil))
	if rr.Code != 200 {
		t.Fatalf("/windows: %d", rr.Code)
	}
	var body struct{ Windows []WindowResult }
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Windows) != 1 || body.Windows[0].Rows[0].Val != 42 {
		t.Fatalf("/windows body: %+v", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	if got, want := rr.Body.String(), "streambox_sealed_panes_total 5\nstreambox_windows_published_total 1\n"; got != want {
		t.Fatalf("/metrics body %q, want %q", got, want)
	}
}

// TestStreamGenMatchesRecordGen pins the equivalence seam: the
// generator adapter must emit exactly the wire stream.
func TestStreamGenMatchesRecordGen(t *testing.T) {
	gen := RecordGen{Keys: 8, WindowRecords: 50, ValueRange: 100, Random: true, Seed: 7}
	sg := NewStreamGen(gen)
	bd := newTestBuilder(t, 120)
	sg.Fill(bd, 120, 0, 0)
	b := bd.Seal()
	for i := 0; i < 120; i++ {
		want := gen.At(uint64(i)).Cols()
		for col := 0; col < 7; col++ {
			if b.At(i, col) != want[col] {
				t.Fatalf("record %d col %d: %d != %d", i, col, b.At(i, col), want[col])
			}
		}
	}
}

// newTestBuilder makes an unmanaged bundle builder for adapter tests.
func newTestBuilder(t *testing.T, capacity int) *bundle.Builder {
	t.Helper()
	bd, err := bundle.NewBuilder(1, WireSchema(), capacity, memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return bd
}
