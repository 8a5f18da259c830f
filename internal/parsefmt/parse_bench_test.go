package parsefmt

import (
	"math/rand"
	"testing"
)

func mkRecs(n int) []Record {
	r := rand.New(rand.NewSource(1))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{r.Uint64() % 1000, r.Uint64() % 5, r.Uint64() % 3, r.Uint64() % 100000, r.Uint64() % 1000, r.Uint64(), r.Uint64() % 1000000}
	}
	return out
}

// wireShapedRecs builds n records shaped like the network benchmark's
// row frames: a key under 1 024 and its key%10, g%4, a value under 2^20,
// g%1000, an IPv4 address in 10.0.0.0/16 and a growing timestamp.
func wireShapedRecs(n int) []Record {
	r := rand.New(rand.NewSource(1))
	out := make([]Record, n)
	for i := range out {
		g, key := uint64(i), r.Uint64()%1024
		out[i] = Record{key, key % 10, g % 4, r.Uint64() % (1 << 20), g % 1000, 0x0A000000 + g%65536, 1<<24 + g*1953}
	}
	return out
}

// pbShapes are the record sets the PB codec benchmarks run: mkRecs's,
// whose IP column takes ten-byte varints, and the wire's.
var pbShapes = []struct {
	name string
	recs []Record
}{
	{"mkRecs", mkRecs(1000)},
	{"wire", wireShapedRecs(512)},
}

// reportPerRec adds ns/rec for a benchmark that handles recs records
// per iteration.
func reportPerRec(b *testing.B, recs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*recs), "ns/rec")
}

func BenchmarkDecText(b *testing.B) {
	data := EncodeText(mkRecs(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeText(data)
	}
}

func BenchmarkDecPBColumns(b *testing.B) {
	for _, sh := range pbShapes {
		b.Run(sh.name, func(b *testing.B) {
			data := EncodePB(sh.recs)
			cols := new(makeCols).take(len(sh.recs))
			take := func(int) [][]uint64 { return cols }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DecodePBColumns(data, AllFields, take)
			}
			reportPerRec(b, len(sh.recs))
		})
	}
}

var appendSink []byte

func BenchmarkAppendPB(b *testing.B) {
	for _, sh := range pbShapes {
		b.Run(sh.name, func(b *testing.B) {
			buf := AppendPB(nil, sh.recs, AllFields)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendPB(buf[:0], sh.recs, AllFields)
			}
			appendSink = buf
			reportPerRec(b, len(sh.recs))
		})
	}
}

func BenchmarkDecPBLibrary(b *testing.B) {
	data := EncodePB(mkRecs(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePBLibrary(data)
	}
}
