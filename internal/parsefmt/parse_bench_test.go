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

func BenchmarkDecText(b *testing.B) {
	data := EncodeText(mkRecs(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeText(data)
	}
}
func BenchmarkDecPBColumns(b *testing.B) {
	data := EncodePB(mkRecs(1000))
	cols := new(makeCols).take(1000)
	take := func(int) [][]uint64 { return cols }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePBColumns(data, take)
	}
}

func BenchmarkDecPBLibrary(b *testing.B) {
	data := EncodePB(mkRecs(1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodePBLibrary(data)
	}
}
