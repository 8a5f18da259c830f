package bundle

import (
	"strings"
	"testing"
	"testing/quick"

	"streambox/internal/memsim"
)

var kvSchema = Schema{NumCols: 3, TsCol: 2, Names: []string{"key", "value", "ts"}}

func build(t *testing.T, rows ...[3]uint64) *Bundle {
	t.Helper()
	bd, err := NewBuilder(1, kvSchema, max(len(rows), 1), memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := bd.Append(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	return bd.Seal()
}

func TestSchemaValidate(t *testing.T) {
	if err := kvSchema.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{NumCols: 0, TsCol: 0},
		{NumCols: 3, TsCol: 3},
		{NumCols: 3, TsCol: -1},
		{NumCols: 3, TsCol: 0, Names: []string{"only-one"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSchemaHelpers(t *testing.T) {
	if kvSchema.RecordBytes() != 24 {
		t.Errorf("record bytes = %d", kvSchema.RecordBytes())
	}
}

func TestBuilderAppendAndSeal(t *testing.T) {
	b := build(t, [3]uint64{7, 100, 5}, [3]uint64{8, 200, 6})
	if b.Rows() != 2 {
		t.Fatalf("rows = %d", b.Rows())
	}
	if b.At(0, 0) != 7 || b.At(1, 1) != 200 {
		t.Error("wrong values")
	}
	if b.Ts(1) != 6 {
		t.Errorf("ts = %d", b.Ts(1))
	}
	if b.Bytes() != 48 {
		t.Errorf("bytes = %d", b.Bytes())
	}
	if b.Tier() != memsim.DRAM {
		t.Error("wrong tier")
	}
	if b.RC() != 1 {
		t.Errorf("initial rc = %d", b.RC())
	}
	if !strings.Contains(b.String(), "rows=2") {
		t.Errorf("String() = %q", b.String())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(1, Schema{NumCols: 0, TsCol: 0}, 10, memsim.DRAM); err == nil {
		t.Error("invalid schema must fail")
	}
	if _, err := NewBuilder(1, kvSchema, 0, memsim.DRAM); err == nil {
		t.Error("zero capacity must fail")
	}
	bd, _ := NewBuilder(1, kvSchema, 4, memsim.DRAM)
	if err := bd.Append(1, 2); err == nil {
		t.Error("wrong arity must fail")
	}
	bd.Append(1, 2, 3)
	bd.Seal()
	if err := bd.Append(1, 2, 3); err == nil {
		t.Error("append after seal must fail")
	}
}

func TestAppendColumnar(t *testing.T) {
	bd, _ := NewBuilder(2, kvSchema, 8, memsim.DRAM)
	err := bd.AppendColumnar([]uint64{1, 2}, []uint64{10, 20}, []uint64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if bd.b.n != 2 {
		t.Fatalf("len = %d", bd.b.n)
	}
	if err := bd.AppendColumnar([]uint64{1}, []uint64{10, 20}, []uint64{5}); err == nil {
		t.Error("ragged columns must fail")
	}
	if err := bd.AppendColumnar([]uint64{1}); err == nil {
		t.Error("wrong column count must fail")
	}
	b := bd.Seal()
	if err := bd.AppendColumnar([]uint64{1}, []uint64{1}, []uint64{1}); err == nil {
		t.Error("columnar append after seal must fail")
	}
	if b.At(1, 1) != 20 {
		t.Error("wrong columnar value")
	}
}

func TestColOutOfRangePanics(t *testing.T) {
	b := build(t, [3]uint64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Col(9)
}

type fakeAlloc struct{ freed int }

func (f *fakeAlloc) Free() { f.freed++ }

func TestRefcountReclaim(t *testing.T) {
	b := build(t, [3]uint64{1, 2, 3})
	fa := &fakeAlloc{}
	b.alloc = fa
	var reclaimed *Bundle
	b.AddOnFree(func(bb *Bundle) { reclaimed = bb })

	b.Retain() // rc 2
	b.Retain() // rc 3
	b.Release()
	b.Release()
	if fa.freed != 0 || reclaimed != nil {
		t.Fatal("reclaimed too early")
	}
	b.Release() // rc 0
	if fa.freed != 1 {
		t.Fatalf("alloc freed %d times", fa.freed)
	}
	if reclaimed != b {
		t.Fatal("onFree not called")
	}
}

func TestRetainAfterReclaimPanics(t *testing.T) {
	b := build(t, [3]uint64{1, 2, 3})
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Retain()
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	b := build(t, [3]uint64{1, 2, 3})
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Release()
}

func TestMinMaxTs(t *testing.T) {
	b := build(t, [3]uint64{1, 2, 30}, [3]uint64{1, 2, 10}, [3]uint64{1, 2, 20})
	min, max, ok := b.MinMaxTs()
	if !ok || min != 10 || max != 30 {
		t.Fatalf("min=%d max=%d ok=%v", min, max, ok)
	}
	bd, _ := NewBuilder(9, kvSchema, 1, memsim.DRAM)
	empty := bd.Seal()
	if _, _, ok := empty.MinMaxTs(); ok {
		t.Fatal("empty bundle must report !ok")
	}
}

// Property: column layout preserves every appended row exactly.
func TestRoundTripRows(t *testing.T) {
	f := func(rows [][3]uint64) bool {
		if len(rows) == 0 {
			return true
		}
		bd, err := NewBuilder(3, kvSchema, len(rows), memsim.HBM)
		if err != nil {
			return false
		}
		for _, r := range rows {
			if err := bd.Append(r[0], r[1], r[2]); err != nil {
				return false
			}
		}
		b := bd.Seal()
		if b.Rows() != len(rows) {
			return false
		}
		for i, r := range rows {
			for c := 0; c < 3; c++ {
				if b.At(i, c) != r[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
