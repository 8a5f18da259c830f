package bundle

import (
	"testing"

	"streambox/internal/memsim"
)

func TestRegistryAssignsIDs(t *testing.T) {
	r := NewRegistry()
	bd1, err := r.NewBuilder(kvSchema, 4, memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	bd2, _ := r.NewBuilder(kvSchema, 4, memsim.DRAM)
	b1 := bd1.Seal()
	b2 := bd2.Seal()
	if b1.ID() == b2.ID() {
		t.Fatal("duplicate IDs")
	}
	if r.m[uint32(b1.ID())] != b1 {
		t.Fatal("lookup failed")
	}
	if r.Live() != 2 {
		t.Fatalf("live = %d", r.Live())
	}
}

func TestRegistryUnregistersOnReclaim(t *testing.T) {
	r := NewRegistry()
	bd, _ := r.NewBuilder(kvSchema, 4, memsim.DRAM)
	bd.Append(1, 2, 3)
	b := bd.Seal()
	id := uint32(b.ID())
	b.Release()
	if r.m[id] != nil {
		t.Fatal("reclaimed bundle still registered")
	}
	if r.Live() != 0 {
		t.Fatalf("live = %d", r.Live())
	}
}

func TestRegistryUnsealedNotVisible(t *testing.T) {
	r := NewRegistry()
	bd, _ := r.NewBuilder(kvSchema, 4, memsim.DRAM)
	if r.Live() != 0 {
		t.Fatal("unsealed builder must not be registered")
	}
	bd.Seal()
	if r.Live() != 1 {
		t.Fatal("sealed bundle must be registered")
	}
}

func TestRegistryInvalidSchema(t *testing.T) {
	r := NewRegistry()
	if _, err := r.NewBuilder(Schema{NumCols: 0, TsCol: 0}, 4, memsim.DRAM); err == nil {
		t.Fatal("expected error")
	}
}
