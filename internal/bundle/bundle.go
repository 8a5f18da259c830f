// Package bundle implements record bundles, the engine's unit of data
// parallelism (paper §2.1, Figure 1c). A bundle holds a batch of numeric
// records in columnar layout: every record has the same set of 64-bit
// columns, one of which is the event timestamp. Bundles live in DRAM at
// ingress, are never modified after sealing (paper §5.1), and are
// reclaimed by reference counting when no KPA points into them.
//
// Column storage has one lifetime rule: whoever supplies the columns
// (Registry.NewBuilderOver — the native runtime's pooled slabs) gets
// them back through its release hook at the bundle's last Release, and
// nothing reads them afterwards. NewBuilder is the same constructor
// over garbage-collected columns of its own making.
package bundle

import (
	"fmt"
	"sync/atomic"

	"streambox/internal/memsim"
)

// Schema describes the column layout of a stream's records.
type Schema struct {
	// NumCols is the number of 64-bit columns per record.
	NumCols int
	// TsCol is the index of the event-timestamp column.
	TsCol int
	// Names optionally labels columns for debugging and examples.
	Names []string
}

// Validate reports schema errors.
func (s Schema) Validate() error {
	if s.NumCols <= 0 {
		return fmt.Errorf("bundle: schema needs at least one column, got %d", s.NumCols)
	}
	if s.TsCol < 0 || s.TsCol >= s.NumCols {
		return fmt.Errorf("bundle: timestamp column %d out of range [0,%d)", s.TsCol, s.NumCols)
	}
	if s.Names != nil && len(s.Names) != s.NumCols {
		return fmt.Errorf("bundle: %d names for %d columns", len(s.Names), s.NumCols)
	}
	return nil
}

// RecordBytes returns the in-memory size of one record.
func (s Schema) RecordBytes() int64 { return int64(s.NumCols) * 8 }

// Bundle is a sealed batch of records. All access is read-only after
// Seal; the reference count tracks how many KPAs point into the bundle.
type Bundle struct {
	id     uint64
	schema Schema
	cols   [][]uint64
	n      int
	sealed bool
	tier   memsim.Tier
	rc     atomic.Int64

	// alloc is the backing slab allocation, freed when rc drops to zero.
	alloc interface{ Free() }
	// onFree hooks run after the bundle is reclaimed.
	onFree []func(*Bundle)
	// release takes the column storage back once the bundle is
	// reclaimed; nil leaves it to the garbage collector.
	release func(cols [][]uint64)
}

// Builder assembles a bundle row by row, then seals it.
type Builder struct {
	b   *Bundle
	reg *Registry
}

// NewBuilder starts a bundle of up to capacity records on tier t, in
// heap columns of its own.
func NewBuilder(id uint64, schema Schema, capacity int, tier memsim.Tier) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("bundle: capacity must be positive, got %d", capacity)
	}
	cols := make([][]uint64, schema.NumCols)
	for i := range cols {
		cols[i] = make([]uint64, 0, capacity)
	}
	return newBuilderOver(id, schema, cols, tier, nil)
}

// newBuilderOver is the one constructor; Registry.NewBuilderOver
// documents it.
func newBuilderOver(id uint64, schema Schema, cols [][]uint64, tier memsim.Tier, release func(cols [][]uint64)) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(cols) != schema.NumCols {
		return nil, fmt.Errorf("bundle %d: %d columns for %d-column schema", id, len(cols), schema.NumCols)
	}
	n := len(cols[0])
	for _, c := range cols[1:] {
		if len(c) != n {
			return nil, fmt.Errorf("bundle %d: ragged columns (%d vs %d)", id, len(c), n)
		}
	}
	return &Builder{b: &Bundle{id: id, schema: schema, cols: cols, n: n, tier: tier, release: release}}, nil
}

// Append adds one record; vals must have one value per column.
func (bd *Builder) Append(vals ...uint64) error {
	if bd.b.sealed {
		return fmt.Errorf("bundle %d: append after seal", bd.b.id)
	}
	if len(vals) != bd.b.schema.NumCols {
		return fmt.Errorf("bundle %d: %d values for %d columns", bd.b.id, len(vals), bd.b.schema.NumCols)
	}
	for i, v := range vals {
		bd.b.cols[i] = append(bd.b.cols[i], v)
	}
	bd.b.n++
	return nil
}

// AppendColumnar bulk-appends column-major data; every slice must have
// the same length.
func (bd *Builder) AppendColumnar(cols ...[]uint64) error {
	if bd.b.sealed {
		return fmt.Errorf("bundle %d: append after seal", bd.b.id)
	}
	if len(cols) != bd.b.schema.NumCols {
		return fmt.Errorf("bundle %d: %d columns for %d-column schema", bd.b.id, len(cols), bd.b.schema.NumCols)
	}
	n := len(cols[0])
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("bundle %d: ragged columns (%d vs %d)", bd.b.id, len(c), n)
		}
		bd.b.cols[i] = append(bd.b.cols[i], c...)
	}
	bd.b.n += n
	return nil
}

// AttachAlloc attaches the backing slab allocation before sealing; it
// is freed when the bundle's reference count drops to zero.
func (bd *Builder) AttachAlloc(a interface{ Free() }) error {
	if bd.b.sealed {
		return fmt.Errorf("bundle %d: attach after seal", bd.b.id)
	}
	bd.b.alloc = a
	return nil
}

// Seal finalizes the bundle with an initial reference count of 1 (held
// by the producer; transferred to the first consumer). Bundles built
// through a Registry are registered here.
func (bd *Builder) Seal() *Bundle {
	bd.b.sealed = true
	bd.b.rc.Store(1)
	if bd.reg != nil {
		bd.reg.register(bd.b)
		bd.reg = nil
	}
	return bd.b
}

// AddOnFree registers a reclamation hook.
func (b *Bundle) AddOnFree(fn func(*Bundle)) { b.onFree = append(b.onFree, fn) }

// ID returns the bundle identifier.
func (b *Bundle) ID() uint64 { return b.id }

// Schema returns the record layout.
func (b *Bundle) Schema() Schema { return b.schema }

// Rows returns the record count.
func (b *Bundle) Rows() int { return b.n }

// Tier returns the memory tier holding the bundle.
func (b *Bundle) Tier() memsim.Tier { return b.tier }

// Bytes returns the in-memory size of the bundle's data.
func (b *Bundle) Bytes() int64 { return int64(b.n) * b.schema.RecordBytes() }

// Col returns column c. The returned slice must not be mutated: bundles
// are immutable after sealing.
func (b *Bundle) Col(c int) []uint64 {
	if c < 0 || c >= len(b.cols) {
		panic(fmt.Sprintf("bundle %d: column %d out of range [0,%d)", b.id, c, len(b.cols)))
	}
	return b.cols[c]
}

// At returns the value of column c in row r.
func (b *Bundle) At(r, c int) uint64 { return b.Col(c)[r] }

// OverwriteAt updates one value in place. Bundles never change
// structurally after sealing (no adds, deletes or reorders, paper
// §5.1), but §4.3's dirty-key write-back does update values: the YSB
// external join writes campaign IDs back into the ad_id column.
func (b *Bundle) OverwriteAt(r, c int, v uint64) { b.Col(c)[r] = v }

// Ts returns the event timestamp of row r.
func (b *Bundle) Ts(r int) uint64 { return b.cols[b.schema.TsCol][r] }

// RC returns the current reference count (for tests and stats).
func (b *Bundle) RC() int64 { return b.rc.Load() }

// Retain increments the reference count. It panics if the bundle was
// already reclaimed — KPAs must only retain live bundles.
func (b *Bundle) Retain() {
	if b.rc.Add(1) <= 1 {
		panic(fmt.Sprintf("bundle %d: retain after reclaim", b.id))
	}
}

// Release decrements the reference count and reclaims the bundle when it
// reaches zero: the slab allocation is freed (paper §5.1) and the column
// storage goes back to whoever supplied it, so a read through a stale
// *Bundle fails instead of seeing another bundle's rows.
func (b *Bundle) Release() {
	n := b.rc.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("bundle %d: release below zero", b.id))
	}
	if n == 0 {
		if b.alloc != nil {
			b.alloc.Free()
			b.alloc = nil
		}
		for _, fn := range b.onFree {
			fn(b)
		}
		if cols := b.cols; b.release != nil {
			b.cols = nil
			b.release(cols)
		}
	}
}

// String renders a short description.
func (b *Bundle) String() string {
	return fmt.Sprintf("bundle(id=%d rows=%d cols=%d tier=%v rc=%d)",
		b.id, b.n, b.schema.NumCols, b.tier, b.rc.Load())
}

// MinMaxTs scans the timestamp column and returns its range; ok is false
// for an empty bundle.
func (b *Bundle) MinMaxTs() (min, max uint64, ok bool) {
	ts := b.cols[b.schema.TsCol]
	if len(ts) == 0 {
		return 0, 0, false
	}
	min, max = ts[0], ts[0]
	for _, v := range ts[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, true
}
