// Package spill implements the cold tier of the memory degradation
// ladder: an mmap'd, file-backed arena that holds the window runs
// placed there at birth, when neither the HBM nor the DRAM pool is under
// the placement setpoint.
//
// The arena is deliberately simple. A temporary file is created,
// truncated to the configured capacity, mapped MAP_SHARED and then
// unlinked, so spill data can never outlive the process — the spill
// tier is a pressure valve, not a durability mechanism (crash recovery
// replays the WAL; spilled runs are reconstructible from it). Extents
// are carved with a bump pointer plus per-size free lists; sizes are
// rounded to 64 bytes so an extent is alignment-safe for a zero-copy
// []algo.Pair view.
//
// An extent holds one run's pairs and nothing else — no header, no
// checksum: the file is unlinked at creation and read only through the
// views of the process that wrote it, and what describes the run (sorted,
// resident column, provenance) stays on the KPA that holds the extent.
package spill

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"streambox/internal/algo"
)

// extentAlign is the allocation granularity. 64 bytes keeps extents
// cacheline-aligned, and so 8-aligned for zero-copy []algo.Pair views.
const extentAlign = 64

// ErrFull reports that the spill file cannot satisfy an allocation. The
// ladder then falls back to any memory tier with room, and past that to
// the backpressure/shed machinery.
type ErrFull struct {
	Want int64 // bytes requested (rounded)
	Free int64 // bytes available
}

func (e *ErrFull) Error() string {
	return fmt.Sprintf("spill: file full: want %d bytes, %d free", e.Want, e.Free)
}

// File is an mmap'd spill arena. All methods are safe for concurrent
// use; Pairs returns views into the mapping that stay valid until Close.
type File struct {
	mu   sync.Mutex
	f    *os.File
	data []byte
	tail int64
	free map[int64][]int64 // rounded extent size -> free offsets (LIFO)
}

// Create makes a spill arena of capBytes in dir (or the default temp
// directory when dir is empty). The backing file is unlinked
// immediately: it occupies disk space only while the process lives.
func Create(dir string, capBytes int64) (*File, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("spill: capacity must be positive, got %d", capBytes)
	}
	capBytes = RoundUp(capBytes)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("spill: create dir: %w", err)
		}
	}
	f, err := os.CreateTemp(dir, "sbx-spill-*.dat")
	if err != nil {
		return nil, fmt.Errorf("spill: create: %w", err)
	}
	path := f.Name()
	if err := f.Truncate(capBytes); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("spill: truncate to %d: %w", capBytes, err)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(capBytes),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("spill: mmap %d bytes: %w", capBytes, err)
	}
	// Unlink now: the mapping keeps the storage alive, and a crash
	// leaves nothing behind to clean up.
	os.Remove(path)
	return &File{
		f:    f,
		data: data,
		free: make(map[int64][]int64),
	}, nil
}

// RoundUp rounds n up to the extent granularity — the size actually
// consumed by Alloc(n), which callers doing their own accounting
// (mempool) must charge.
func RoundUp(n int64) int64 {
	return (n + extentAlign - 1) &^ (extentAlign - 1)
}

// Alloc reserves an extent of at least n bytes and returns its offset.
// Returns *ErrFull when neither the free lists nor the bump region can
// satisfy the request.
func (f *File) Alloc(n int64) (int64, error) {
	if n <= 0 {
		panic(fmt.Sprintf("spill: Alloc(%d)", n))
	}
	n = RoundUp(n)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.data == nil {
		panic("spill: Alloc after Close")
	}
	if list := f.free[n]; len(list) > 0 {
		off := list[len(list)-1]
		f.free[n] = list[:len(list)-1]
		return off, nil
	}
	if f.tail+n > int64(len(f.data)) {
		return 0, &ErrFull{Want: n, Free: int64(len(f.data)) - f.tail}
	}
	off := f.tail
	f.tail += n
	return off, nil
}

// Free returns the extent at off (allocated with size n) to the arena.
func (f *File) Free(off, n int64) {
	n = RoundUp(n)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.data == nil {
		return // closed: the whole mapping is already gone
	}
	f.free[n] = append(f.free[n], off)
}

// Pairs returns the extent at off as a zero-copy []algo.Pair view of n
// pairs. off must be extent-aligned (which Alloc guarantees).
func (f *File) Pairs(off int64, n int) []algo.Pair {
	if n == 0 {
		return nil
	}
	b := f.data[off:]
	return unsafe.Slice((*algo.Pair)(unsafe.Pointer(&b[0])), n)
}

// Capacity returns the arena size in bytes.
func (f *File) Capacity() int64 { return int64(len(f.data)) }

// Close unmaps and closes the arena. All outstanding views become
// invalid. Safe to call once; the backing file was unlinked at Create.
func (f *File) Close() error {
	f.mu.Lock()
	data := f.data
	f.data = nil
	f.mu.Unlock()
	if data == nil {
		return nil
	}
	err := syscall.Munmap(data)
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}
