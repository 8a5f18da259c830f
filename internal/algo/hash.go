package algo

import "fmt"

// HashTable is an open-addressing, linear-probing hash table from uint64
// keys to uint64 values. It is (a) the random-access grouping baseline
// that the paper measures against merge-sort (Figure 2), and (b) the
// external key-value side table of the YSB pipeline (ad_id -> campaign).
type HashTable struct {
	keys  []uint64
	vals  []uint64
	state []uint8 // 0 empty, 1 full
	n     int
	mask  uint64
}

// NewHashTable pre-allocates a table for at least capacity entries at
// 50% max load factor, as the paper's pre-allocated open-addressing
// implementation does.
func NewHashTable(capacity int) *HashTable {
	if capacity < 1 {
		capacity = 1
	}
	size := 2
	for size < capacity*2 {
		size *= 2
	}
	return &HashTable{
		keys:  make([]uint64, size),
		vals:  make([]uint64, size),
		state: make([]uint8, size),
		mask:  uint64(size - 1),
	}
}

// mix is a 64-bit finalizer (splitmix64) giving a well-distributed slot.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Put inserts or overwrites key -> val.
func (h *HashTable) Put(key, val uint64) {
	if h.n*2 >= len(h.keys) {
		h.grow()
	}
	slot := mix(key) & h.mask
	for {
		if h.state[slot] == 0 {
			h.state[slot] = 1
			h.keys[slot] = key
			h.vals[slot] = val
			h.n++
			return
		}
		if h.keys[slot] == key {
			h.vals[slot] = val
			return
		}
		slot = (slot + 1) & h.mask
	}
}

// Get returns the value for key.
func (h *HashTable) Get(key uint64) (uint64, bool) {
	slot := mix(key) & h.mask
	for {
		if h.state[slot] == 0 {
			return 0, false
		}
		if h.keys[slot] == key {
			return h.vals[slot], true
		}
		slot = (slot + 1) & h.mask
	}
}

// Add accumulates delta into the value for key (creating it at zero),
// the inner loop of hash-based aggregation.
func (h *HashTable) Add(key, delta uint64) {
	if h.n*2 >= len(h.keys) {
		h.grow()
	}
	slot := mix(key) & h.mask
	for {
		if h.state[slot] == 0 {
			h.state[slot] = 1
			h.keys[slot] = key
			h.vals[slot] = delta
			h.n++
			return
		}
		if h.keys[slot] == key {
			h.vals[slot] += delta
			return
		}
		slot = (slot + 1) & h.mask
	}
}

// Len returns the number of live entries.
func (h *HashTable) Len() int { return h.n }

// Range calls fn for every entry until fn returns false.
func (h *HashTable) Range(fn func(key, val uint64) bool) {
	for i, s := range h.state {
		if s == 1 {
			if !fn(h.keys[i], h.vals[i]) {
				return
			}
		}
	}
}

func (h *HashTable) grow() {
	old := *h
	size := len(h.keys) * 2
	h.keys = make([]uint64, size)
	h.vals = make([]uint64, size)
	h.state = make([]uint8, size)
	h.mask = uint64(size - 1)
	h.n = 0
	for i, s := range old.state {
		if s == 1 {
			h.Put(old.keys[i], old.vals[i])
		}
	}
}

// String summarises the table.
func (h *HashTable) String() string {
	return fmt.Sprintf("hashtable(n=%d cap=%d)", h.n, len(h.keys))
}
