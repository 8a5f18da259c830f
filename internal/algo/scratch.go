package algo

// Scratch supplies reusable []Pair buffers to the sorting and merging
// kernels so their scratch space (radix scatter targets, staged merge
// outputs) can come from a recycling allocator instead of the
// Go heap. The mempool package provides pool-backed instances; a nil
// *Scratch (or nil funcs) falls back to plain make, so every kernel
// works without a pool.
//
// Buffers returned by Get hold arbitrary stale contents — callers must
// fully overwrite any element before reading it.
type Scratch struct {
	// Get returns a buffer of at least n pairs (length >= n).
	Get func(n int) []Pair
	// Put returns a buffer obtained from Get for reuse.
	Put func([]Pair)
}

// GetPairs returns a buffer of exactly n pairs (len n), drawing from
// the underlying recycler when one is attached.
func (s *Scratch) GetPairs(n int) []Pair {
	if s == nil || s.Get == nil {
		return make([]Pair, n)
	}
	b := s.Get(n)
	if len(b) < n {
		return make([]Pair, n)
	}
	return b[:n]
}

// PutPairs hands a buffer back for reuse. Safe on nil scratch (the
// buffer is simply dropped to the garbage collector).
func (s *Scratch) PutPairs(b []Pair) {
	if s == nil || s.Put == nil || b == nil {
		return
	}
	s.Put(b)
}
