package kpa

import (
	"fmt"

	"streambox/internal/algo"
)

// MergeSlice is one independently mergeable segment of a two-way merge:
// rows [ALo,AHi) of the left input and [BLo,BHi) of the right input
// land at [OutLo, OutLo+width) of the output. Slices are computed at
// key boundaries so segments can merge in parallel (paper §4.2: "the
// threads slice chunks at key boundaries to parallelize the task of
// merging fewer, but larger chunks").
type MergeSlice struct {
	ALo, AHi int
	BLo, BHi int
	OutLo    int
}

// Len returns the slice's output width.
func (s MergeSlice) Len() int { return (s.AHi - s.ALo) + (s.BHi - s.BLo) }

// MergeSlices partitions the merge of sorted KPAs a and b into up to p
// balanced slices.
func MergeSlices(a, b *KPA, p int) ([]MergeSlice, error) {
	if !a.sorted || !b.sorted {
		return nil, fmt.Errorf("kpa: merge slicing requires sorted inputs")
	}
	na, nb := a.Len(), b.Len()
	total := na + nb
	if p < 1 {
		p = 1
	}
	if p > total {
		p = total
	}
	if total == 0 {
		return nil, nil
	}
	pa, pb := a.pairs, b.pairs
	var out []MergeSlice
	prevA, prevB := 0, 0
	for i := 1; i <= p; i++ {
		k := i * total / p
		// Constraining the search to ai >= prevA keeps slices monotone
		// even when equal keys admit several valid splits.
		ai := kthSplit(pa, pb, k, prevA)
		bi := k - ai
		if bi < prevB { // ties resolved leftward: clamp to monotone
			bi = prevB
			ai = k - bi
		}
		if ai == prevA && bi == prevB {
			continue // empty slice after rounding
		}
		out = append(out, MergeSlice{
			ALo: prevA, AHi: ai,
			BLo: prevB, BHi: bi,
			OutLo: prevA + prevB,
		})
		prevA, prevB = ai, bi
	}
	return out, nil
}

// kthSplit returns ai >= minA such that taking a[:ai] and b[:k-ai]
// yields k smallest elements of the merge (ties resolved consistently).
func kthSplit(a, b []algo.Pair, k, minA int) int {
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	if lo < minA {
		lo = minA
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		ai := (lo + hi) / 2
		bi := k - ai
		// Valid split: a[ai-1] <= b[bi] and b[bi-1] <= a[ai].
		if ai > 0 && bi < len(b) && a[ai-1].Key > b[bi].Key {
			hi = ai - 1
			continue
		}
		if bi > 0 && ai < len(a) && b[bi-1].Key > a[ai].Key {
			lo = ai + 1
			continue
		}
		return ai
	}
	return lo
}

// NewMergeTarget allocates the output KPA for a sliced merge of a and
// b: full length, sources inherited, marked sorted (segments fill it).
func NewMergeTarget(a, b *KPA, al Allocator) (*KPA, error) {
	if !a.sorted || !b.sorted {
		return nil, fmt.Errorf("kpa: merge requires sorted inputs")
	}
	if a.resident != b.resident {
		return nil, fmt.Errorf("kpa: merge of different resident columns (%d vs %d)", a.resident, b.resident)
	}
	out, err := newKPA(a.Len()+b.Len(), a.resident, al)
	if err != nil {
		return nil, err
	}
	out.pairs = out.pairs[:a.Len()+b.Len()]
	out.inheritSources(a)
	out.inheritSources(b)
	out.sorted = true
	return out, nil
}

// MergeSegment merges one slice of a and b into out (safe to run from
// distinct tasks on disjoint slices): the verbatim k-way merge of the two
// segments, ties to a.
func MergeSegment(out, a, b *KPA, s MergeSlice) {
	segs := [][]algo.Pair{a.pairs[s.ALo:s.AHi], b.pairs[s.BLo:s.BHi]}
	algo.MultiMergeFold(segs, algo.Fold{Op: algo.FoldCopy}, out.pairs[s.OutLo:s.OutLo+s.Len()])
}
