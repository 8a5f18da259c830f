package kpa

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"streambox/internal/algo"
)

// buildSorted makes a sorted KPA over one bundle with the given keys.
func buildSorted(t *testing.T, e *env, keys []uint64) *KPA {
	if t != nil {
		t.Helper()
	}
	rows := make([][3]uint64, len(keys))
	for i, k := range keys {
		rows[i] = [3]uint64{k, k * 10, uint64(i)}
	}
	b := e.bundleOf(t, rows...)
	k, err := Extract(b, 0, e.al)
	if err != nil {
		panic(err)
	}
	SortRadix(k, 1, nil)
	return k
}

func randKeys(n int, mod uint64, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64() % mod
	}
	return out
}

func TestMergeSlicesBasic(t *testing.T) {
	e := newEnv()
	a := buildSorted(t, e, []uint64{1, 3, 5, 7})
	b := buildSorted(t, e, []uint64{2, 4, 6, 8})
	slices, err := MergeSlices(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) == 0 {
		t.Fatal("no slices")
	}
	total := 0
	for _, s := range slices {
		total += s.Len()
	}
	if total != 8 {
		t.Fatalf("slices cover %d of 8", total)
	}
	out, err := NewMergeTarget(a, b, e.al)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range slices {
		MergeSegment(out, a, b, s)
	}
	if !reflect.DeepEqual(out.Keys(), []uint64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("merged = %v", out.Keys())
	}
	if !out.Sorted() {
		t.Fatal("target must be sorted")
	}
	if out.NumSources() != 2 {
		t.Fatal("sources not inherited")
	}
}

func TestMergeSlicesRequiresSorted(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{3, 0, 0}, [3]uint64{1, 0, 1})
	k, _ := Extract(b, 0, e.al)
	k2, _ := Extract(b, 0, e.al)
	SortRadix(k2, 1, nil)
	if _, err := MergeSlices(k, k2, 4); err == nil {
		t.Fatal("unsorted input must fail")
	}
	if _, err := NewMergeTarget(k, k2, e.al); err == nil {
		t.Fatal("unsorted target must fail")
	}
}

func TestMergeTargetResidentMismatch(t *testing.T) {
	e := newEnv()
	a := buildSorted(t, e, []uint64{1, 2})
	b := buildSorted(t, e, []uint64{3, 4})
	KeySwap(b, 1)
	SortRadix(b, 1, nil)
	if _, err := NewMergeTarget(a, b, e.al); err == nil {
		t.Fatal("resident mismatch must fail")
	}
}

func TestMergeSlicesEmptyInputs(t *testing.T) {
	e := newEnv()
	a := buildSorted(t, e, nil)
	b := buildSorted(t, e, []uint64{1, 2})
	slices, err := MergeSlices(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range slices {
		total += s.Len()
	}
	if total != 2 {
		t.Fatalf("cover = %d", total)
	}
	// Both empty.
	c := buildSorted(t, e, nil)
	slices, err = MergeSlices(a, c, 4)
	if err != nil || len(slices) != 0 {
		t.Fatalf("empty-empty: %v %d", err, len(slices))
	}
}

func TestPropSlicedMergeEqualsPlainMerge(t *testing.T) {
	f := func(rawA, rawB []uint16, pRaw uint8) bool {
		e := newEnv()
		ka := make([]uint64, len(rawA))
		for i, v := range rawA {
			ka[i] = uint64(v % 64) // many duplicates stress tie handling
		}
		kb := make([]uint64, len(rawB))
		for i, v := range rawB {
			kb[i] = uint64(v % 64)
		}
		a := buildSorted(nil, e, ka)
		b := buildSorted(nil, e, kb)
		p := int(pRaw%8) + 1
		want, err := MergeK([]*KPA{a, b}, e.al)
		if err != nil {
			return false
		}
		out, err := NewMergeTarget(a, b, e.al)
		if err != nil {
			return false
		}
		slices, err := MergeSlices(a, b, p)
		if err != nil {
			return false
		}
		covered := 0
		for _, s := range slices {
			if s.ALo > s.AHi || s.BLo > s.BHi || s.OutLo != covered {
				return false
			}
			MergeSegment(out, a, b, s)
			covered += s.Len()
		}
		if covered != a.Len()+b.Len() {
			return false
		}
		return reflect.DeepEqual(Keys(want), Keys(out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func Keys(k *KPA) []uint64 { return algo.Keys(k.Pairs()) }

// cutsOf returns the key-aligned cuts MergeCuts draws over one run, as
// positions in it.
func cutsOf(t *testing.T, k *KPA, p int) []int {
	t.Helper()
	cuts, err := MergeCuts([]*KPA{k}, p)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(cuts))
	for i, c := range cuts {
		pos[i] = c[0]
	}
	return pos
}

// TestKeyAlignedCuts: over one run, each cut lies at the end of the key
// group holding rank i·n/p, duplicates dropped.
func TestKeyAlignedCuts(t *testing.T) {
	e := newEnv()
	k := buildSorted(t, e, []uint64{1, 1, 1, 2, 2, 3, 4, 4})
	cuts := cutsOf(t, k, 4)
	if !reflect.DeepEqual(cuts, []int{0, 3, 5, 6, 8}) {
		t.Fatalf("cuts = %v, want [0 3 5 6 8]", cuts)
	}
	// No key group spans a cut.
	pairs := k.Pairs()
	for _, c := range cuts[1 : len(cuts)-1] {
		if pairs[c-1].Key == pairs[c].Key {
			t.Fatalf("cut %d splits key %d", c, pairs[c].Key)
		}
	}
}

func TestKeyAlignedCutsSingleKey(t *testing.T) {
	e := newEnv()
	k := buildSorted(t, e, []uint64{7, 7, 7, 7})
	if cuts := cutsOf(t, k, 4); !reflect.DeepEqual(cuts, []int{0, 4}) {
		t.Fatalf("cuts = %v (one group cannot be split)", cuts)
	}
}

func TestKeyAlignedCutsUnsorted(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{3, 0, 0}, [3]uint64{1, 0, 1})
	k, _ := Extract(b, 0, e.al)
	if _, err := MergeCuts([]*KPA{k}, 2); err == nil {
		t.Fatal("unsorted must fail")
	}
}

// TestReduceByKeyRangeMatchesFull: the keyed reduction of one pointer
// run, range by range over its key-aligned cuts, is the reduction of the
// whole run, each key reduced in exactly one range.
func TestReduceByKeyRangeMatchesFull(t *testing.T) {
	e := newEnv()
	keys := randKeys(500, 23, 9)
	k := buildSorted(t, e, keys)
	full := map[uint64]uint64{}
	if err := reduceRun(k, 1, func() Agg { return &sumAgg{} }, func(key, res uint64) { full[key] = res }); err != nil {
		t.Fatal(err)
	}
	cuts := cutsOf(t, k, 7)
	if !reflect.DeepEqual(cuts, []int{0, 74, 146, 242, 300, 358, 442, 500}) {
		t.Fatalf("cuts = %v", cuts)
	}
	ranged := map[uint64]uint64{}
	for i := 0; i+1 < len(cuts); i++ {
		err := MergeReduceRange([]*KPA{k}, cuts[i:i+1], cuts[i+1:i+2], 1, func() Agg { return &sumAgg{} },
			func(key, res uint64) {
				if _, dup := ranged[key]; dup {
					t.Fatalf("key %d reduced twice across ranges", key)
				}
				ranged[key] = res
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(full, ranged) {
		t.Fatal("ranged reduction disagrees with full reduction")
	}
}

// TestReduceByKeyRangeErrors: a range outside the run, a value column
// outside its bundles and an unsorted run each fail.
func TestReduceByKeyRangeErrors(t *testing.T) {
	e := newEnv()
	k := buildSorted(t, e, []uint64{1, 2, 3})
	one := []*KPA{k}
	sum := func() Agg { return &sumAgg{} }
	if err := MergeReduceRange(one, []int{-1}, []int{2}, 1, sum, nil); err == nil {
		t.Fatal("negative lo must fail")
	}
	if err := MergeReduceRange(one, []int{0}, []int{9}, 1, sum, nil); err == nil {
		t.Fatal("hi out of bounds must fail")
	}
	if err := MergeReduceRange(one, []int{0}, []int{3}, 99, sum, func(uint64, uint64) {}); err == nil {
		t.Fatal("bad column must fail")
	}
	b := e.bundleOf(t, [3]uint64{3, 0, 0}, [3]uint64{1, 0, 1})
	un, _ := Extract(b, 0, e.al)
	if err := MergeReduceRange([]*KPA{un}, []int{0}, []int{2}, 1, sum, nil); err == nil {
		t.Fatal("unsorted must fail")
	}
}

func TestUpdateKeysWriteBack(t *testing.T) {
	e := newEnv()
	b := e.bundleOf(t, [3]uint64{7, 70, 1}, [3]uint64{3, 30, 2})
	k, _ := Extract(b, 0, e.al)
	UpdateKeysWriteBack(k, func(key uint64) uint64 { return key + 100 })
	if !reflect.DeepEqual(k.Keys(), []uint64{107, 103}) {
		t.Fatalf("keys = %v", k.Keys())
	}
	// Write-back visible in the records (paper §4.3).
	if b.At(0, 0) != 107 || b.At(1, 0) != 103 {
		t.Fatal("records not updated")
	}
	if k.Resident() != 0 {
		t.Fatal("resident column must stay")
	}
}
