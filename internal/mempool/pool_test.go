package mempool

import (
	"errors"
	"testing"
	"testing/quick"

	"streambox/internal/memsim"
)

func testPool() *Pool { return New(memsim.KNLConfig(), 256<<20) }

func TestSizeClasses(t *testing.T) {
	cs := sizeClasses
	if cs[0] != 4<<10 {
		t.Errorf("smallest class = %d, want 4 KiB", cs[0])
	}
	if cs[len(cs)-1] != 256<<20 {
		t.Errorf("largest class = %d, want 256 MiB", cs[len(cs)-1])
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] != cs[i-1]*2 {
			t.Fatal("classes must double")
		}
	}
}

func TestRoundUp(t *testing.T) {
	cases := []struct{ in, want int64 }{
		{1, 4 << 10},
		{4 << 10, 4 << 10},
		{4<<10 + 1, 8 << 10},
		{100 << 20, 128 << 20},
		{256 << 20, 256 << 20},
		{300 << 20, 300 << 20}, // jumbo passes through
	}
	for _, c := range cases {
		if got := roundUp(c.in); got != c.want {
			t.Errorf("roundUp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocFree(t *testing.T) {
	p := testPool()
	a, err := p.Alloc(memsim.HBM, 10<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier() != memsim.HBM {
		t.Error("wrong tier")
	}
	if a.size != 16<<10 {
		t.Errorf("size = %d, want rounded 16 KiB", a.size)
	}
	if p.Used(memsim.HBM) != 16<<10 {
		t.Errorf("used = %d", p.Used(memsim.HBM))
	}
	a.Free()
	if p.Used(memsim.HBM) != 0 {
		t.Errorf("used after free = %d", p.Used(memsim.HBM))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := testPool()
	a, _ := p.Alloc(memsim.DRAM, 4096)
	a.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	a.Free()
}

func TestNilAllocationFree(t *testing.T) {
	var a *Allocation
	a.Free() // must not panic
}

func TestExhaustion(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 1 << 20
	p := New(cfg, 0)
	a, err := p.Alloc(memsim.HBM, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Alloc(memsim.HBM, 4096)
	var ex *ErrExhausted
	if !errors.As(err, &ex) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if ex.Tier != memsim.HBM || ex.Free != 0 {
		t.Errorf("exhaustion detail = %+v", ex)
	}
	if ex.Error() == "" {
		t.Error("empty error string")
	}
	a.Free()
	if _, err := p.Alloc(memsim.HBM, 4096); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if p.Snapshot().Failures != 1 {
		t.Errorf("failures = %d", p.Snapshot().Failures)
	}
}

func TestDRAMIndependentOfHBM(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 4096
	p := New(cfg, 0)
	if _, err := p.Alloc(memsim.HBM, 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(memsim.DRAM, 1<<20); err != nil {
		t.Fatalf("DRAM must be unaffected: %v", err)
	}
}

func TestUrgentReservedPool(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 1 << 20
	p := New(cfg, 512<<10) // half reserved
	// Fill the general HBM pool.
	if _, err := p.Alloc(memsim.HBM, 512<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(memsim.HBM, 4096); err == nil {
		t.Fatal("general pool should be exhausted")
	}
	// Urgent still succeeds from the reserved region, on HBM.
	a, err := p.AllocUrgent(4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier() != memsim.HBM {
		t.Error("urgent allocation must be on HBM while reserve lasts")
	}
	a.Free()
}

func TestUrgentFallsBackToDRAM(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 8 << 10
	p := New(cfg, 4<<10)
	if _, err := p.AllocUrgent(4 << 10); err != nil { // takes reserve
		t.Fatal(err)
	}
	if _, err := p.Alloc(memsim.HBM, 4<<10); err != nil { // takes general
		t.Fatal(err)
	}
	a, err := p.AllocUrgent(4<<10, memsim.HBM, memsim.DRAM) // both HBM regions full
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier() != memsim.DRAM {
		t.Errorf("urgent fallback tier = %v, want DRAM", a.Tier())
	}
}

func TestReservationCountsInCapacity(t *testing.T) {
	cfg := memsim.KNLConfig()
	p := New(cfg, 256<<20)
	if p.Capacity(memsim.HBM) != cfg.Tier(memsim.HBM).Capacity {
		t.Error("reserved region must count towards HBM capacity")
	}
	a, _ := p.AllocUrgent(4096)
	if p.Used(memsim.HBM) != 4096 {
		t.Errorf("urgent use must show in Used: %d", p.Used(memsim.HBM))
	}
	a.Free()
}

func TestUtilization(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 1 << 20
	p := New(cfg, 0)
	if u := p.Utilization(memsim.HBM); u != 0 {
		t.Errorf("empty utilization = %g", u)
	}
	p.Alloc(memsim.HBM, 512<<10)
	if u := p.Utilization(memsim.HBM); u != 0.5 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	// A zero-capacity tier reads as fully utilized.
	cfg.Tiers[memsim.HBM].Capacity = 0
	p0 := New(cfg, 0)
	if u := p0.Utilization(memsim.HBM); u != 1 {
		t.Errorf("zero-cap utilization = %g, want 1", u)
	}
}

// TestPressureOverTiersTheMachineHas: admission reads the worst
// utilization over the memory tiers whose capacity is above zero. On a
// machine without HBM (X56) placement still reads that tier as full,
// but pressure is DRAM's alone; HBM that is all reserve is a tier the
// machine has, and the reserve's use counts. Every view reads a tier as
// Snapshot does.
func TestPressureOverTiersTheMachineHas(t *testing.T) {
	views := func(p *Pool) {
		t.Helper()
		snap := p.Snapshot()
		for tier, ts := range snap.Tiers {
			tr := memsim.Tier(tier)
			if p.Used(tr) != ts.Used || p.Capacity(tr) != ts.Capacity || p.Utilization(tr) != ts.Utilization {
				t.Errorf("%v: views read %d/%d/%g, Snapshot %d/%d/%g", tr,
					p.Used(tr), p.Capacity(tr), p.Utilization(tr), ts.Used, ts.Capacity, ts.Utilization)
			}
		}
	}

	x56 := New(memsim.X56Config(), 256<<20)
	if _, err := x56.Alloc(memsim.DRAM, 1<<30); err != nil {
		t.Fatal(err)
	}
	if u := x56.Utilization(memsim.HBM); u != 1 {
		t.Errorf("no-HBM utilization = %g, want 1: placement must not pick the tier", u)
	}
	if pr, dram := x56.Pressure(), x56.Utilization(memsim.DRAM); pr != dram || dram == 0 {
		t.Errorf("no-HBM pressure = %g, want DRAM's %g", pr, dram)
	}
	views(x56)

	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 1 << 20
	allReserve := New(cfg, 1<<20)
	if _, err := allReserve.AllocUrgent(512 << 10); err != nil {
		t.Fatal(err)
	}
	if pr := allReserve.Pressure(); pr != 0.5 {
		t.Errorf("all-reserve HBM pressure = %g, want 0.5 from the reserve's use", pr)
	}
	views(allReserve)
}

func TestInvalidSizes(t *testing.T) {
	p := testPool()
	if _, err := p.Alloc(memsim.HBM, 0); err == nil {
		t.Error("zero alloc must fail")
	}
	if _, err := p.Alloc(memsim.HBM, -5); err == nil {
		t.Error("negative alloc must fail")
	}
	if _, err := p.AllocUrgent(0); err == nil {
		t.Error("zero urgent alloc must fail")
	}
}

func TestNegativeReservationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(memsim.KNLConfig(), -1)
}

func TestReservationClampedToCapacity(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 1 << 20
	p := New(cfg, 1<<30) // bigger than HBM: clamps
	if p.Capacity(memsim.HBM) != 1<<20 {
		t.Errorf("capacity = %d", p.Capacity(memsim.HBM))
	}
	// All of HBM is reserve; general allocs fail, urgent succeeds.
	if _, err := p.Alloc(memsim.HBM, 4096); err == nil {
		t.Error("general HBM alloc should fail when fully reserved")
	}
	if a, err := p.AllocUrgent(4096); err != nil || a.Tier() != memsim.HBM {
		t.Errorf("urgent alloc: %v", err)
	}
}

func TestStatsAndPeak(t *testing.T) {
	p := testPool()
	a1, _ := p.Alloc(memsim.DRAM, 1<<20)
	a2, _ := p.Alloc(memsim.DRAM, 1<<20)
	a1.Free()
	a2.Free()
	st := p.Snapshot()
	if st.Allocs != 2 || st.Frees != 2 {
		t.Errorf("allocs=%d frees=%d", st.Allocs, st.Frees)
	}
	if st.Tiers[memsim.DRAM].Peak != 2<<20 {
		t.Errorf("peak = %d, want 2 MiB", st.Tiers[memsim.DRAM].Peak)
	}
}

// Property: any interleaving of allocs and frees conserves accounting —
// used equals the sum of live allocation sizes and never exceeds capacity.
func TestAccountingConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := memsim.KNLConfig()
		cfg.Tiers[memsim.HBM].Capacity = 64 << 20
		cfg.Tiers[memsim.DRAM].Capacity = 64 << 20
		p := New(cfg, 4<<20)
		var live []*Allocation
		var liveSum [2]int64
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // alloc
				tier := memsim.Tier(op % 2)
				size := int64(op%64+1) << 10
				a, err := p.Alloc(tier, size)
				if err == nil {
					live = append(live, a)
					liveSum[a.Tier()] += a.size
				}
			case 2: // free
				if len(live) > 0 {
					a := live[len(live)-1]
					live = live[:len(live)-1]
					liveSum[a.Tier()] -= a.size
					a.Free()
				}
			}
			for _, tr := range []memsim.Tier{memsim.HBM, memsim.DRAM} {
				if p.Used(tr) != liveSum[tr] {
					return false
				}
				if p.Used(tr) > p.Capacity(tr) {
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

// TestAllocFirstCountsRequestsNotRungs: a request served by a later rung
// is no failure, and one no rung serves is exactly one — named after the
// rung it preferred — whether it walked AllocFirst's order or
// AllocUrgent's, which the reserve heads.
func TestAllocFirstCountsRequestsNotRungs(t *testing.T) {
	cfg := memsim.KNLConfig()
	cfg.Tiers[memsim.HBM].Capacity = 8 << 10
	cfg.Tiers[memsim.DRAM].Capacity = 4 << 10
	p := New(cfg, 4<<10)
	if _, err := p.Alloc(memsim.HBM, 4<<10); err != nil { // general HBM full
		t.Fatal(err)
	}
	a, err := p.AllocFirst(4<<10, memsim.HBM, memsim.DRAM, memsim.Spill)
	if err != nil || a.Tier() != memsim.DRAM {
		t.Fatalf("second rung: %v, %v", a, err)
	}
	if _, err := p.AllocUrgent(4 << 10); err != nil { // the reserve
		t.Fatal(err)
	}
	if got := p.Snapshot().Failures; got != 0 {
		t.Fatalf("%d failures counted while every request was served", got)
	}
	// Everything is full and no arena is attached.
	_, err = p.AllocFirst(4<<10, memsim.DRAM, memsim.HBM, memsim.Spill)
	var ex *ErrExhausted
	if !errors.As(err, &ex) || ex.Tier != memsim.DRAM || ex.Want != 4<<10 || ex.Free != 0 {
		t.Fatalf("exhausted ladder: %v", err)
	}
	if _, err = p.AllocUrgent(4<<10, memsim.HBM, memsim.DRAM, memsim.Spill); !errors.As(err, &ex) || ex.Tier != memsim.HBM {
		t.Fatalf("exhausted urgent: %v", err)
	}
	// With no order the reserve is the only rung, and it names HBM.
	if _, err = p.AllocUrgent(4 << 10); !errors.As(err, &ex) || ex.Tier != memsim.HBM {
		t.Fatalf("exhausted reserve: %v", err)
	}
	if got := p.Snapshot().Failures; got != 3 {
		t.Fatalf("%d failures for three unserved requests", got)
	}
}
