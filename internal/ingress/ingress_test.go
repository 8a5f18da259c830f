package ingress

import (
	"testing"

	"streambox/internal/bundle"
	"streambox/internal/memsim"
	"streambox/internal/ops"
)

func fillOne(t *testing.T, g interface {
	Schema() bundle.Schema
	Fill(*bundle.Builder, int, uint64, uint64)
}, n int, tsLo, tsHi uint64) *bundle.Bundle {
	t.Helper()
	bd, err := bundle.NewBuilder(1, g.Schema(), n, memsim.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	g.Fill(bd, n, tsLo, tsHi)
	return bd.Seal()
}

func TestKVGenDefaults(t *testing.T) {
	g := NewKV(KVConfig{Seed: 1})
	b := fillOne(t, g, 1000, 0, 1000)
	if b.Rows() != 1000 {
		t.Fatalf("rows = %d", b.Rows())
	}
	if b.Schema().NumCols != 3 {
		t.Fatalf("cols = %d", b.Schema().NumCols)
	}
	for i := 0; i < b.Rows(); i++ {
		if b.At(i, 0) >= 1<<10 {
			t.Fatal("key out of default cardinality")
		}
		if b.Ts(i) >= 1000 {
			t.Fatal("ts out of range")
		}
	}
	// Timestamps are non-decreasing within a bundle.
	for i := 1; i < b.Rows(); i++ {
		if b.Ts(i) < b.Ts(i-1) {
			t.Fatal("timestamps must be non-decreasing")
		}
	}
}

func TestKVGenSecondaryKeys(t *testing.T) {
	g := NewKV(KVConfig{Seed: 2, SecondaryKeys: 16})
	if g.Schema().NumCols != 4 {
		t.Fatalf("cols = %d, want 4", g.Schema().NumCols)
	}
	b := fillOne(t, g, 100, 0, 100)
	for i := 0; i < b.Rows(); i++ {
		if b.At(i, 3) >= 16 {
			t.Fatal("secondary key out of range")
		}
	}
}

func TestKVGenDeterministic(t *testing.T) {
	g1 := NewKV(KVConfig{Seed: 42})
	g2 := NewKV(KVConfig{Seed: 42})
	b1 := fillOne(t, g1, 100, 0, 100)
	b2 := fillOne(t, g2, 100, 0, 100)
	for i := 0; i < 100; i++ {
		if b1.At(i, 0) != b2.At(i, 0) || b1.At(i, 1) != b2.At(i, 1) {
			t.Fatal("same seed must reproduce the stream")
		}
	}
}

func TestRoundRobinKV(t *testing.T) {
	g := NewRoundRobinKV(4, 9)
	b := fillOne(t, g, 8, 0, 8)
	for i := 0; i < 8; i++ {
		if b.At(i, 0) != uint64(i%4) {
			t.Fatalf("key[%d] = %d", i, b.At(i, 0))
		}
		if b.At(i, 1) != 9 {
			t.Fatal("value wrong")
		}
	}
	// Continues across bundles.
	b2 := fillOne(t, g, 4, 8, 12)
	if b2.At(0, 0) != 0 {
		t.Fatalf("round robin must continue: got %d", b2.At(0, 0))
	}
}

func TestAlternatingKV(t *testing.T) {
	g := NewAlternatingKV(2, 10, 20)
	b := fillOne(t, g, 6, 0, 6)
	for i := 0; i < 6; i++ {
		want := uint64(10)
		if i%2 == 1 {
			want = 20
		}
		if b.At(i, 1) != want {
			t.Fatalf("value[%d] = %d, want %d", i, b.At(i, 1), want)
		}
	}
}

func TestYSBGen(t *testing.T) {
	g := NewYSB(YSBConfig{Ads: 50, Campaigns: 5, Seed: 3})
	if g.Schema().NumCols != 7 {
		t.Fatalf("YSB cols = %d, want 7 (paper §6)", g.Schema().NumCols)
	}
	if g.Schema().TsCol != YSBEventTime {
		t.Fatal("ts column mismatch")
	}
	b := fillOne(t, g, 1000, 0, 1000)
	views := 0
	for i := 0; i < b.Rows(); i++ {
		if b.At(i, YSBAdID) >= 50 {
			t.Fatal("ad id out of range")
		}
		if b.At(i, YSBEventType) == YSBEventView {
			views++
		}
	}
	// Roughly a third of events are views.
	if views < 200 || views > 500 {
		t.Fatalf("views = %d of 1000, expected near 333", views)
	}
}

func TestYSBCampaignTable(t *testing.T) {
	g := NewYSB(YSBConfig{Ads: 100, Campaigns: 10})
	tab := g.CampaignTable()
	if tab.Len() != 100 {
		t.Fatalf("table size = %d", tab.Len())
	}
	for ad := uint64(0); ad < 100; ad++ {
		c, ok := tab.Get(ad)
		if !ok {
			t.Fatalf("ad %d missing", ad)
		}
		if c >= 10 {
			t.Fatalf("campaign %d out of range", c)
		}
	}
	if g.cfg.Ads != 100 {
		t.Fatal("config accessor wrong")
	}
}

func TestPowerGridGen(t *testing.T) {
	g := NewPowerGrid(PowerGridConfig{Seed: 7})
	want := 40 * 3 * 4
	if len(g.plugs) != want {
		t.Fatalf("plugs = %d, want %d", len(g.plugs), want)
	}
	if len(g.hot) == 0 {
		t.Fatal("no hot plugs generated")
	}
	b := fillOne(t, g, len(g.plugs)*2, 0, 1000)
	seen := make(map[uint64]int)
	for i := 0; i < b.Rows(); i++ {
		key := b.At(i, 0)
		if ops.HouseOf(key) >= 40 {
			t.Fatal("house out of range")
		}
		seen[key]++
		if b.At(i, 1) == 0 {
			t.Fatal("zero load")
		}
	}
	// Cycling through plugs: every plug sampled exactly twice.
	if len(seen) != len(g.plugs) {
		t.Fatalf("distinct plugs = %d", len(seen))
	}
	for _, c := range seen {
		if c != 2 {
			t.Fatalf("plug sampled %d times, want 2", c)
		}
	}
}

func TestPowerGridHotPlugsRunHotter(t *testing.T) {
	g := NewPowerGrid(PowerGridConfig{Seed: 7, HotFrac: 0.2})
	b := fillOne(t, g, len(g.plugs), 0, 1000)
	var hotMin, coldMax uint64 = ^uint64(0), 0
	for i := 0; i < b.Rows(); i++ {
		load := b.At(i, 1)
		if g.hot[b.At(i, 0)] {
			if load < hotMin {
				hotMin = load
			}
		} else if load > coldMax {
			coldMax = load
		}
	}
	if hotMin <= coldMax {
		t.Fatalf("hot plugs (min %d) must exceed cold plugs (max %d)", hotMin, coldMax)
	}
}
