package ingress

import (
	"math/rand"

	"streambox/internal/bundle"
	"streambox/internal/ops"
	"streambox/internal/wm"
)

// PowerGridConfig shapes the synthetic smart-plug stream that replaces
// the DEBS 2014 grand-challenge trace (which is not redistributable).
// The hierarchy and value model follow the challenge: houses contain
// households contain plugs; each plug reports instantaneous load.
type PowerGridConfig struct {
	// Houses, HouseholdsPerHouse and PlugsPerHousehold set the
	// hierarchy (DEBS: 40 houses).
	Houses             uint64
	HouseholdsPerHouse uint64
	PlugsPerHousehold  uint64
	// BaseLoad and LoadJitter shape per-plug load values; a subset of
	// "hot" plugs runs at several times the base load so some houses
	// reliably exceed the global average.
	BaseLoad   uint64
	LoadJitter uint64
	HotFrac    float64
	// Seed makes the stream reproducible.
	Seed int64
}

// Defaults fills unset fields with DEBS-like values.
func (c PowerGridConfig) Defaults() PowerGridConfig {
	if c.Houses == 0 {
		c.Houses = 40
	}
	if c.HouseholdsPerHouse == 0 {
		c.HouseholdsPerHouse = 3
	}
	if c.PlugsPerHousehold == 0 {
		c.PlugsPerHousehold = 4
	}
	if c.BaseLoad == 0 {
		c.BaseLoad = 100
	}
	if c.LoadJitter == 0 {
		c.LoadJitter = 20
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.1
	}
	return c
}

// PowerGridGen emits (plugKey, load, ts) samples cycling through every
// plug, mimicking the challenge's periodic per-plug reports.
type PowerGridGen struct {
	cfg    PowerGridConfig
	schema bundle.Schema
	rng    *rand.Rand
	plugs  []uint64 // pre-built plug keys
	hot    map[uint64]bool
	next   int
}

// NewPowerGrid creates the generator.
func NewPowerGrid(cfg PowerGridConfig) *PowerGridGen {
	cfg = cfg.Defaults()
	g := &PowerGridGen{
		cfg:    cfg,
		schema: bundle.Schema{NumCols: 3, TsCol: 2, Names: []string{"plug", "load", "ts"}},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		hot:    make(map[uint64]bool),
	}
	for h := uint64(0); h < cfg.Houses; h++ {
		for hh := uint64(0); hh < cfg.HouseholdsPerHouse; hh++ {
			for p := uint64(0); p < cfg.PlugsPerHousehold; p++ {
				key := ops.PlugKey(h, hh, p)
				g.plugs = append(g.plugs, key)
				if g.rng.Float64() < cfg.HotFrac {
					g.hot[key] = true
				}
			}
		}
	}
	return g
}

// Schema implements engine.Generator.
func (g *PowerGridGen) Schema() bundle.Schema { return g.schema }

// Fill implements engine.Generator.
func (g *PowerGridGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	span := tsHi - tsLo
	for i := 0; i < n; i++ {
		ts := tsLo + wm.Time(i)*span/wm.Time(n)
		key := g.plugs[g.next%len(g.plugs)]
		g.next++
		load := g.cfg.BaseLoad + g.rng.Uint64()%g.cfg.LoadJitter
		if g.hot[key] {
			load *= 5
		}
		bd.Append(key, load, ts)
	}
}
