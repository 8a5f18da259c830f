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
	// Houses sets the hierarchy's top level (DEBS: 40 houses); each
	// holds householdsPerHouse households of plugsPerHousehold plugs.
	Houses uint64
	// HotFrac is the share of "hot" plugs, which run at several times
	// the base load so some houses reliably exceed the global average.
	HotFrac float64
	// Seed makes the stream reproducible.
	Seed int64
}

// The fixed shape of the hierarchy and of each plug's load: baseLoad
// plus up to loadJitter.
const (
	householdsPerHouse = 3
	plugsPerHousehold  = 4
	baseLoad           = 100
	loadJitter         = 20
)

// Defaults fills unset fields with DEBS-like values.
func (c PowerGridConfig) Defaults() PowerGridConfig {
	if c.Houses == 0 {
		c.Houses = 40
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
		for hh := uint64(0); hh < householdsPerHouse; hh++ {
			for p := uint64(0); p < plugsPerHousehold; p++ {
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
		load := baseLoad + g.rng.Uint64()%loadJitter
		if g.hot[key] {
			load *= 5
		}
		bd.Append(key, load, ts)
	}
}
