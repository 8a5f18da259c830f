package ingress

import (
	"math/rand"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/wm"
)

// YSB column indices (seven numeric columns, paper §6: "YSB processes
// input records with seven columns, for which we use numerical values
// rather than JSON strings").
const (
	YSBAdID = iota
	YSBAdType
	YSBEventType
	YSBUserID
	YSBPageID
	YSBIP
	YSBEventTime
)

// YSBEventView is the event type the Filter stage keeps.
const YSBEventView = 0

// ysbEventTypes is the number of event types, views among them.
const ysbEventTypes = 3

// YSBConfig configures the Yahoo streaming benchmark generator.
type YSBConfig struct {
	// Ads is the number of distinct ad IDs.
	Ads uint64
	// Campaigns is the number of distinct campaigns; each ad maps to
	// Ads/Campaigns ads.
	Campaigns uint64
	// Seed makes the stream reproducible.
	Seed int64
}

// Defaults fills unset fields with the benchmark's conventional sizes.
func (c YSBConfig) Defaults() YSBConfig {
	if c.Ads == 0 {
		c.Ads = 1000
	}
	if c.Campaigns == 0 {
		c.Campaigns = 100
	}
	return c
}

// YSBGen generates the YSB ad-event stream.
type YSBGen struct {
	cfg    YSBConfig
	schema bundle.Schema
	rng    *rand.Rand
}

// NewYSB creates the generator.
func NewYSB(cfg YSBConfig) *YSBGen {
	cfg = cfg.Defaults()
	return &YSBGen{
		cfg: cfg,
		schema: bundle.Schema{
			NumCols: 7,
			TsCol:   YSBEventTime,
			Names: []string{YSBAdID: "ad_id", YSBAdType: "ad_type", YSBEventType: "event_type",
				YSBUserID: "user_id", YSBPageID: "page_id", YSBIP: "ip", YSBEventTime: "event_time"},
		},
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Schema implements engine.Generator.
func (g *YSBGen) Schema() bundle.Schema { return g.schema }

// Fill implements engine.Generator.
func (g *YSBGen) Fill(bd *bundle.Builder, n int, tsLo, tsHi wm.Time) {
	span := tsHi - tsLo
	for i := 0; i < n; i++ {
		ts := tsLo + wm.Time(i)*span/wm.Time(n)
		bd.Append(
			g.rng.Uint64()%g.cfg.Ads,
			g.rng.Uint64()%5,
			g.rng.Uint64()%ysbEventTypes,
			g.rng.Uint64()%100000,
			g.rng.Uint64()%1000,
			g.rng.Uint64(),
			ts,
		)
	}
}

// CampaignTable builds the external ad→campaign side table the YSB
// pipeline joins against (held in HBM by the engine; paper §4.3:
// "a small table in HBM").
func (g *YSBGen) CampaignTable() *algo.HashTable {
	t := algo.NewHashTable(int(g.cfg.Ads))
	for ad := uint64(0); ad < g.cfg.Ads; ad++ {
		t.Put(ad, ad%g.cfg.Campaigns)
	}
	return t
}
