package main

import (
	"streambox"
	"streambox/internal/bundle"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

// Column layout of the two input shapes: net workloads carry the wire
// schema's seven columns, in-process workloads (key, value, ts).
const (
	netKeyCol, netValCol, netTsCol = 0, 3, streambox.NetworkTsCol
	kvKeyCol, kvValCol, kvTsCol    = 0, 1, 2
)

// kvSchema is the record layout of the in-process workloads.
func kvSchema() bundle.Schema {
	return bundle.Schema{NumCols: 3, TsCol: kvTsCol, Names: []string{"key", "value", "ts"}}
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// inputs is one window's worth of column slabs per producer (ingest
// connection or in-process generator). A run replays the slabs cycle
// after cycle with event_time += windowTicks, so generating a record
// costs one add and every full window has the same reference result.
type inputs struct {
	parts                 [][][]uint64 // [producer][column][row]
	keyCol, valCol, tsCol int
	// windowTicks is the event-time length of one cycle and of one
	// window; slide is the window slide in ticks (== windowTicks when
	// windows are fixed).
	windowTicks, slide uint64
}

// genInputs derives the workload's slabs from the seed: record g of the
// window goes to producer g%producers, so every producer's slab spans the
// whole window in event time and is time-ordered.
func genInputs(sp spec, seed uint64, producers int) *inputs {
	in := &inputs{keyCol: kvKeyCol, valCol: kvValCol, tsCol: kvTsCol}
	ncols := 3
	w := uint64(sp.WindowRecords)
	in.windowTicks = w
	if sp.Net {
		in.keyCol, in.valCol, in.tsCol = netKeyCol, netValCol, netTsCol
		ncols = 7
		in.windowTicks = netio.WindowTicks
	}
	in.slide = in.windowTicks
	if sp.Slide > 0 {
		in.slide = uint64(sp.Slide)
	}
	in.parts = make([][][]uint64, producers)
	for p := range in.parts {
		rows := (int(w) - p + producers - 1) / producers
		in.parts[p] = make([][]uint64, ncols)
		for c := range in.parts[p] {
			in.parts[p][c] = make([]uint64, rows)
		}
	}
	base := splitmix64(seed) // decorrelates nearby seeds
	for g := uint64(0); g < w; g++ {
		cols, r := in.parts[g%uint64(producers)], g/uint64(producers)
		key := splitmix64(base^(2*g)) % sp.Keys
		if sp.WideKeys {
			key = splitmix64(key ^ base)
		}
		cols[in.keyCol][r] = key
		cols[in.valCol][r] = splitmix64(base^(2*g+1)) % valueRange
		cols[in.tsCol][r] = g * in.windowTicks / w
		if sp.Net {
			// Filler columns shaped like netio.RecordGen's.
			cols[1][r] = key % 10
			cols[2][r] = g % 4
			cols[4][r] = g % 1000
			cols[5][r] = 0x0A000000 + g%65536
		}
	}
	return in
}

// toRecords transposes wire-schema columns into row records, the input
// of the PB row path.
func toRecords(cols [][]uint64) []parsefmt.Record {
	recs := make([]parsefmt.Record, len(cols[0]))
	for i := range recs {
		recs[i] = parsefmt.Record{AdID: cols[0][i], AdType: cols[1][i], EventType: cols[2][i],
			UserID: cols[3][i], PageID: cols[4][i], IP: cols[5][i], EventTime: cols[6][i]}
	}
	return recs
}

// windowRecords is the record count of one cycle over all producers.
func (in *inputs) windowRecords() int {
	n := 0
	for _, p := range in.parts {
		n += len(p[0])
	}
	return n
}

// numWindows is how many windows a stream of cycles replays produces:
// one per slide of event time, the trailing ones partial.
func (in *inputs) numWindows(cycles int) int {
	return int(uint64(cycles) * in.windowTicks / in.slide)
}

// digest is an order-independent summary of one window's result rows.
type digest struct {
	Rows int64
	Sum  uint64
}

func (d *digest) add(key, val uint64) {
	d.Rows++
	d.Sum += splitmix64(key ^ splitmix64(val))
}

// aggregate is the reference aggregator: a single-threaded map-based
// sum(val) per key over the slab rows whose in-cycle timestamp is at
// least fromTs.
func (in *inputs) aggregate(fromTs uint64) digest {
	sums := make(map[uint64]uint64)
	for _, cols := range in.parts {
		keys, vals, ts := cols[in.keyCol], cols[in.valCol], cols[in.tsCol]
		for i, k := range keys {
			if ts[i] >= fromTs {
				sums[k] += vals[i]
			}
		}
	}
	var d digest
	for k, v := range sums {
		d.add(k, v)
	}
	return d
}

// reference returns the expected digest of every window of a stream of
// cycles replays; entry k is the window starting at k×slide. A window
// that ends inside the stream holds each slab row exactly once whatever
// its phase; the trailing windows of a sliding workload hold only the
// rows at or after their phase in the final cycle.
func (in *inputs) reference(cycles int) []digest {
	out := make([]digest, in.numWindows(cycles))
	full := in.aggregate(0)
	end := uint64(cycles) * in.windowTicks
	for k := range out {
		start := uint64(k) * in.slide
		if start+in.windowTicks <= end {
			out[k] = full
		} else {
			out[k] = in.aggregate(start % in.windowTicks)
		}
	}
	return out
}

// bruteForce materializes the whole stream and aggregates each window
// by scanning all of it — the slow oracle the smoke test holds
// reference against.
func (in *inputs) bruteForce(cycles int) []digest {
	type rec struct{ key, val, ts uint64 }
	var stream []rec
	for c := 0; c < cycles; c++ {
		for _, cols := range in.parts {
			for i, k := range cols[in.keyCol] {
				stream = append(stream, rec{k, cols[in.valCol][i], cols[in.tsCol][i] + uint64(c)*in.windowTicks})
			}
		}
	}
	out := make([]digest, in.numWindows(cycles))
	for k := range out {
		start := uint64(k) * in.slide
		sums := make(map[uint64]uint64)
		for _, r := range stream {
			if r.ts >= start && r.ts < start+in.windowTicks {
				sums[r.key] += r.val
			}
		}
		for key, v := range sums {
			out[k].add(key, v)
		}
	}
	return out
}
