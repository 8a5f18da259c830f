package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"streambox/internal/algo"
	"streambox/internal/bundle"
	"streambox/internal/kpa"
	"streambox/internal/mempool"
	"streambox/internal/memsim"
	"streambox/internal/netio"
	"streambox/internal/ops"
	"streambox/internal/parsefmt"
	"streambox/internal/spill"
	"streambox/internal/wal"
)

// The replay pass walks the workload's first replayWindows windows of
// frames single-threaded through each layer's exported functions in
// pipeline order — encode, validate, log, allocate, copy into a bundle,
// extract, radix-sort, merge-reduce, publish — one span per call. It
// gives every layer a cost per record measured alone, on the workload's
// real keys, which the live run's end-to-end CPU is then held against.

// walSyncEvery is how many replayed frames share one durable append,
// standing in for the group commit of the live path.
const walSyncEvery = 16

// acc accumulates one component's time and work count.
type acc struct{ ns, n int64 }

func (a acc) per() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// replayResult carries the replay metrics, plus the byte totals the
// smoke test requires to repeat exactly for the same seed.
type replayResult struct {
	metrics   map[string]float64
	records   int64
	wireBytes int64
	copyBytes int64
	walBytes  int64
	// rowsPerRec and bundlesPerRec convert per-row and per-operation
	// costs into per-record ones for the model.
	rowsPerRec, bundlesPerRec float64
}

type replayer struct {
	sp      spec
	in      *inputs
	rec     *recorder
	pool    *mempool.Pool
	reg     *bundle.Registry
	scratch *algo.Scratch
	al      kpa.Allocator
	schema  bundle.Schema
	log     *wal.Log
	seq     uint64

	encode, validate, walAppend, alloc, copyB, extract, radix, mergeReduce, publish, evict, load acc
	syncMs                                                                                       []float64
	wireBytes, copyBytes                                                                         int64
	bundles, rows, runs                                                                          int64
}

// timed runs fn inside a span, adding its duration and count to a.
func (r *replayer) timed(name, layer string, parent int, ref uint64, count int64, a *acc, fn func()) {
	sp := r.rec.begin(name, layer, parent, ref)
	t0 := time.Now()
	fn()
	a.ns += time.Since(t0).Nanoseconds()
	a.n += count
	r.rec.end(sp, count)
}

func replay(sp spec, o options, rec *recorder, parent int) (*replayResult, error) {
	producers := 1
	if sp.Net {
		producers = netConns
	}
	r := &replayer{sp: sp, in: genInputs(sp, o.seed, producers), rec: rec, reg: bundle.NewRegistry()}
	r.pool = mempool.New(memsim.KNLConfig(), 256<<20)
	r.scratch = r.pool.ScratchFor(memsim.HBM)
	r.al = kpa.FixedAllocator{Pool: r.pool, T: memsim.HBM}
	r.schema = kvSchema()
	if sp.Net {
		r.schema = netio.WireSchema()
	}
	dir, err := os.MkdirTemp(o.tmpDir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if sp.Spill {
		f, err := spill.Create(dir, spillCapacity)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r.pool.AttachSpill(f)
	}
	if sp.WAL {
		if r.log, err = wal.Open(wal.Config{Dir: dir}); err != nil {
			return nil, err
		}
	}

	store := netio.NewResultStore(replayWindows)
	for w := 0; w < replayWindows; w++ {
		if err := r.window(w, parent, store); err != nil {
			return nil, err
		}
	}
	res := &replayResult{metrics: make(map[string]float64)}
	res.records = int64(replayWindows) * int64(r.in.windowRecords())
	if r.log != nil {
		if err := r.log.Close(); err != nil {
			return nil, err
		}
		res.walBytes = r.log.Stats().AppendedBytes
	}
	res.wireBytes, res.copyBytes = r.wireBytes, r.copyBytes
	res.rowsPerRec = float64(r.rows) / float64(res.records)
	res.bundlesPerRec = float64(r.bundles) / float64(res.records)

	m := res.metrics
	m["parsefmt.encode_ns_per_rec"] = r.encode.per()
	m["parsefmt.validate_ns_per_rec"] = r.validate.per()
	m["parsefmt.wire_bytes_per_rec"] = float64(r.wireBytes) / float64(res.records)
	m["wal.append_ns_per_rec"] = r.walAppend.per()
	m["wal.sync_ms_p50"] = median(r.syncMs)
	m["bundle.copy_ns_per_rec"] = r.copyB.per()
	m["bundle.copy_bytes_per_rec"] = float64(r.copyBytes) / float64(res.records)
	m["mempool.alloc_ns_per_op"] = r.alloc.per()
	m["kpa.extract_ns_per_rec"] = r.extract.per()
	m["algo.radix_ns_per_pair"] = r.radix.per()
	m["kpa.merge_reduce_ns_per_pair"] = r.mergeReduce.per()
	m["kpa.runs_per_window"] = float64(r.runs) / replayWindows
	m["netio.publish_ns_per_row"] = r.publish.per()
	m["spill.evict_ns_per_pair"] = r.evict.per()
	m["spill.load_ns_per_pair"] = r.load.per()
	if sp.Net {
		rate, err := wireAlone(sp, r.in, r.pool, rec, parent)
		if err != nil {
			return nil, err
		}
		m["netio.wire_alone_rec_s"] = rate
	}
	return res, nil
}

// window replays cycle w: every producer's frames up to sorted runs,
// then the window's close and publication.
func (r *replayer) window(w, parent int, store *netio.ResultStore) error {
	start := uint64(w) * r.in.windowTicks
	ws := r.rec.begin("window", "bench", parent, start)
	defer func() { r.rec.end(ws, int64(r.in.windowRecords())) }()
	step := bundleRecords
	if r.sp.Net {
		step = r.sp.FrameRecords
	}
	var runs []*kpa.KPA
	tsBuf := make([]uint64, step)
	for p, slab := range r.in.parts {
		for lo := 0; lo < len(slab[0]); lo += step {
			hi := min(lo+step, len(slab[0]))
			chunk := make([][]uint64, len(slab))
			for c := range slab {
				chunk[c] = slab[c][lo:hi]
			}
			ts := tsBuf[:hi-lo]
			for i, t := range slab[r.in.tsCol][lo:hi] {
				ts[i] = t + start
			}
			chunk[r.in.tsCol] = ts
			k, err := r.frame(chunk, ws, uint64(p)<<32|r.seq, start)
			if err != nil {
				return err
			}
			r.seq++
			runs = append(runs, k)
		}
	}
	r.runs += int64(len(runs))
	pairs := int64(r.in.windowRecords())

	if r.sp.Spill {
		for _, k := range runs {
			var err error
			r.timed("evict", "spill", ws, start, int64(k.Len()), &r.evict, func() { _, err = k.Evict(r.pool, r.in.valCol) })
			if err != nil {
				return fmt.Errorf("replay evict: %w", err)
			}
		}
		for _, k := range runs {
			var err error
			r.timed("load", "spill", ws, start, int64(k.Len()), &r.load, func() { _, err = k.EnsureResident(r.al) })
			if err != nil {
				return fmt.Errorf("replay load: %w", err)
			}
		}
	}

	var rows []netio.ResultRow
	var err error
	r.timed("merge_reduce", "kpa", ws, start, pairs, &r.mergeReduce, func() { rows, err = r.close(runs) })
	if err != nil {
		return fmt.Errorf("replay close: %w", err)
	}
	r.rows += int64(len(rows))
	r.timed("publish", "netio", ws, start, int64(len(rows)), &r.publish, func() {
		store.Publish("bench", start, start+r.in.windowTicks, rows)
	})
	return nil
}

// frame takes one frame (or in-process bundle) from wire bytes to a
// sorted run.
func (r *replayer) frame(chunk [][]uint64, parent int, ref, winStart uint64) (*kpa.KPA, error) {
	n := len(chunk[0])
	fs := r.rec.begin("frame", "bench", parent, ref)
	defer func() { r.rec.end(fs, int64(n)) }()
	cols := chunk
	var err error
	if r.sp.Net {
		var payload []byte
		if r.sp.Row {
			recs := toRecords(chunk)
			r.timed("encode", "parsefmt", fs, ref, int64(n), &r.encode, func() { payload = parsefmt.Encode(parsefmt.PB, recs) })
			r.timed("validate", "parsefmt", fs, ref, int64(n), &r.validate, func() {
				var dec []parsefmt.Record
				if dec, err = parsefmt.Decode(parsefmt.PB, payload); err != nil {
					return
				}
				cols = make([][]uint64, len(chunk))
				for c := range cols {
					cols[c] = r.pool.TakeCol(memsim.DRAM, len(dec))[:len(dec)]
				}
				for i, d := range dec {
					for c, v := range d.Cols() {
						cols[c][i] = v
					}
				}
			})
		} else {
			r.timed("encode", "parsefmt", fs, ref, int64(n), &r.encode, func() { payload = parsefmt.EncodeColumnarFrame(chunk) })
			r.timed("validate", "parsefmt", fs, ref, int64(n), &r.validate, func() {
				cols, err = parsefmt.DecodeColumnarFrame(payload, func(rows int) []uint64 { return r.pool.TakeCol(memsim.DRAM, rows) })
			})
		}
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		r.wireBytes += int64(len(payload)) + 12 // length prefix + session sequence number
		defer func() {
			for _, c := range cols {
				r.pool.PutCol(memsim.DRAM, c)
			}
		}()
	}
	if r.log != nil {
		ranges := make([]parsefmt.ColRange, len(cols))
		parsefmt.ChecksumColumnsRanges(cols, ranges)
		maxTs := ranges[r.in.tsCol].Max
		if (r.seq+1)%walSyncEvery == 0 {
			sp := r.rec.begin("sync", "wal", fs, ref)
			t0 := time.Now()
			err = r.log.AppendFrame(1, 1, r.seq+1, maxTs, cols, ranges, true)
			r.syncMs = append(r.syncMs, float64(time.Since(t0))/1e6)
			r.rec.end(sp, int64(n))
		} else {
			r.timed("append", "wal", fs, ref, int64(n), &r.walAppend, func() {
				err = r.log.AppendFrame(1, 1, r.seq+1, maxTs, cols, ranges, false)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("replay wal: %w", err)
		}
	}

	var al *mempool.Allocation
	r.timed("alloc", "mempool", fs, ref, 1, &r.alloc, func() { al, err = r.pool.Alloc(memsim.DRAM, int64(n)*r.schema.RecordBytes()) })
	if err != nil {
		return nil, fmt.Errorf("replay alloc: %w", err)
	}
	var b *bundle.Bundle
	r.timed("copy", "bundle", fs, ref, int64(n), &r.copyB, func() {
		var bd *bundle.Builder
		if bd, err = r.reg.NewBuilder(r.schema, n, memsim.DRAM); err != nil {
			return
		}
		if err = bd.AttachAlloc(al); err != nil {
			return
		}
		if err = bd.AppendColumnar(cols...); err != nil {
			return
		}
		b = bd.Seal()
	})
	if err != nil {
		al.Free()
		return nil, fmt.Errorf("replay bundle: %w", err)
	}
	r.bundles++
	r.copyBytes += 2 * int64(n) * r.schema.RecordBytes() // every column read once, written once

	var k *kpa.KPA
	r.timed("extract", "kpa", fs, ref, int64(n), &r.extract, func() { k, err = kpa.Extract(b, r.in.keyCol, r.al) })
	b.Release() // the run holds its own reference now
	if err != nil {
		return nil, fmt.Errorf("replay extract: %w", err)
	}
	r.timed("radix", "algo", fs, ref, int64(n), &r.radix, func() { kpa.SortRadix(k, 1, r.scratch) })
	k.SetMeta(algo.RunMeta{Origin: b.ID(), Lo: winStart})
	return k, nil
}

// close merges and reduces a window's runs the way the runtime does:
// run sets wider than the loser tree first compact in k-way batches,
// then one fused merge-reduce pass emits the rows.
func (r *replayer) close(runs []*kpa.KPA) ([]netio.ResultRow, error) {
	for len(runs) > mergeFanIn {
		var next []*kpa.KPA
		for lo := 0; lo < len(runs); lo += mergeFanIn {
			batch := runs[lo:min(lo+mergeFanIn, len(runs))]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			merged, err := kpa.MergeK(batch, r.al)
			if err != nil {
				return nil, err
			}
			merged.SetMeta(batch[0].Meta())
			for _, k := range batch {
				k.Destroy()
			}
			next = append(next, merged)
		}
		runs = next
	}
	cuts, err := kpa.MergeCuts(runs, 1)
	if err != nil {
		return nil, err
	}
	var rows []netio.ResultRow
	err = kpa.MergeReduceRange(runs, cuts[0], cuts[len(cuts)-1], r.in.valCol, ops.Sum(), func(key, res uint64) {
		rows = append(rows, netio.ResultRow{Key: key, Val: res})
	})
	for _, k := range runs {
		k.Destroy()
	}
	return rows, err
}

// wireAlone streams the replay windows client → server → feed with the
// engine replaced by a drain that recycles every batch: the wire's own
// throughput ceiling, records per second.
func wireAlone(sp spec, in *inputs, pool *mempool.Pool, rec *recorder, parent int) (float64, error) {
	ws := rec.begin("wire_alone", "netio", parent, 0)
	defer rec.end(ws, int64(replayWindows)*int64(in.windowRecords()))
	feed := netio.NewFeed(netio.WireSchema(), 0)
	feed.UsePool(pool)
	srv, err := netio.Listen("127.0.0.1:0", netio.ServerConfig{Feed: feed})
	if err != nil {
		return 0, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			cols, ok, _ := feed.Recv(0)
			if !ok {
				return
			}
			feed.Recycle(cols)
		}
	}()
	format := parsefmt.Columnar
	if sp.Row {
		format = parsefmt.PB
	}
	errs := make([]error, len(in.parts))
	sentBy := make([]time.Duration, len(in.parts))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, slab := range in.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := netio.Dial(srv.Addr().String(), netio.ClientConfig{Format: format, NoFallback: true,
				FrameRecords: sp.FrameRecords, WriteTimeout: 2 * time.Second, Reconnect: &netio.ReconnectConfig{}})
			if err != nil {
				errs[c] = err
				return
			}
			var recs []parsefmt.Record
			if sp.Row {
				recs = toRecords(slab)
			}
			for w := 0; w < replayWindows && errs[c] == nil; w++ {
				if sp.Row {
					errs[c] = cl.Send(recs)
				} else {
					errs[c] = cl.SendColumns(slab)
				}
			}
			// The clock stops when the last send returns: at most one
			// credit window of frames is still in flight, and a Close
			// that loses its final ack (the known v3 race, likeliest
			// here where the server acks at once) must not count.
			sentBy[c] = time.Since(t0)
			cl.Close()
		}()
	}
	wg.Wait()
	srv.Close()
	<-drained
	var elapsed time.Duration
	for c, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("wire alone: %w", err)
		}
		elapsed = max(elapsed, sentBy[c])
	}
	return float64(replayWindows) * float64(in.windowRecords()) / elapsed.Seconds(), nil
}

// model is the replay cost model: CPU nanoseconds per record by
// component, and their total.
type model struct {
	Components map[string]float64 `json:"components"`
	Total      float64            `json:"total"`
}

// newModel totals the components in sorted name order, so the total is
// reproducible bit for bit from the components alone.
func newModel(components map[string]float64) model {
	names := make([]string, 0, len(components))
	for name := range components {
		names = append(names, name)
	}
	sort.Strings(names)
	m := model{Components: components}
	for _, name := range names {
		m.Total += components[name]
	}
	return m
}

// costModel weighs each replay component by how often a record of the
// live run incurs it: once per record for the per-frame stages, once per
// covering window for the close, once per result row for publication,
// and by the live run's spilled share for evict and load.
func costModel(sp spec, rp *replayResult, live map[string]float64, liveRecords int64) model {
	m := rp.metrics
	overlap := 1.0
	if sp.Slide > 0 {
		overlap = float64(sp.WindowRecords) / float64(sp.Slide)
	}
	c := map[string]float64{
		"mempool.alloc":    m["mempool.alloc_ns_per_op"] * rp.bundlesPerRec,
		"bundle.copy":      m["bundle.copy_ns_per_rec"],
		"kpa.extract":      m["kpa.extract_ns_per_rec"],
		"algo.radix":       m["algo.radix_ns_per_pair"],
		"kpa.merge_reduce": m["kpa.merge_reduce_ns_per_pair"] * overlap,
	}
	if sp.Net {
		c["parsefmt.encode"] = m["parsefmt.encode_ns_per_rec"]
		c["parsefmt.validate"] = m["parsefmt.validate_ns_per_rec"]
		c["netio.publish"] = m["netio.publish_ns_per_row"] * rp.rowsPerRec
	} else {
		c["runtime.generator"] = live["runtime.generator_ns_per_rec"]
	}
	if sp.WAL {
		c["wal.append"] = m["wal.append_ns_per_rec"]
	}
	if sp.Spill {
		perRun := float64(bundleRecords) / float64(liveRecords)
		c["spill.evict"] = m["spill.evict_ns_per_pair"] * live["spill.spilled_runs"] * perRun
		c["spill.load"] = m["spill.load_ns_per_pair"] * live["spill.loads"] * perRun
	}
	return newModel(c)
}
