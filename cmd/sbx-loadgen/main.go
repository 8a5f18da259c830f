// Command sbx-loadgen drives an sbx-serve instance over TCP: it
// generates the deterministic wire workload, partitions it across
// connections (connection j sends records j, j+conns, j+2·conns, …),
// and sends it either closed-loop (as fast as the server grants
// flow-control credits) or open-loop at a target rate.
//
//	sbx-loadgen -addr 127.0.0.1:7077 -conns 4 -records 1000000
//	sbx-loadgen -addr 127.0.0.1:7077 -wire columnar -records 5000000
//	sbx-loadgen -addr 127.0.0.1:7077 -rate 200000 -duration 10
//
// With -wire row (the default) every frame carries protobuf-style
// records and a CRC-32C trailer; with -wire columnar the generator fills
// column buffers directly and streams checksummed column-major frames —
// no per-record encoding on either end.
// Every connection is a resumable session: a lost connection is
// redialed up to -retries times and unacked frames are replayed, the
// server deduplicating by sequence number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"streambox/internal/faultinject"
	"streambox/internal/netio"
	"streambox/internal/parsefmt"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "ingest server address")
	conns := flag.Int("conns", 4, "parallel connections")
	wire := flag.String("wire", "row", "wire mode: row (protobuf-style records) | columnar (column-major frames)")
	records := flag.Int64("records", 1_000_000, "total records to send (ignored with -duration)")
	duration := flag.Float64("duration", 0, "send for this many seconds instead of a fixed record count")
	rate := flag.Float64("rate", 0, "open-loop target rate, records/second total (0 = closed loop, as fast as credits allow)")
	frame := flag.Int("frame", 512, "records per frame")
	keys := flag.Uint64("keys", 1024, "ad_id cardinality")
	valueRange := flag.Uint64("value-range", 0, "user_id range (0 = constant 1)")
	windowRecords := flag.Uint64("window-records", 100_000, "records per 1s window of event time")
	random := flag.Bool("random", false, "random keys/values instead of round-robin")
	seed := flag.Uint64("seed", 0, "random-mode seed")
	retries := flag.Int("retries", 8, "redial attempts per outage, with backoff, resuming the session and replaying unacked frames (0 = never redial: a lost connection fails the run; negative = unlimited)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-frame write deadline (0 disables)")
	chaosDrop := flag.Float64("chaos-drop", 0, "fault injection: probability of a connection reset per socket op")
	chaosPartial := flag.Float64("chaos-partial", 0, "fault injection: probability of a partial write + reset per write")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "fault injection: probability of a silent one-bit corruption per write")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault injection decision seed")
	statsJSON := flag.String("stats-json", "", "write a JSON stats summary to this file")
	flag.Parse()

	var format parsefmt.Format
	switch *wire {
	case "columnar":
		format = parsefmt.Columnar
	case "row":
		format = parsefmt.PB
	default:
		fmt.Fprintf(os.Stderr, "unknown wire mode %q (row|columnar)\n", *wire)
		os.Exit(2)
	}
	if *conns < 1 {
		*conns = 1
	}
	gen := netio.RecordGen{
		Keys:          *keys,
		ValueRange:    *valueRange,
		WindowRecords: *windowRecords,
		Random:        *random,
		Seed:          *seed,
	}

	var inj *faultinject.Injector
	if *chaosDrop > 0 || *chaosPartial > 0 || *chaosCorrupt > 0 {
		inj = faultinject.New(faultinject.Config{
			ResetProb:        *chaosDrop,
			PartialWriteProb: *chaosPartial,
			CorruptProb:      *chaosCorrupt,
			Seed:             *chaosSeed,
		})
		if *retries == 0 {
			fmt.Fprintln(os.Stderr, "note: chaos flags with -retries 0 fail the run on the first injected fault")
		}
	}
	ccfg := netio.ClientConfig{
		Format:       format,
		FrameRecords: *frame,
		WriteTimeout: *writeTimeout,
		Faults:       inj,
	}
	if *retries != 0 {
		ccfg.Reconnect = &netio.ReconnectConfig{MaxRetries: *retries, Seed: *chaosSeed}
	}

	// Dial every connection before sending: each connection registers a
	// watermark cursor at the server, so windows only close once every
	// sender has passed them.
	clients := make([]*netio.Client, *conns)
	for j := range clients {
		c, err := netio.Dial(*addr, ccfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conn %d: %v\n", j, err)
			os.Exit(1)
		}
		clients[j] = c
	}

	var stop atomic.Bool
	if *duration > 0 {
		*records = 1 << 62
		time.AfterFunc(time.Duration(*duration*float64(time.Second)), func() { stop.Store(true) })
	}
	perConnRate := *rate / float64(*conns)

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, *conns)
	for j, c := range clients {
		wg.Add(1)
		go func(j int, c *netio.Client) {
			defer wg.Done()
			defer c.Close()
			columnar := format == parsefmt.Columnar
			var buf []parsefmt.Record
			var cols [][]uint64
			if columnar {
				cols = make([][]uint64, 7)
				for k := range cols {
					cols[k] = make([]uint64, 0, *frame)
				}
			} else {
				buf = make([]parsefmt.Record, 0, *frame)
			}
			pending := 0
			flush := func() error {
				var err error
				if columnar {
					err = c.SendColumns(cols)
					for k := range cols {
						cols[k] = cols[k][:0]
					}
				} else {
					err = c.Send(buf)
					buf = buf[:0]
				}
				pending = 0
				return err
			}
			connStart := time.Now()
			var sent int64
			for i := int64(j); i < *records; i += int64(*conns) {
				if stop.Load() {
					break
				}
				if columnar {
					rc := gen.ColsAt(uint64(i))
					for k := range cols {
						cols[k] = append(cols[k], rc[k])
					}
				} else {
					buf = append(buf, gen.At(uint64(i)))
				}
				pending++
				if pending == *frame {
					n := pending
					if err := flush(); err != nil {
						errs <- fmt.Errorf("conn %d: %w", j, err)
						return
					}
					sent += int64(n)
					if perConnRate > 0 {
						// Open loop: sleep off any schedule surplus.
						ahead := time.Duration(float64(sent)/perConnRate*float64(time.Second)) - time.Since(connStart)
						if ahead > time.Millisecond {
							time.Sleep(ahead)
						}
					}
				}
			}
			if pending > 0 && !stop.Load() {
				if err := flush(); err != nil {
					errs <- fmt.Errorf("conn %d: %w", j, err)
				}
			}
		}(j, c)
	}
	wg.Wait()
	close(errs)
	elapsed := time.Since(start)
	failed := false
	for err := range errs {
		failed = true
		fmt.Fprintln(os.Stderr, err)
	}

	var total, frames, reconnects, replayed int64
	for _, c := range clients {
		total += c.Sent()
		frames += c.Frames()
		reconnects += c.Reconnects()
		replayed += c.Replayed()
	}
	fmt.Printf("sent:       %d records in %d frames over %d conns (%s)\n", total, frames, *conns, format)
	fmt.Printf("elapsed:    %.3f s\n", elapsed.Seconds())
	fmt.Printf("throughput: %.1f k rec/s\n", float64(total)/elapsed.Seconds()/1e3)
	if reconnects > 0 || inj != nil {
		fc := inj.Counters()
		fmt.Printf("faults:     %d reconnects, %d replayed frames (injected: %d resets, %d partial writes, %d corruptions)\n",
			reconnects, replayed, fc.Resets, fc.PartialWrites, fc.Corruptions)
	}
	if *statsJSON != "" {
		fc := inj.Counters()
		stats := map[string]interface{}{
			"records_sent":      total,
			"frames_sent":       frames,
			"conns":             *conns,
			"format":            format.String(),
			"elapsed_s":         elapsed.Seconds(),
			"throughput_rec_s":  float64(total) / elapsed.Seconds(),
			"reconnects":        reconnects,
			"replayed_frames":   replayed,
			"inj_resets":        fc.Resets,
			"inj_partial_write": fc.PartialWrites,
			"inj_corruptions":   fc.Corruptions,
		}
		buf, _ := json.MarshalIndent(stats, "", "  ")
		if err := os.WriteFile(*statsJSON, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
