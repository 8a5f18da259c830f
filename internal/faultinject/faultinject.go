// Package faultinject is the engine's failpoint harness: a
// deterministic, probabilistic fault injector threaded through the
// netio layer so chaos tests (and the CI chaos leg) can subject the
// wire protocol to the failures a real network delivers — connection
// resets, partial writes and in-flight bit corruption —
// while asserting the ingest path still produces bit-identical window
// results. Every decision comes from a seeded splitmix64 sequence, so a
// failing chaos run replays with the same seed; a nil *Injector (or a
// zero Config) is a no-op and costs one nil check on the hot path.
package faultinject

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
)

// ErrInjectedReset marks an injected connection reset, so tests can
// tell deliberate faults from real network failures.
var ErrInjectedReset = errors.New("faultinject: injected connection reset")

// Config sets the per-operation fault probabilities, each in [0,1] and
// evaluated independently per Read/Write call on a wrapped connection.
// The zero value injects nothing.
type Config struct {
	// ResetProb severs the connection (close + error) instead of
	// performing the operation.
	ResetProb float64
	// PartialWriteProb writes only a prefix of the buffer, then severs
	// the connection — the classic mid-frame cut.
	PartialWriteProb float64
	// CorruptProb flips one bit of the buffer before writing it, and
	// reports success: silent corruption for checksums to catch.
	CorruptProb float64
	// CrashAfterBytes hard-kills the whole process (SIGKILL, no
	// deferred cleanup, no flush) once the injector has read this many
	// bytes across all wrapped connections — the process-crash mode the
	// WAL recovery tests drive. Seed jitters the exact crossing point
	// by up to 4 KiB so repeated runs die at slightly different frame
	// boundaries.
	CrashAfterBytes int64
	// Seed drives the deterministic decision sequence.
	Seed uint64
}

// Counters tallies the faults an injector has fired.
type Counters struct {
	Resets, PartialWrites, Corruptions int64
}

// Injector makes fault decisions from a seeded sequence and wraps
// connections with them. All methods are nil-safe.
type Injector struct {
	cfg  Config
	ctr  atomic.Uint64
	on   bool
	rst  atomic.Int64
	part atomic.Int64
	corr atomic.Int64

	// crashAt is the jittered read-byte threshold for CrashAfterBytes
	// (0 = crash mode off); readBytes counts across all wrapped conns.
	crashAt   int64
	readBytes atomic.Int64
}

// New builds an injector for cfg. A zero cfg yields a disabled
// injector; nil *Injector works everywhere an injector is accepted.
func New(cfg Config) *Injector {
	on := cfg.ResetProb > 0 || cfg.PartialWriteProb > 0 || cfg.CorruptProb > 0 || cfg.CrashAfterBytes > 0
	inj := &Injector{cfg: cfg, on: on}
	if cfg.CrashAfterBytes > 0 {
		inj.crashAt = cfg.CrashAfterBytes + int64(splitmix64(cfg.Seed^0xC4A5)%4096)
	}
	return inj
}

// Enabled reports whether the injector can fire at all.
func (i *Injector) Enabled() bool {
	return i != nil && i.on
}

// Counters returns the faults fired so far.
func (i *Injector) Counters() Counters {
	if i == nil {
		return Counters{}
	}
	return Counters{
		Resets:        i.rst.Load(),
		PartialWrites: i.part.Load(),
		Corruptions:   i.corr.Load(),
	}
}

// splitmix64 is the standard 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll draws the next decision word: uniform in [0,1), plus raw bits
// for secondary choices (cut offsets, bit positions).
func (i *Injector) roll() (float64, uint64) {
	bits := splitmix64(i.cfg.Seed ^ i.ctr.Add(1))
	return float64(bits>>11) / (1 << 53), bits
}

// WrapConn wraps c with fault injection; with a nil or disabled
// injector it returns c unchanged.
func (i *Injector) WrapConn(c net.Conn) net.Conn {
	if !i.Enabled() {
		return c
	}
	return &faultConn{Conn: c, inj: i}
}

// faultConn injects faults on a connection's Read/Write path. Faults
// fire per call: the caller's framing (bufio flushes, io.ReadFull) maps
// calls to frames closely enough for realistic mid-frame cuts.
type faultConn struct {
	net.Conn
	inj *Injector
}

func (f *faultConn) Read(p []byte) (int, error) {
	i := f.inj
	if !i.Enabled() {
		return f.Conn.Read(p)
	}
	if r, _ := i.roll(); r < i.cfg.ResetProb {
		i.rst.Add(1)
		f.Conn.Close()
		return 0, ErrInjectedReset
	}
	n, err := f.Conn.Read(p)
	if n > 0 && i.crashAt > 0 && i.readBytes.Add(int64(n)) >= i.crashAt {
		i.crash()
	}
	return n, err
}

// crash kills the process the way a power cut would: SIGKILL to self,
// so no deferred cleanup, no buffered flush, no atexit runs. The WAL
// recovery tests assert the durable state alone reconstructs the
// stream.
func (i *Injector) crash() {
	p, err := os.FindProcess(os.Getpid())
	if err == nil {
		p.Kill()
	}
	// Kill is asynchronous on some platforms; never return to the caller.
	select {}
}

func (f *faultConn) Write(p []byte) (int, error) {
	i := f.inj
	if !i.Enabled() {
		return f.Conn.Write(p)
	}
	r, bits := i.roll()
	c := i.cfg
	switch {
	case r < c.ResetProb:
		i.rst.Add(1)
		f.Conn.Close()
		return 0, ErrInjectedReset
	case r < c.ResetProb+c.PartialWriteProb:
		i.part.Add(1)
		cut := 0
		if len(p) > 1 {
			cut = int(bits % uint64(len(p)))
		}
		n, err := f.Conn.Write(p[:cut])
		f.Conn.Close()
		if err == nil {
			err = ErrInjectedReset
		}
		return n, err
	case r < c.ResetProb+c.PartialWriteProb+c.CorruptProb && len(p) > 0:
		i.corr.Add(1)
		// Flip one bit in a copy: the caller's buffer must stay intact
		// (a client retransmits it from its replay buffer).
		dirty := make([]byte, len(p))
		copy(dirty, p)
		pos := bits % uint64(len(p))
		dirty[pos] ^= 1 << (bits >> 32 % 8)
		return f.Conn.Write(dirty)
	}
	return f.Conn.Write(p)
}
