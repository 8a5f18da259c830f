package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// pipeConns returns a connected in-memory pair.
func pipeConns() (net.Conn, net.Conn) { return net.Pipe() }

func TestDisabledInjectorIsPassthrough(t *testing.T) {
	for _, inj := range []*Injector{nil, New(Config{})} {
		if inj.Enabled() {
			t.Fatal("disabled injector reports enabled")
		}
		a, b := pipeConns()
		wrapped := inj.WrapConn(a)
		if wrapped != a {
			t.Fatal("disabled injector wrapped the connection")
		}
		go wrapped.Write([]byte("ping"))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(b, buf); err != nil || !bytes.Equal(buf, []byte("ping")) {
			t.Fatalf("passthrough read: %q %v", buf, err)
		}
		a.Close()
		b.Close()
	}
}

// TestDeterministicSequence pins that two injectors with the same seed
// make the same decisions in the same order.
func TestDeterministicSequence(t *testing.T) {
	decisions := func(seed uint64) []bool {
		inj := New(Config{ResetProb: 0.3, Seed: seed})
		out := make([]bool, 64)
		for k := range out {
			r, _ := inj.roll()
			out[k] = r < 0.3
		}
		return out
	}
	a, b, c := decisions(7), decisions(7), decisions(8)
	same := true
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at decision %d", k)
		}
		if a[k] != c[k] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 64-decision sequence")
	}
}

func TestInjectedResetSeversWrites(t *testing.T) {
	inj := New(Config{ResetProb: 1, Seed: 1})
	a, b := pipeConns()
	defer b.Close()
	w := inj.WrapConn(a)
	if _, err := w.Write([]byte("doomed")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write error %v, want ErrInjectedReset", err)
	}
	if c := inj.Counters(); c.Resets != 1 {
		t.Fatalf("counters %+v, want one reset", c)
	}
}

func TestPartialWriteCutsPrefix(t *testing.T) {
	inj := New(Config{PartialWriteProb: 1, Seed: 3})
	a, b := pipeConns()
	got := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(b)
		got <- buf
	}()
	w := inj.WrapConn(a)
	payload := bytes.Repeat([]byte("x"), 100)
	n, err := w.Write(payload)
	if err == nil {
		t.Fatal("partial write reported success")
	}
	if n >= len(payload) {
		t.Fatalf("partial write sent %d of %d bytes", n, len(payload))
	}
	if buf := <-got; len(buf) != n {
		t.Fatalf("peer saw %d bytes, writer reported %d", len(buf), n)
	}
	if c := inj.Counters(); c.PartialWrites != 1 {
		t.Fatalf("counters %+v, want one partial write", c)
	}
}

func TestCorruptionFlipsOneBitInCopy(t *testing.T) {
	inj := New(Config{CorruptProb: 1, Seed: 5})
	a, b := pipeConns()
	payload := bytes.Repeat([]byte{0xAA}, 32)
	keep := append([]byte(nil), payload...)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(payload))
		io.ReadFull(b, buf)
		got <- buf
	}()
	w := inj.WrapConn(a)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, keep) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	buf := <-got
	diff := 0
	for k := range buf {
		if buf[k] != payload[k] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ on the wire, want exactly 1", diff)
	}
	a.Close()
	b.Close()
}
