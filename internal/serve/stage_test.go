package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"streambox/internal/netio"
	"streambox/internal/parsefmt"
	"streambox/internal/runtime"
)

var stageLabel = regexp.MustCompile(`(?m)^# labels: .*"stage":"([a-z]+)"`)

// TestStageLabels reads the goroutine profile of a live serve with a
// log, the HTTP endpoint and one connected session, idle between frames.
// The serving layer's own goroutines carry their stages — the
// checkpoint loop (checkpoint), the watcher that closes ingest when the
// run ends (shutdown), the HTTP server and a request's connection
// (http) — and every goroutine running this module's code, bar the
// test's own, carries one: none the program starts is left out of a CPU
// profile's per-stage shares.
func TestStageLabels(t *testing.T) {
	srv, err := Serve(testPlan(), runtime.Config{Workers: 2}, "capture", Config{
		IngestAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", WALDir: t.TempDir(),
		CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := netio.Dial(srv.IngestAddr(), netio.ClientConfig{Format: parsefmt.Columnar, FrameRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(netio.RecordGen{Keys: 8, WindowRecords: 1000}.Records(0, 2500)); err != nil {
		t.Fatal(err)
	}

	// An HTTP request that never ends parks its connection's goroutine,
	// where the handlers run.
	hc, err := net.Dial("tcp", srv.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	if _, err := io.WriteString(hc, "GET /metrics HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"(*Server).checkpointLoop":    "checkpoint",
		"(*Server).closeIngestAtExit": "shutdown",
		"net/http.(*Server).Serve":    "http",
		"net/http.(*conn).serve":      "http",
	}
	// A goroutine just started may not have entered its stage yet, so a
	// snapshot that fails is taken again; one that stays wrong fails.
	var problems []string
	var buf bytes.Buffer
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		buf.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		problems = problems[:0]
		seen := map[string]bool{}
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			stage := ""
			if m := stageLabel.FindStringSubmatch(rec); m != nil {
				stage = m[1]
			}
			for fn, st := range want {
				if strings.Contains(rec, fn) {
					seen[fn] = true
					if stage != st {
						problems = append(problems, fmt.Sprintf("goroutine in stage %q, want %q:\n%s", stage, st, rec))
					}
				}
			}
			if stage == "" && strings.Contains(rec, "streambox/internal/") && !strings.Contains(rec, "testing.") {
				problems = append(problems, "goroutine running this module's code has no stage:\n"+rec)
			}
		}
		for fn, st := range want {
			if !seen[fn] {
				problems = append(problems, fmt.Sprintf("no goroutine in %s, where stage %q runs", fn, st))
			}
		}
		if len(problems) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, p := range problems {
		t.Error(p)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}
