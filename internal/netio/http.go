package netio

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"streambox/internal/metrics"
)

// NewHandler builds the HTTP mux serving GET /windows (JSON snapshot of
// the latest closed windows per sink) and GET /metrics (text exposition
// of the given sets — each layer's own — in order), plus a one-line
// index at /.
func NewHandler(store *ResultStore, sets ...*metrics.Set) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /windows", func(w http.ResponseWriter, r *http.Request) {
		wins := store.Snapshot()
		if sink := r.URL.Query().Get("sink"); sink != "" {
			kept := wins[:0]
			for _, win := range wins {
				if win.Sink == sink {
					kept = append(kept, win)
				}
			}
			wins = kept
		}
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(wins) {
				wins = wins[len(wins)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Windows []WindowResult `json:"windows"`
		}{wins})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		metrics.WriteText(w, sets...)
	})
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.TrimLeft(`
streambox serve endpoint
  GET /windows[?sink=NAME&limit=N]  latest closed windows (JSON)
  GET /metrics                      engine + ingest metrics (Prometheus text)
`, "\n"))
	})
	return mux
}
