#!/usr/bin/env bash
# Loopback end to end: sbx-serve (sum pipeline) on 127.0.0.1 and
# sbx-loadgen streaming 1 000 000 records of 500 keys over four
# connections, once per wire. The row wire's /windows and record
# counters must answer, the columnar wire's frames must be counted
# under their format, and after SIGINT each server's report must read
# every record ingested with no drop, decode or checksum error. Usage:
#
#   scripts/ci-loopback.sh [row|columnar ...]
#
# With no arguments it runs both wires. The binaries are built into
# $BIN (default: a fresh temporary directory); CI sets BIN=/tmp so the
# chaos and crash legs after it reuse them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bin=${BIN:-$(mktemp -d)}
go build -o "$bin/sbx-serve" ./cmd/sbx-serve
go build -o "$bin/sbx-loadgen" ./cmd/sbx-loadgen

serve_pid=
stop_serve() {
	if [[ -n $serve_pid ]]; then
		kill "$serve_pid" 2>/dev/null || true
		wait "$serve_pid" 2>/dev/null || true
	fi
}
trap stop_serve EXIT

if (($# == 0)); then
	set -- row columnar
fi
port=7077
for wire in "$@"; do
	http=$((port + 1))
	log="$bin/serve_$wire.log"
	"$bin/sbx-serve" -pipeline sum -ingest "127.0.0.1:$port" -http "127.0.0.1:$http" -duration 20 >"$log" 2>&1 &
	serve_pid=$!
	sleep 1
	"$bin/sbx-loadgen" -addr "127.0.0.1:$port" -conns 4 -records 1000000 -keys 500 -wire "$wire"
	case $wire in
	row)
		curl -sf "http://127.0.0.1:$http/windows" >"$bin/windows.json"
		head -c 600 "$bin/windows.json"
		echo
		curl -sf "http://127.0.0.1:$http/metrics" | grep -E 'streambox_(ingested_records|windows_closed)_total'
		;;
	columnar)
		curl -sf "http://127.0.0.1:$http/metrics" | grep 'streambox_ingest_format_frames_total{format="columnar"}'
		;;
	*)
		echo "unknown wire $wire (want row or columnar)" && exit 2
		;;
	esac
	kill -INT "$serve_pid"
	wait "$serve_pid"
	serve_pid=
	cat "$log"
	grep -q 'ingested:   1000000 records' "$log"
	grep -q '0 dropped records, 0 decode errors, 0 checksum errors' "$log"
	port=$((port + 2))
done
