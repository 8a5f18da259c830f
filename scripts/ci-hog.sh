#!/usr/bin/env bash
# Runs a go test command beside two CPU hogs — the schedule that exposes
# bounds and waits which only hold on an idle machine (it is what made
# TestPaneStateSharing's old peak-state bound fail). Usage:
#
#   scripts/ci-hog.sh [go test arguments]
#
# With no arguments it runs the pane tests 50 times. go test always runs
# under two procs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

hogs=()
stop_hogs() {
	for pid in "${hogs[@]}"; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
}
trap stop_hogs EXIT
for i in 1 2; do
	(while :; do :; done) &
	hogs+=($!)
done

if (($# == 0)); then
	set -- -count=50 -timeout 600s -run 'TestPane' ./internal/runtime
fi
GOMAXPROCS=2 go test "$@"
