#!/usr/bin/env bash
# ci-run-matches.sh REGEX PKG... fails when the -run regex REGEX would
# drop a test silently: when one of its alternatives names no test, fuzz
# target or example in the packages, or when a package has none that
# REGEX selects. `go test -run` passes when it matches nothing, so a CI
# leg that lists its tests by name would otherwise lose a renamed test
# without a sound. Use it ahead of the leg, with the same regex:
#
#   scripts/ci-run-matches.sh "$RUN" ./internal/algo ./internal/kpa
#
# Alternatives are the regex split at every "|" outside parentheses; a
# group that holds alternatives, as in Foo(Bar|Baz), expands to FooBar
# and FooBaz. Each must match a listed name the way -run does (unanchored
# unless it anchors itself).
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: $0 REGEX PKG..." >&2
	exit 2
fi
regex=$1
shift

# alternatives prints the alternatives of a regex, one per line.
alternatives() {
	local re=$1 i c depth=0 cur='' alt g
	local -a top=() inner=()
	for ((i = 0; i < ${#re}; i++)); do
		c=${re:i:1}
		case $c in
		'(') depth=$((depth + 1)) ;;
		')') depth=$((depth - 1)) ;;
		'|')
			if ((depth == 0)); then
				top+=("$cur")
				cur=''
				continue
			fi
			;;
		esac
		cur+=$c
	done
	top+=("$cur")
	for alt in "${top[@]}"; do
		if [[ $alt =~ ^([^\(]*)\(([^\(\)]*\|[^\(\)]*)\)(.*)$ ]]; then
			local pre=${BASH_REMATCH[1]} post=${BASH_REMATCH[3]}
			IFS='|' read -ra inner <<<"${BASH_REMATCH[2]}"
			for g in "${inner[@]}"; do
				alternatives "$pre$g$post"
			done
		else
			printf '%s\n' "$alt"
		fi
	done
}

fail=0
names=''
for pkg in "$@"; do
	listed=$(go test -list "$regex" "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
	if [[ -z $listed ]]; then
		echo "$pkg: -run '$regex' selects no test"
		fail=1
	fi
	names+=$listed$'\n'
done
while IFS= read -r alt; do
	if ! grep -qE -- "$alt" <<<"$names"; then
		echo "-run alternative '$alt' matches no test in $*"
		fail=1
	fi
done < <(alternatives "$regex")
exit $fail
