#!/bin/sh
# chaos_smoke.sh — end-to-end proof of the fault-tolerance contract:
# profile the smoke corpus twice through the CLI, once cleanly and once
# under deterministic fault injection (-chaos), and require the two
# dataset files to be byte-identical. The injected faults (transient
# errors, panics, non-finite samples, timing spikes) must be fully
# absorbed by retries, median trials, and non-finite rejection.
# Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/stencilmart" ./cmd/stencilmart

echo "-- profile (clean) --"
"$tmp/stencilmart" profile -preset smoke -seed 7 -out "$tmp/clean.bin" \
    -journal off >"$tmp/clean.log" 2>&1 || {
    cat "$tmp/clean.log"; echo "chaos smoke: clean profile failed" >&2; exit 1
}

echo "-- profile (chaos) --"
"$tmp/stencilmart" profile -preset smoke -seed 7 -out "$tmp/chaos.bin" \
    -journal off -chaos >"$tmp/chaos.log" 2>&1 || {
    cat "$tmp/chaos.log"; echo "chaos smoke: chaos profile failed" >&2; exit 1
}

# The chaos run must actually have injected faults...
grep -q '^chaos: absorbed' "$tmp/chaos.log" || {
    cat "$tmp/chaos.log"; echo "chaos smoke: no fault report in chaos run" >&2; exit 1
}
grep '^chaos: absorbed' "$tmp/chaos.log" | grep -qv 'absorbed 0 ' || {
    cat "$tmp/chaos.log"; echo "chaos smoke: chaos run injected zero faults" >&2; exit 1
}

# ...and the datasets must still be byte-identical.
echo "-- compare --"
cmp "$tmp/clean.bin" "$tmp/chaos.bin" || {
    echo "chaos smoke: chaos dataset differs from the fault-free dataset" >&2; exit 1
}

grep '^chaos: absorbed' "$tmp/chaos.log"
echo "chaos smoke passed"
