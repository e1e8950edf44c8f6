#!/bin/sh
# campaign_smoke.sh — end-to-end proof of the distributed-collection
# contract: profile the smoke corpus serially through the CLI, then run
# the same collection as a campaign (coordinator + 3 local workers).
# One worker is a deterministic straggler (-stall-after): it makes a few
# cells durable, then hangs without heartbeating and is SIGKILLed
# mid-shard. Its lease must expire and re-dispatch, its durable cells
# must dedup at merge, and the merged dataset file must still be
# byte-identical to the serial one. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
    jobs="$(jobs -p)" || true
    [ -n "$jobs" ] && kill -9 $jobs 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/stencilmart" ./cmd/stencilmart

echo "-- profile (serial reference) --"
"$tmp/stencilmart" profile -preset smoke -seed 7 -out "$tmp/serial.bin" \
    -journal off >"$tmp/serial.log" 2>&1 || {
    cat "$tmp/serial.log"; echo "campaign smoke: serial profile failed" >&2; exit 1
}

echo "-- campaign (coordinator + 3 workers, one killed mid-shard) --"
"$tmp/stencilmart" campaign coordinate -preset smoke -seed 7 \
    -out "$tmp/merged.bin" -dir "$tmp/camp" -shards 6 \
    -listen 127.0.0.1:0 -lease 2s >"$tmp/coord.log" 2>&1 &
coord=$!

# Wait for the coordinator to publish its bound address.
addr=""
for _ in $(seq 1 100); do
    [ -s "$tmp/camp/coordinator.addr" ] && { addr="$(cat "$tmp/camp/coordinator.addr")"; break; }
    kill -0 "$coord" 2>/dev/null || { cat "$tmp/coord.log"; echo "campaign smoke: coordinator died" >&2; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$tmp/coord.log"; echo "campaign smoke: no coordinator address" >&2; exit 1; }

# The victim joins alone, makes 3 cells durable, then hangs without
# heartbeating; once it reports the stall we kill it the hard way.
"$tmp/stencilmart" campaign work -join "$addr" -id victim -workers 1 \
    -stall-after 3 >"$tmp/victim.log" 2>&1 &
victim=$!
for _ in $(seq 1 200); do
    grep -q 'stalling after' "$tmp/victim.log" && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
done
grep -q 'stalling after' "$tmp/victim.log" || {
    cat "$tmp/victim.log"; echo "campaign smoke: victim never stalled" >&2; exit 1
}
kill -9 "$victim" 2>/dev/null || true

# Two healthy workers finish the pending shards, then pick up the
# victim's expired lease.
"$tmp/stencilmart" campaign work -join "$addr" -id w2 >"$tmp/w2.log" 2>&1 &
"$tmp/stencilmart" campaign work -join "$addr" -id w3 >"$tmp/w3.log" 2>&1 &

wait "$coord" || {
    cat "$tmp/coord.log"; echo "campaign smoke: coordinator failed" >&2; exit 1
}

# The dead worker's lease must have been re-dispatched and its durable
# cells deduped at merge.
grep -q 're-dispatched' "$tmp/coord.log" || {
    cat "$tmp/coord.log"; echo "campaign smoke: victim's lease was never re-dispatched" >&2; exit 1
}
grep '^merged' "$tmp/coord.log" | grep -qv ' 0 duplicate' || {
    cat "$tmp/coord.log"; echo "campaign smoke: no duplicate records deduped" >&2; exit 1
}

# The merged campaign dataset must match the serial run byte for byte —
# across worker death, lease re-dispatch, and duplicate cell records.
echo "-- compare --"
cmp "$tmp/serial.bin" "$tmp/merged.bin" || {
    cat "$tmp/coord.log"
    echo "campaign smoke: merged dataset differs from the serial dataset" >&2; exit 1
}

grep '^merged' "$tmp/coord.log"
echo "campaign smoke passed"
