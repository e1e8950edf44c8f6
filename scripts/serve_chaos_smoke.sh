#!/bin/sh
# serve_chaos_smoke.sh — the serving-tier resilience drill over real
# HTTP: profile a tiny corpus, train a checkpoint on the dataset file,
# serve it on the f32 lane with the chaos injector armed (latency
# spikes, connection resets, truncated bodies, and a deterministic
# scoring-panic burst), then drive loadgen bursts through it and assert
# the resilience contract on /statsz:
#
#   - the scoring burst trips the (v1, f32) breaker, and every affected
#     request is served degraded by the f64 fallback (degraded > 0,
#     trips recorded) instead of failing;
#   - the error rate stays bounded — only connection-level faults fail
#     requests, and the per-site fault budget caps those;
#   - after the cooldown a half-open probe recovers the lane: no breaker
#     is left open;
#   - a request arriving with its deadline already spent is answered 504
#     before admission and counted in deadline_expired.
#
# Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
server_pid=""
cleanup() {
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill -TERM "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/stencilmart" ./cmd/stencilmart

echo "-- profile, then train (smoke preset) --"
"$tmp/stencilmart" profile -preset smoke -out "$tmp/dataset.bin" >"$tmp/profile.log" 2>&1 || {
    cat "$tmp/profile.log"; echo "serve chaos: profile failed" >&2; exit 1
}
"$tmp/stencilmart" train -preset smoke -dataset "$tmp/dataset.bin" -out "$tmp/model.ckpt" >"$tmp/train.log" 2>&1 || {
    cat "$tmp/train.log"; echo "serve chaos: train failed" >&2; exit 1
}

echo "-- serve (f32 lane, chaos armed) --"
# Batch size 4 keeps the f32 scoring-call count high enough that the
# injector's panic burst (calls 4-6 on site f32/v1) lands inside the
# first loadgen burst and trips the breaker deterministically.
"$tmp/stencilmart" serve -model "$tmp/model.ckpt" -addr 127.0.0.1:0 \
    -lane f32 -batch-size 4 -chaos -chaos-seed 7 \
    -breaker-threshold 3 -breaker-cooldown 500ms >"$tmp/serve.log" 2>&1 &
server_pid=$!

base=""
i=0
while [ $i -lt 100 ]; do
    base="$(sed -n 's/^serving on \(http:\/\/.*\)$/\1/p' "$tmp/serve.log" | head -n1)"
    [ -n "$base" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        cat "$tmp/serve.log"; echo "serve chaos: server exited early" >&2; exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$base" ]; then
    cat "$tmp/serve.log"; echo "serve chaos: server never announced its address" >&2; exit 1
fi
grep -q 'chaos drill armed' "$tmp/serve.log" || {
    cat "$tmp/serve.log"; echo "serve chaos: server did not arm the injector" >&2; exit 1
}

fetch() {
    # fetch <url-path> <output-file> [POST body] [extra header]
    path="$1"; out="$2"; body="${3:-}"; hdr="${4:-}"
    if command -v curl >/dev/null 2>&1; then
        set -- -sS -o "$out" -w '%{http_code}'
        [ -n "$hdr" ] && set -- "$@" -H "$hdr"
        if [ -n "$body" ]; then
            curl "$@" -H 'Content-Type: application/json' -d "$body" "$base$path"
        else
            curl "$@" "$base$path"
        fi
    else
        wargs="-q -O $out --server-response"
        [ -n "$hdr" ] && wargs="$wargs --header=$hdr"
        if [ -n "$body" ]; then
            # shellcheck disable=SC2086
            wget $wargs --header='Content-Type: application/json' --post-data="$body" "$base$path" 2>&1 |
                sed -n 's/^  HTTP\/[0-9.]* \([0-9]*\).*/\1/p' | tail -n1
        else
            # shellcheck disable=SC2086
            wget $wargs "$base$path" 2>&1 | sed -n 's/^  HTTP\/[0-9.]* \([0-9]*\).*/\1/p' | tail -n1
        fi
    fi
}

echo "-- expired deadline rejected at admission --"
code="$(fetch /predict "$tmp/expired.json" '{"stencil":"star2d1r","gpu":"V100"}' 'X-Deadline-Millis: 0')" || true
[ "$code" = "504" ] || {
    cat "$tmp/expired.json"; echo "serve chaos: expired deadline gave HTTP $code, want 504" >&2; exit 1
}

echo "-- loadgen burst 1 (trips the f32 breaker) --"
# No -fail-on-error: injected resets/truncations legitimately fail a
# bounded share of requests. The scoring panics must NOT fail anything —
# those requests degrade to the f64 lane.
"$tmp/stencilmart" loadgen -url "$base" -clients 8 -n 8 >"$tmp/loadgen1.log" 2>&1 || {
    cat "$tmp/loadgen1.log"; echo "serve chaos: loadgen burst 1 failed" >&2; exit 1
}
result="$(grep -o '{.*}' "$tmp/loadgen1.log" | head -n1)"
requests="$(printf '%s' "$result" | sed -n 's/.*"requests":\([0-9]*\).*/\1/p')"
errors="$(printf '%s' "$result" | sed -n 's/.*"errors":\([0-9]*\).*/\1/p')"
[ -n "$requests" ] && [ -n "$errors" ] || {
    cat "$tmp/loadgen1.log"; echo "serve chaos: cannot parse loadgen result" >&2; exit 1
}
# Bounded errors: well under half the burst even at ≥10% injected
# faults, because the per-site budget caps connection-level chaos.
if [ $((errors * 100)) -gt $((requests * 40)) ]; then
    cat "$tmp/loadgen1.log"
    echo "serve chaos: $errors/$requests requests failed — error rate unbounded" >&2
    exit 1
fi
echo "   $errors/$requests requests failed (bounded)"

echo "-- breaker tripped, fallbacks served --"
code="$(fetch /statsz "$tmp/statsz1.json")"
[ "$code" = "200" ] || { echo "serve chaos: /statsz gave HTTP $code" >&2; exit 1; }
grep -q '"trips":[1-9]' "$tmp/statsz1.json" || {
    cat "$tmp/statsz1.json"; echo "serve chaos: no breaker trip recorded" >&2; exit 1
}
grep -q '"degraded_requests":[1-9]' "$tmp/statsz1.json" || {
    cat "$tmp/statsz1.json"; echo "serve chaos: breaker tripped but no degraded fallbacks served" >&2; exit 1
}
grep -q '"deadline_expired":[1-9]' "$tmp/statsz1.json" || {
    cat "$tmp/statsz1.json"; echo "serve chaos: expired-deadline 504 not counted" >&2; exit 1
}

echo "-- cooldown, then burst 2 (half-open probe recovers) --"
sleep 1
"$tmp/stencilmart" loadgen -url "$base" -clients 4 -n 4 >"$tmp/loadgen2.log" 2>&1 || {
    cat "$tmp/loadgen2.log"; echo "serve chaos: loadgen burst 2 failed" >&2; exit 1
}
code="$(fetch /statsz "$tmp/statsz2.json")"
[ "$code" = "200" ] || { echo "serve chaos: /statsz gave HTTP $code" >&2; exit 1; }
grep -q '"state":"closed"' "$tmp/statsz2.json" || {
    cat "$tmp/statsz2.json"; echo "serve chaos: no closed breaker after recovery" >&2; exit 1
}
if grep -q '"state":"open"' "$tmp/statsz2.json"; then
    cat "$tmp/statsz2.json"; echo "serve chaos: a breaker is still open after the cooldown burst" >&2; exit 1
fi
grep -q '"probes":[1-9]' "$tmp/statsz2.json" || {
    cat "$tmp/statsz2.json"; echo "serve chaos: recovery happened without a half-open probe" >&2; exit 1
}

echo "-- shutdown --"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "serve chaos: server exited non-zero on SIGTERM" >&2; exit 1; }
server_pid=""

echo "serve chaos smoke passed"
