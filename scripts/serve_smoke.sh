#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the profile/train/serve
# pipeline: build the CLI, profile a tiny corpus, train a checkpoint on
# the dataset file, start the HTTP service on a random port, hit /healthz
# and /predict, assert well-formed 200 responses (one at a time and in a
# concurrent burst), check that `stencilmart predict` on the same
# checkpoint names the same OC, check that a request whose deadline is
# already spent gets 504 and is counted, and shut the server down. Run
# from the repository root.
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
    cat "$tmp/profile.log"; echo "serve smoke: profile failed" >&2; exit 1
}
"$tmp/stencilmart" train -preset smoke -dataset "$tmp/dataset.bin" -out "$tmp/model.ckpt" >"$tmp/train.log" 2>&1 || {
    cat "$tmp/train.log"; echo "serve smoke: train failed" >&2; exit 1
}

echo "-- serve (random port) --"
"$tmp/stencilmart" serve -model "$tmp/model.ckpt" -addr 127.0.0.1:0 >"$tmp/serve.log" 2>&1 &
server_pid=$!

# Wait for the server to announce its address.
base=""
i=0
while [ $i -lt 100 ]; do
    base="$(sed -n 's/^serving on \(http:\/\/.*\)$/\1/p' "$tmp/serve.log" | head -n1)"
    [ -n "$base" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        cat "$tmp/serve.log"; echo "serve smoke: server exited early" >&2; exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$base" ]; then
    cat "$tmp/serve.log"; echo "serve smoke: server never announced its address" >&2; exit 1
fi

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
        set -- -q -O "$out" --server-response
        [ -n "$hdr" ] && set -- "$@" --header="$hdr"
        if [ -n "$body" ]; then
            wget "$@" --header='Content-Type: application/json' --post-data="$body" "$base$path" 2>&1 |
                sed -n 's/^  HTTP\/[0-9.]* \([0-9]*\).*/\1/p' | tail -n1
        else
            wget "$@" "$base$path" 2>&1 | sed -n 's/^  HTTP\/[0-9.]* \([0-9]*\).*/\1/p' | tail -n1
        fi
    fi
}

echo "-- /healthz --"
code="$(fetch /healthz "$tmp/healthz.json")"
[ "$code" = "200" ] || { echo "serve smoke: /healthz gave HTTP $code" >&2; exit 1; }
grep -q '"status":"ok"' "$tmp/healthz.json" || {
    cat "$tmp/healthz.json"; echo "serve smoke: /healthz body malformed" >&2; exit 1
}

echo "-- /predict --"
code="$(fetch /predict "$tmp/predict.json" '{"stencil":"star2d2r","gpu":"V100"}')"
[ "$code" = "200" ] || { cat "$tmp/predict.json"; echo "serve smoke: /predict gave HTTP $code" >&2; exit 1; }
for field in '"oc"' '"params"' '"predicted_seconds"' '"advice"'; do
    grep -q "$field" "$tmp/predict.json" || {
        cat "$tmp/predict.json"; echo "serve smoke: /predict body missing $field" >&2; exit 1
    }
done

echo "-- predict (CLI) --"
# The CLI asks the same checkpoint through the same serving path, so it
# must name the OC /predict answered.
"$tmp/stencilmart" predict -model "$tmp/model.ckpt" -stencil star2d2r -gpu V100 >"$tmp/cli.txt" 2>&1 || {
    cat "$tmp/cli.txt"; echo "serve smoke: predict failed" >&2; exit 1
}
cli_oc="$(sed -n 's/^predicted best OC for .* on V100: \([A-Z_]*\) (class [0-9]*)$/\1/p' "$tmp/cli.txt")"
http_oc="$(sed -n 's/.*"oc":"\([^"]*\)".*/\1/p' "$tmp/predict.json")"
if [ -z "$cli_oc" ] || [ "$cli_oc" != "$http_oc" ]; then
    cat "$tmp/cli.txt" "$tmp/predict.json"
    echo "serve smoke: predict printed OC '$cli_oc', /predict answered '$http_oc'" >&2; exit 1
fi

echo "-- expired deadline rejected at admission --"
code="$(fetch /predict "$tmp/expired.json" '{"stencil":"star2d1r","gpu":"V100"}' 'X-Deadline-Millis: 0')"
[ "$code" = "504" ] || {
    cat "$tmp/expired.json"; echo "serve smoke: expired deadline gave HTTP $code, want 504" >&2; exit 1
}

echo "-- /modelz --"
code="$(fetch /modelz "$tmp/modelz.json")"
[ "$code" = "200" ] || { cat "$tmp/modelz.json"; echo "serve smoke: /modelz gave HTTP $code" >&2; exit 1; }
grep -q '"current":"v1"' "$tmp/modelz.json" || {
    cat "$tmp/modelz.json"; echo "serve smoke: /modelz does not list v1 as current" >&2; exit 1
}

echo "-- concurrent burst --"
# Eight requests at once, each scored on its own connection's goroutine
# (the smoke's GBDT + GBRegressor models never queue for the coalescer);
# every one must answer 200 with a whole prediction. A bare `wait` would
# also wait for the server, so each request's pid is waited for.
burst="star2d1r star2d2r box2d1r star3d1r star3d2r box3d1r box2d2r box3d2r"
pids=""
for s in $burst; do
    fetch /predict "$tmp/burst_$s.json" "{\"stencil\":\"$s\",\"gpu\":\"A100\"}" >"$tmp/burst_$s.code" &
    pids="$pids $!"
done
for pid in $pids; do
    wait "$pid" || true
done
for s in $burst; do
    code="$(cat "$tmp/burst_$s.code")"
    if [ "$code" != "200" ] || ! grep -q '"oc"' "$tmp/burst_$s.json" || ! grep -q '"advice"' "$tmp/burst_$s.json"; then
        cat "$tmp/burst_$s.json"; echo "serve smoke: burst request for $s gave HTTP $code" >&2; exit 1
    fi
done

echo "-- /statsz quantiles --"
code="$(fetch /statsz "$tmp/statsz.json")"
[ "$code" = "200" ] || { cat "$tmp/statsz.json"; echo "serve smoke: /statsz gave HTTP $code" >&2; exit 1; }
for field in '"p50_millis"' '"p99_millis"' '"p999_millis"' '"batches"'; do
    grep -q "$field" "$tmp/statsz.json" || {
        cat "$tmp/statsz.json"; echo "serve smoke: /statsz missing $field" >&2; exit 1
    }
done
grep -q '"deadline_expired":[1-9]' "$tmp/statsz.json" || {
    cat "$tmp/statsz.json"; echo "serve smoke: expired-deadline 504 not counted" >&2; exit 1
}

echo "-- shutdown --"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "serve smoke: server exited non-zero on SIGTERM" >&2; exit 1; }
server_pid=""

echo "serve smoke passed"
