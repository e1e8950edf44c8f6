#!/bin/sh
# bench_pairs.sh — alternating parent/change pairs of the repository's
# benchmark (`go run ./bench`), judged by `bench -compare`. Run from
# anywhere in the repository:
#
#   sh scripts/bench_pairs.sh [-n PAIRS] [-f FIRST_SEED] PARENT_REV [WORKLOAD ...]
#
# The change is the working tree as it stands, committed or not; the
# parent is PARENT_REV, exported with `git archive` into a temporary
# directory (nothing is registered in the repository, so an interrupted
# run leaves nothing behind). Each side's bench binary is built once.
# Pair i runs every workload on seed i (1 to PAIRS, or PAIRS seeds from
# FIRST_SEED), the parent first on odd seeds and the change first on even
# ones, for bench's own run length (the benchmark's 20 s). The first run
# whose result line is not "correct":true with "failed":0 stops
# the series: its flags (pool_exhausted, say) and failures are printed
# and the script exits 1. Every run prints its end-to-end metrics and
# attempted operations, and serve_distinct_nn runs their share of the
# request pool. Otherwise each side's rows are merged into
# bench/out/pairs/{parent,change}.json, op_ms is tabled pair by pair, and
# `go run ./bench -compare` gives the verdicts (its exit status is the
# script's). WORKLOAD defaults to the four BENCHMARK.json gates.
set -eu

usage() {
    echo "usage: $0 [-n PAIRS] [-f FIRST_SEED] PARENT_REV [WORKLOAD ...]" >&2
    exit 2
}

pairs=10
first=1
while getopts n:f: opt; do
    case $opt in
        n) pairs=$OPTARG ;;
        f) first=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
rev="$(git rev-parse --verify "$1^{commit}")"
shift
workloads="${*:-collect_mem serve_hot serve_distinct_nn train_ckpt}"

cd "$(git rev-parse --show-toplevel)"
root="$(pwd)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

echo "== build: parent $rev (git archive), change = working tree =="
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/parent" ./bench)
go build -o "$tmp/change" ./bench

# value NAME LINE prints metric NAME's value from a result line.
value() {
    echo "$2" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# attempted LINE prints a result line's count of timed operations.
attempted() {
    echo "$1" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p'
}

# serve_distinct_nn draws from a fixed pool of never-repeated requests,
# 4 x poolRate 500 x (2 s warm-up + 20 s) = 44,000 (bench/serve.go); a
# run that reaches its end fails as pool_exhausted. Each run's share of
# it is printed so a series shows how close every run came, not only
# whether one ran dry. attempted counts the timed requests; the warm-up
# draws from the same pool on top of them.
nn_pool=44000

# headroom WORKLOAD ATTEMPTED prints the pool share for serve_distinct_nn.
headroom() {
    [ "$1" = serve_distinct_nn ] || return 0
    awk -v n="$2" -v p="$nn_pool" 'BEGIN { printf "  pool %.3f of %d", n / p, p }'
}

# run SIDE WORKLOAD SEED runs one side once; a run that does not verify
# ends the series.
run() {
    out="$tmp/$1-$2-$3"
    dir="$root"
    [ "$1" = parent ] && dir="$tmp/src"
    line="$(cd "$dir" && "$tmp/$1" -workload "$2" -seed "$3" -out "$out" | tail -n 1)"
    case "$line" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "$1 $2 seed $3 did not verify: $(echo "$line" | cut -c1-80)$(headroom "$2" "$(attempted "$line")")" >&2
            sed -n '/"flags": \[/,/\]/p;/"failures": \[/,/\]/p' "$out/results-$2.json" >&2 || true
            exit 1
            ;;
    esac
    echo "$(value op_ms "$line")" > "$out/op_ms"
    n="$(attempted "$line")"
    printf '%-6s %-18s seed %-3s op_ms %-12s ops_per_s %-12s setup_s %-12s attempted %s%s\n' "$1" "$2" "$3" \
        "$(value op_ms "$line")" "$(value ops_per_s "$line")" "$(value setup_s "$line")" "$n" "$(headroom "$2" "$n")"
}

i=$first
while [ "$i" -lt $((first + pairs)) ]; do
    for w in $workloads; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run parent "$w" "$i"
        fi
    done
    i=$((i + 1))
done

# merge SIDE writes that side's rows, every workload and seed, as one
# results file (bench writes each with MarshalIndent: two lines of
# envelope before the rows and two after).
merge() {
    {
        printf '{\n "rows": [\n'
        sep=""
        for w in $workloads; do
            i=$first
            while [ "$i" -lt $((first + pairs)) ]; do
                printf '%s' "$sep"
                sed '1,2d;$d' "$tmp/$1-$w-$i/results-$w.json" | sed '$d'
                sep="  ,
"
                i=$((i + 1))
            done
        done
        printf ' ]\n}\n'
    } > "bench/out/pairs/$1.json"
}

mkdir -p bench/out/pairs
merge parent
merge change

echo "== op_ms pair by pair =="
for w in $workloads; do
    wins=0
    i=$first
    while [ "$i" -lt $((first + pairs)) ]; do
        p="$(cat "$tmp/parent-$w-$i/op_ms")"
        c="$(cat "$tmp/change-$w-$i/op_ms")"
        lower="$(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? 1 : 0 }')"
        wins=$((wins + lower))
        printf '%-18s seed %-3s parent %-12s change %s\n' "$w" "$i" "$p" "$c"
        i=$((i + 1))
    done
    echo "$w: change op_ms lower in $wins/$pairs pairs"
done

echo "== go run ./bench -compare bench/out/pairs/parent.json bench/out/pairs/change.json =="
go run ./bench -compare bench/out/pairs/parent.json bench/out/pairs/change.json
