#!/bin/sh
# check.sh — the full verification gate: build, vet, the regular test
# suite, and the race-detector run that guards the parallel pipeline's
# determinism contract. Run from the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test (shuffled) =="
# -shuffle=on randomizes test and subtest order: tests that secretly
# depend on a sibling's side effects fail here instead of in CI later.
go test -shuffle=on ./...

echo "== go test -race =="
go test -race ./...

echo "== alloc gate (f32 serving models + sim evaluator and compile + collection sample loop + /predict handler) =="
# The zero-allocation contracts: compiled tree/network scoring and the
# arena-backed serving encode path (the f32 models every request scores
# on), and the simulator's
# compiled per-sample evaluation path on both of its branches — pricing
# a sample on a cell's first lookup (what collection runs) and answering
# one from a revisited cell's memo (what a repeated request runs), both
# in TestAllocGateEvaluator. TestAllocGateCompile bounds a fresh cell
# compile at 20 allocations (the stencil is embedded once, against
# directions cached per key). TestAllocGateProfileOne bounds collection:
# a sample a hard limit rejects allocates its typed error and nothing
# else, and a whole cell on a fresh simulator stays under 150
# allocations. TestAllocGatePredictHandler bounds one warm /predict
# through Handler() (a named and a raw-points body), so a per-request
# goroutine or a buffered copy of the response cannot come back
# unnoticed. AllocsPerRun is meaningless under
# -race, so this is a separate plain run. It runs at one proc and at
# four: the compiled f32 networks share their forward pass with the f64
# training side, which may dispatch to the pool, and a stray workers=0 on
# the serving path allocates only where the pool would really fan out — a
# single-proc host alone would pass it silently.
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run AllocGate ./internal/linalg/ ./internal/ml/tree/ ./internal/ml/nn/ ./internal/core/ ./internal/sim/ ./internal/profile/ ./internal/serve/
done

echo "== bench smoke (race) =="
# One iteration of every kernel/training benchmark under the race
# detector: proves the GEMM backbone, the nn layers, the histogram
# tree trainer, and the request coalescer execute their parallel paths
# cleanly, without paying for a full benchmark run; lazyrand rides along
# so its library-vs-lazy benchmark cannot rot, the checkpoint codec's
# (`make bench-ckpt`: persist's column loops, internal/core's save/load
# pair and dataset-file pair) for the same reason, and so do collection's
# (the default-corpus Collect pass under a cancelable context, one cell)
# and the simulator's evaluator benchmarks.
go test -race -run='^$' -bench=. -benchtime=1x ./internal/linalg/ ./internal/ml/nn/ ./internal/ml/tree/ ./internal/serve/batch/ ./internal/lazyrand/ ./internal/persist/ ./internal/profile/ ./internal/sim/
go test -race -run='^$' -bench='Checkpoint|DatasetFile' -benchtime=1x ./internal/core/

echo "== coalescer Do x Close, direct tree scoring (race, repeated) =="
# Every call submitted while the coalescer closes is answered exactly once
# and promptly; the interleaving that used to strand one is rare per run.
# Tree-model requests score concurrently on their connections' goroutines: their
# bodies must stay the serial answer's bytes, with no race on shared
# scratch, an nn framework must still coalesce, and a request after Close
# must get 503 and release its lease.
go test -race -count=20 -run 'Close' ./internal/serve/batch/
go test -race -count=10 -run 'TestDirectScoringDifferential|TestCloseRefusesDirectScoring' ./internal/serve/

echo "== fuzz smoke (checkpoint envelope + loader, tree columns, dataset file, WAL records, /predict stencils, lazyrand) =="
# Five seconds each: the seeds plus whatever the mutator reaches. The
# envelope's: valid, truncated header and payload, flipped manifest byte,
# lying payload length, trailing bytes, wrong version and magic; lying
# column-section length, lying column count, section cut mid-varint,
# padded varint, NaN bits, flipped column byte. The loader's, as
# (manifest, columns) framed afresh: valid; ragged instance and node
# columns, arch index out of range, params not ten per instance, child
# index 1<<40, feature 1<<32 and past the row width, 0x7ff8... in a time
# and in a threshold, a float column where an int column is due, a scaler
# on a tree regressor, an edited label, a count past the end, an ensemble
# learning rate of 0. The tree columns', as one tree's six node columns
# (copied up to six times) through the ensemble loader: a stump, chains at
# and past the depth bound, and each corruption TestTreeFromFlatColumns
# refuses; an accepted ensemble must also score exactly like the per-row
# descent, in both numeric formats. The dataset
# file's, framed the same way: valid; a corpus and no numbers and the
# reverse, ragged and mistyped columns, arch index and OC out of range,
# NaN, +Inf and negative times, an edited label, a twelfth column. The
# WAL's, as the bytes behind a valid header: valid records, a cut, a
# flipped byte, a length no file holds, a padded and a cut-short length, a
# zero-filled tail, every record twice. Typed error or success (for the
# WAL: a clean replay and a tail to drop), never a panic, allocation
# bounded by the input. The /predict body's stencil, decoded as the
# handler decodes it: MinInt and MaxInt offsets, order 5, duplicate
# points, dims/dz disagreement, 2- and 4-element points, both stencil
# forms and neither, a loose spelling of a classic name; an error or a
# stencil that passes Validate with every offset within MaxOrder, never
# a panic. The lazy seeded source's
# stream, from a dirty register, equals math/rand's for every fuzzed
# seed and draw count. (Same seven commands as `make fuzz-smoke`;
# minimising an interesting input — megabyte-sized for the loader, a
# 500-node chain for the tree columns — would eat the whole budget, hence
# -fuzzminimizetime 1x.)
go test ./internal/persist/ -run='^$' -fuzz FuzzPersistRead -fuzztime 5s
go test ./internal/core/ -run='^$' -fuzz FuzzLoadFramework -fuzztime 5s -fuzzminimizetime 1x
go test ./internal/ml/tree/ -run='^$' -fuzz FuzzEnsembleColumns -fuzztime 5s -fuzzminimizetime 1x
go test ./internal/profile/ -run='^$' -fuzz FuzzDatasetRoundTrip -fuzztime 5s -fuzzminimizetime 1x
go test ./internal/persist/ -run='^$' -fuzz FuzzReadWAL -fuzztime 5s
go test ./internal/serve/ -run='^$' -fuzz FuzzStencilFromRequest -fuzztime 5s
go test ./internal/lazyrand/ -run='^$' -fuzz FuzzSourceMatchesLibrary -fuzztime 5s

echo "== bench smoke (collect_mem, serve_hot, serve_distinct_nn, train_ckpt) =="
# One second each of the four workloads BENCHMARK.json gates: collection,
# hot tree serving, never-repeated requests on the network models, and
# train-to-checkpoint. Every workload verifies each answer it
# times (dataset digest, response bodies; train_ckpt asks a server
# started from each cycle's checkpoint 40 probes and compares them with
# the framework trained in memory, so a lossy checkpoint codec fails
# here), so this step fails on a wrong prediction or dataset, not just
# on a crash. Numbers are not compared here — the
# baseline lives in bench/BASELINE.json. A single-workload run exits 0
# whenever it printed a result, so the verdict is read from that result.
# "failed":0 on serve_hot and serve_distinct_nn is also the gate on the
# sim memo rule (a cell memoizes from its second lookup): the harness
# counts a failed operation unless the hot stream hit the memo on >= 0.99
# of its lookups and the never-repeated stream on <= 0.05.
for w in collect_mem serve_hot serve_distinct_nn train_ckpt; do
    result="$(go run ./bench -workload "$w" -seconds 1 | tail -n 1)"
    echo "$w: $result"
    case "$result" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *) echo "bench smoke: $w did not verify" >&2; exit 1 ;;
    esac
done

echo "== serve smoke =="
# Train a tiny checkpoint, serve it on a random port, and exercise
# /healthz, /predict (including a 504 for an already-spent
# X-Deadline-Millis) and /statsz over real HTTP — the deploy path end to
# end.
sh scripts/serve_smoke.sh

echo "== examples smoke =="
# go vet only compiles examples/; run each one so a runtime failure (a
# log.Fatal on an error) fails here. Each takes about a second.
for e in examples/*/; do
    echo "$e"
    go run "./$e" > /dev/null
done

# Non-test Go lines outside bench/ are a ratchet: a PR that ends below
# max_lines lowers it to its own count; one that ends above it fails
# here. The test-file count is printed beside it (not gated), so code
# moved from the product into tests shows as a move, not a deletion.
max_lines=14930
lines="$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"
test_lines="$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)"
echo "non-test Go lines (excluding bench/): $lines (ratchet $max_lines); test Go lines: $test_lines"
if [ "$lines" -gt "$max_lines" ]; then
    echo "line ratchet: $lines non-test lines, the recorded maximum is $max_lines" >&2
    exit 1
fi
echo "all checks passed"
