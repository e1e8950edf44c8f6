# Convenience targets around the Go toolchain; `make check` is the full
# verification gate (build + vet + tests + race detector).

GO ?= go

.PHONY: build test vet race check serve-smoke bench bench-kernels bench-trees bench-lanes bench-ckpt bench-pairs fuzz fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check:
	sh scripts/check.sh

serve-smoke:
	sh scripts/serve_smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

bench-kernels:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/linalg/ ./internal/ml/nn/

# At one proc and at two: a tree fit is serial by design, and one that is
# slower with a second core (false sharing) should show every time.
bench-trees:
	$(GO) test -run='^$$' -bench=. -benchmem -cpu 1,2 ./internal/ml/tree/

# The models' float64 form (training, CV, experiments) vs their compiled
# f32 form (what serving scores on), side by side: GEMM, tree ensembles
# (also at the serving shapes, BenchmarkEnsembleServe), and network
# forward passes on serving-sized batches.
bench-lanes:
	$(GO) test -run='^$$' -bench='BenchmarkLane|BenchmarkEnsembleServe' -benchmem ./internal/linalg/ ./internal/ml/tree/ ./internal/ml/nn/

# Checkpoint save and load of the default preset's tree framework and
# write and read of its dataset file (time, MB/s of file, bytes and
# allocations per operation), and the four column loops under them (MB/s
# of decoded elements).
bench-ckpt:
	$(GO) test -run='^$$' -bench='Checkpoint|Columns|DatasetFile' -benchmem ./internal/persist/ ./internal/core/

# Alternating parent/change pairs of `go run ./bench` at 20 s, judged by
# -compare (the change is the working tree):
#   make bench-pairs PARENT=HEAD~1 WORKLOADS=train_ckpt PAIRS=10
PARENT ?= HEAD
PAIRS ?= 10
WORKLOADS ?=
bench-pairs:
	sh scripts/bench_pairs.sh -n $(PAIRS) $(PARENT) $(WORKLOADS)

fuzz:
	$(GO) test ./internal/profile/ -run='^$$' -fuzz FuzzDatasetRoundTrip -fuzztime 30s -fuzzminimizetime 1x

# Five-second runs of the six hostile-input fuzz targets: the frame, the
# checkpoint loader, a tree ensemble's node columns, the dataset file, WAL
# records, a /predict body's stencil; and of the lazy seeded source
# against math/rand (check.sh runs these).
# Minimising a megabyte-sized interesting input (or, for the tree columns,
# a 500-node chain) would eat the whole budget, hence -fuzzminimizetime 1x.
fuzz-smoke:
	$(GO) test ./internal/persist/ -run='^$$' -fuzz FuzzPersistRead -fuzztime 5s
	$(GO) test ./internal/core/ -run='^$$' -fuzz FuzzLoadFramework -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/ml/tree/ -run='^$$' -fuzz FuzzEnsembleColumns -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/profile/ -run='^$$' -fuzz FuzzDatasetRoundTrip -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/persist/ -run='^$$' -fuzz FuzzReadWAL -fuzztime 5s
	$(GO) test ./internal/serve/ -run='^$$' -fuzz FuzzStencilFromRequest -fuzztime 5s
	$(GO) test ./internal/lazyrand/ -run='^$$' -fuzz FuzzSourceMatchesLibrary -fuzztime 5s
