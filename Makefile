# Build/verify entry points. `make test` is the tier-1 verify path:
# vet + build + full test suite, plus the concurrent packages under the
# race detector: obs (logger, registry, and the span histograms the
# trace subpackage feeds), the worker-pool
# paths introduced by the parallel engine (pool, gnn's data-parallel
# trainer, dataset's parallel Build), serve, and the profiler (interp,
# deps), which core.OracleSweep runs concurrently.
GO ?= go

.PHONY: all build lint test test-race bench benchgate fuzz smoke verify

# How long `make fuzz` mutates the MiniC parser (CI uses 10s).
FUZZTIME ?= 30s

# `make bench` output: machine-readable benchmark log (one JSON test
# event per line, the `go test -json` format) of the whole suite, and how
# long each benchmark runs. bench.json is gitignored; compare two such
# logs with `go run ./cmd/benchcmp OLD NEW`.
BENCHJSON ?= bench.json
BENCHTIME ?= 1x

all: verify

build:
	$(GO) build ./...

lint:
	$(GO) vet ./...

test: build
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/pool/... ./internal/gnn/... ./internal/dataset/... ./internal/serve/... ./internal/interp/... ./internal/deps/...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -json -bench=. -benchmem -benchtime=$(BENCHTIME) -run='^$$' . | tee $(BENCHJSON) | \
		grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//;s/\\t/\t/g;s/\\n//' || true

# The benchmark regression gate (CI's bench-regression job, which
# passes the pull request's merge-base as -base): runs the gated
# benchmarks of HEAD and of the working tree alternately on this
# machine and fails (exit 1) when the working tree's minimum allocs/op
# is higher; ns/op is printed, not gated. `sh scripts/benchgate.sh
# -base REV` compares against another revision.
benchgate:
	sh scripts/benchgate.sh

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/minic/

# The benchmark module's end-to-end smoke test: builds mvpar, trains the
# -quick checkpoint, boots the real server for every workload, checks
# every answer bit for bit against an in-process classify and fails on
# any failed request. CI's benchmark-smoke job runs the same command.
smoke:
	cd benchmark && $(GO) test -run 'TestSmoke$$' -v ./...

verify: lint test
