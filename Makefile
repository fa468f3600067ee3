# Mirrors .github/workflows/ci.yml: `make lint test` is what CI runs.

GO ?= go

.PHONY: build test test-race test-full bench bench-json bench-check bench-record-smoke lint fmt doc-check riotvet smoke

build:
	$(GO) build ./...

# The short suite is what CI gates on (<5 minutes).
test:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/exec/ ./internal/buffer/

# Full suite, including the ~80s linear-regression plan-space search.
test-full:
	$(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The perf-trajectory micro-benchmarks, one row per `go test -bench` run:
#
#   file | package | -bench pattern | run flags (-benchtime / -benchmem)
#
# Rows naming the same file are concatenated into it. What each file
# tracks: BENCH_pool (in-order vs DAG schedule; buffer-pool ops with hit
# rate), BENCH_cache (LRU vs segmented hot-set hit rate under a flooding
# scan), BENCH_shard (sharded vs single-directory parallel reads),
# BENCH_replica (k-way write amplification, healthy vs degraded-fallback
# read latency), BENCH_remote (network block-service round trips vs a local
# dir, pipelined vs serial under device latency), BENCH_telemetry
# (instrumented vs no-op registry on the pipelined exec path — the two must
# stay within a few percent), BENCH_planner (full Apriori search vs budgeted
# greedy vs warm cache-served query), BENCH_stream (a result 4x the pool's
# capacity streamed with flat pool residency — the benchmark itself fails
# if the pool's high-water mark exceeds capacity).
define BENCH_TABLE
BENCH_pool.json      .                  BenchmarkParallelExec                            -benchtime 3x
BENCH_pool.json      ./internal/buffer  BenchmarkPool                                    -benchmem
BENCH_cache.json     ./internal/buffer  BenchmarkCachePolicy                             -benchmem
BENCH_shard.json     ./internal/storage BenchmarkShardedRead                             -benchtime 5x
BENCH_replica.json   ./internal/storage BenchmarkReplicatedWrite|BenchmarkDegradedRead   -benchtime 5x
BENCH_remote.json    ./internal/blockd  BenchmarkRemote                                  -benchtime 20x
BENCH_telemetry.json .                  BenchmarkTelemetryOverhead                       -benchtime 5x
BENCH_planner.json   .                  BenchmarkPlannerTiers                            -benchtime 3x
BENCH_stream.json    .                  BenchmarkStreamedResults                         -benchtime 20x
endef
export BENCH_TABLE
BENCH_FILES := $(sort $(filter BENCH_%,$(BENCH_TABLE)))

# Run every table row and convert each file's output to JSON (op, ns/op,
# extra metrics). CI uploads the files as artifacts and gates on them via
# bench-check. Each row runs separately so a failing benchmark fails the
# target.
bench-json:
	@rm -rf .bench-out && mkdir -p .bench-out
	@set -e; echo "$$BENCH_TABLE" | while read -r file pkg pat flags; do \
		echo "$(GO) test -run '^\$$' -bench '$$pat' $$flags $$pkg"; \
		$(GO) test -run '^$$' -bench "$$pat" $$flags $$pkg < /dev/null >> .bench-out/$$file.txt; \
	done
	@set -e; for file in $(BENCH_FILES); do \
		$(GO) run ./cmd/benchjson -out $$file < .bench-out/$$file.txt; \
	done
	@rm -rf .bench-out

# Bench-regression gate: stash the committed baselines, rerun the
# benchmarks, and fail on a >25% ns/op regression against any baseline.
# CI runs exactly this; refresh the committed BENCH_*.json to move a
# baseline deliberately.
bench-check:
	@mkdir -p .bench-base
	cp $(BENCH_FILES) .bench-base/
	$(MAKE) bench-json
	@set -e; for file in $(BENCH_FILES); do \
		$(GO) run ./cmd/benchjson -compare .bench-base/$$file $$file -tolerance 0.25; \
	done
	@rm -rf .bench-base

# Smoke-run the benchmark of record (benchmark/, BENCHMARK.json) on two of
# its workloads, once per pass (-trace 0: end-to-end metrics, -trace 1:
# per-layer): cold-plan, the planner's only end-to-end consumer, and
# spill-chain, the only one whose kernels run 64x64 blocks and whose pool
# evicts and writes back (cold-plan never gets past 8x8 or evicts a frame).
# An exported name the benchmark uses drifting, a request failing or an
# output missing the oracle fails here: non-zero exit, or failed > 0 in the
# result line (the last stdout line). The four result lines stay in
# .bench-record/ for the nightly workflow to upload.
bench-record-smoke:
	@rm -rf .bench-record && mkdir -p .bench-record
	@set -e; for workload in cold-plan spill-chain; do for trace in 0 1; do \
		out=.bench-record/$$workload.trace$$trace; \
		echo "$(GO) run ./benchmark -workload $$workload -seed 1 -trace $$trace"; \
		$(GO) run ./benchmark -workload $$workload -seed 1 -trace $$trace > $$out.log; \
		tail -n 1 $$out.log > $$out.json; \
		grep -q '"failed":0[,}]' $$out.json || { echo "bench-record-smoke: failed > 0 in $$out.json"; exit 1; }; \
	done; done

# Godoc completeness over the public surface: the facade, the planner
# (core/sched/cost), the storage and server layers, and the network
# plane. CI fails on any exported identifier without a doc comment, and
# on any relative markdown link in README/docs pointing at a missing
# file.
doc-check:
	$(GO) run ./cmd/doccheck . ./internal/core ./internal/sched ./internal/cost ./internal/storage ./internal/server ./internal/blockd ./internal/blockproto ./internal/telemetry
	$(GO) run ./cmd/doccheck -links README.md docs

# End-to-end fleet smoke test: 4 riotblockd + riotshared, query, kill a
# server, repair, restart against the persisted catalog.
smoke:
	./scripts/remote_smoke.sh

# riotvet is the project-invariant static-analysis suite (guarded-field
# locking, I/O under locks, context threading, error classification); see
# docs/static-analysis.md for the invariants and the annotation vocabulary.
# Also runnable through the vet driver: go vet -vettool=$(go env GOPATH)/bin/riotvet ./...
riotvet:
	$(GO) run ./cmd/riotvet ./...

# The one lint entry point: go vet, gofmt, the riotvet suite, and godoc
# completeness + docs link checking. CI runs exactly this.
lint: riotvet doc-check
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .
