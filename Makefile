# Mirrors .github/workflows/ci.yml: `make lint test` is what CI runs.

GO ?= go

.PHONY: build test test-race test-full bench bench-record-smoke lint fmt doc-check riotvet smoke

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

# The go test micro-benchmarks, for running by hand: the paper-figure
# regenerators and component timings. Nothing gates on them; performance
# claims are made with the benchmark of record (benchmark/, BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Smoke-run the benchmark of record (benchmark/, BENCHMARK.json) on all four
# of its workloads, once per pass (-trace 0: end-to-end metrics, -trace 1:
# per-layer). An exported name the benchmark uses drifting, a request
# failing or an output missing the oracle fails here: non-zero exit, or
# failed > 0 in the result line (the last stdout line). The eight result
# lines stay in .bench-record/ for the nightly workflow to upload.
bench-record-smoke:
	@rm -rf .bench-record && mkdir -p .bench-record
	@set -e; for workload in cold-plan hot-shared spill-chain remote-stream; do for trace in 0 1; do \
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
