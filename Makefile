# .github/workflows/ci.yml calls these targets: `make build lint test examples`
# in its build job and `make test-race` in its race job.

GO ?= go

.PHONY: build test test-race test-full bench bench-record-smoke examples lint fmt doc-check riotvet smoke

build:
	$(GO) build ./...

# The short suite is what CI gates on (<5 minutes).
test:
	$(GO) test -short ./...

# The race detector over the short suite (guards the pipelined executor and
# the shared pool), then the schedule-sensitive tests repeated: block
# ownership, failure-path pin release and admission order in exec, buffer
# and govern; read coalescing and concurrent reads and writes in storage;
# fairness, queue-wait stats, the tenant-label bound, result fetch from the
# pool, output sums taken by the final-write hook on DAG workers (against
# the stored output, across schedules, pools, stores and streams, and the
# read-back of a block no event writes, before or past the end of its
# file), streamed tenant attribution,
# streamed blocks against the whole fetch, a drop-retained stream waiting
# for its query, the write-once plan
# cache, one program shape filled once for fills at eight sizes, Close
# stopping an in-flight plan fill, a budgeted fill ending at its budget
# (in its search, and in the analysis of a 64-statement chain), lookups
# racing retirement, /metrics rendering the same Stats
# snapshot /stats serves, and a snapshot registering no series in the
# server; every plan of one analysis lowered from several goroutines at
# once, with each share's instance pairs enumerated once for all of them,
# in codegen; concurrent and sharded reads and writes through remote
# shards, the remote client's write-lock wait and pending depth under
# concurrent requests, and its dial slots under concurrent first requests,
# in blockd. The storage and stream tests drive the read-coalescing and
# stream-readiness maps, which are shared between goroutines; the blockd
# tests drive the pipelined remote-shard client, whose requests and
# replies encode and decode blocks on many connections at once.
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=5 ./internal/exec/ ./internal/buffer/ ./internal/govern/
	$(GO) test -race -count=5 -run 'TestCoalescedReadsShareOneRequest|TestConcurrentReadWrite' ./internal/storage/
	$(GO) test -race -count=5 -run 'Fairness|QueueWait|TenantLabel|ResultFetch|OutputSum|StreamAttributesTenant|TestStreamedResultsMatchWholeFetch|TestStreamRetainDropWaitsForQuery|PlanCacheConcurrentMiss|PlanShapeConcurrentSizes|CloseStopsPlanFill|BudgetedLongChain|BudgetedAnalysisEnds|RetirementRacesLookups|MetricsRenderStats|StatsRegistersNoSeries' ./internal/server/
	$(GO) test -race -count=5 -run 'TestLowerConcurrentEnumeratesSharesOnce' ./internal/codegen/
	$(GO) test -race -count=5 -run 'TestRemoteShardConcurrent|TestRemoteShardedMatchesLocalDirs|TestMixedLocalRemoteShards|TestRemoteWriteLockWaitAndPendingDepth|TestRemoteShardDialsAtMostPoolSize' ./internal/blockd/

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

# Run every program under examples/, then every §6 experiment in quick
# mode: quickstart and linreg execute their plans physically and check the
# numerics themselves, and Fig. 3(b), 4, 5, 6 and the system comparison
# execute physically; each Fig. 3(b)-6 run fails if the store's I/O
# differs from the plan's prediction. `make test` is -short, which skips
# TestFigureRunners, so this is the CI job that runs them. A non-zero exit
# from any fails the target.
examples:
	@set -e; for ex in quickstart linreg twomm userop; do \
		echo "$(GO) run ./examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null; \
	done
	$(GO) run ./cmd/riotshare exp > /dev/null

# Godoc completeness over every package of the module (go list ./...), so
# a new package is covered without editing this target. CI fails on any
# exported identifier without a doc comment, and on any relative markdown
# link in README/docs pointing at a missing file.
doc-check:
	$(GO) run ./cmd/doccheck $$($(GO) list -f '{{.Dir}}' ./...)
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
