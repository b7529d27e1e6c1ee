# DITA build/test entry points. `make check` is the CI gate: static
# analysis, the full test suite under the race detector twice in one
# process (race2), the fuzz smoke and the benchmark module's own test.

GO ?= go

.PHONY: build test race race2 vet fmt-check staticcheck chaos knn snap ingest serve rebalance autopilot fuzz check soak serve-soak bench bench-smoke bench-kernels bench-diff

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean. .bench_build/ holds extracted
# copies of other commits (bench-diff), which are not this tree's to format.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/' || true); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# staticcheck runs only when installed — the build environment is
# offline, so the tool cannot be fetched on demand.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

race:
	$(GO) test -race ./...

# The test pass of `make check`: every test under the race detector, twice
# in one process. -count=2 defeats the test cache, and the second run is
# what catches a failure that needs state left over from a prior in-process
# run — which the chaos, kNN, snapshot, ingest, serving, rebalance and
# autopilot suites are required to survive. Until PR 30 `check` ran `race`
# and then those seven targets below, each `-race -run <filter> -count=2`
# over packages `race` had just run in full: a test ran once, three times,
# or — matching two filters — five. Measured on the 2-core build box:
# race 82 s + the seven 142 s = 224 s of a 6 m 06 s `make check`; race2
# 144 s on the same tree, and `make check` 5 m 10 s with PR 30's own tests
# in it. The seven stay as a developer's shortcuts to one suite; `check`
# no longer names them.
race2:
	$(GO) test -race -count=2 ./...

# Chaos tests re-run (-count=2 defeats the test cache) to catch failures
# that only appear with state left over from a prior in-process run.
chaos:
	$(GO) test -race -run Chaos -count=2 ./...

# kNN differential tests (the best-first traversal and its envelope bound
# against the recursive descent and the kernels, best-first engine vs brute
# force locally, dnet vs local over live TCP workers incl. a chaos worker
# kill) rerun under the race detector; -count=2 defeats the cache like the
# chaos target.
knn:
	$(GO) test -race -run 'KNN|BestFirst|Envelope' -count=2 ./internal/trie ./internal/core ./internal/dnet

# Snapshot persistence tests: format round-trip/corruption detection,
# serialized-trie integrity, engine cold start, and the dnet
# cold-restart/heal chaos paths — rerun under the race detector,
# -count=2 to defeat the cache.
snap:
	$(GO) test -race -run 'Snap|Snapshot|ColdStart|RetainPayloads|Serial' -count=2 \
		./internal/snap ./internal/trie ./internal/core ./internal/dnet

# Streaming-ingest tests: WAL append/replay/torn-tail handling, the
# partition store both hosts hold (apply, fold, view), engine
# insert/delete/merge differential checks, and the dnet ingest paths
# (replication-before-ack, kill-restart replay, backpressure, seq
# seeding, a search beside a parked fold) — rerun under the race detector,
# -count=2 to defeat the cache.
ingest:
	$(GO) test -race -run 'Ingest|WAL|Replay|Merge|Backpressure|Store|Fold|View|Route' -count=2 \
		./internal/wal ./internal/core ./internal/dnet

# Serving-layer tests: the result-cache/coalescing/shedding stack plus
# the cost-gate admission primitive — including the cache-vs-ingest
# differential against a live 2-worker cluster — rerun under the race
# detector, -count=2 to defeat the cache.
serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/admit/

# Online re-partitioning tests: the engine split/merge/planner
# differential suite, the dnet live-cluster cutover suite (all five
# measures, concurrent writes racing cutovers, abort-never-a-mix), and
# the coordinator-recovery regressions — rerun under the race detector,
# -count=2 to defeat the cache.
rebalance:
	$(GO) test -race -run 'Rebalance|Repartition|Recover|CutoverAbort' -count=2 \
		./internal/str ./internal/core ./internal/dnet

# Rebalancing-autopilot differential suite: the cost tracker/planner
# unit gates, the planner single-snapshot race regression, the rotated
# read-spread and failover-ordering contracts, and the live-cluster
# skewed-read differential (autopilot acts on its own; answers stay
# byte-identical to an autopilot-disabled run) — under the race
# detector, -count=2 to defeat the cache.
autopilot:
	$(GO) test -race -count=2 \
		-run 'CostTracker|CostHot|AutopilotCostSplit|SearchFeedsCost|ConvergenceBudget|SingleSnapshotRace|ReadSpread|AutopilotSkewed' \
		./internal/core ./internal/dnet

# Short coverage-guided fuzz smoke of every parser that takes untrusted
# input (CSV trajectory loader, SQL lexer/parser, snapshot decoder, WAL
# replay), of the threshold-DTW kernel's accept ⇔ Distance <= tau contract
# and of the kNN envelope bound's bound <= Distance one. -run='^$$' skips the
# unit tests so only the fuzz engine runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/traj
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/sqlx
	$(GO) test -run='^$$' -fuzz=FuzzLexer -fuzztime=$(FUZZTIME) ./internal/sqlx
	$(GO) test -run='^$$' -fuzz=FuzzSnapshot -fuzztime=$(FUZZTIME) ./internal/snap
	$(GO) test -run='^$$' -fuzz='FuzzWALReplay$$' -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz='FuzzWALReplayRaw$$' -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzRepartitionPlan -fuzztime=$(FUZZTIME) ./internal/str
	$(GO) test -run='^$$' -fuzz=FuzzDTWThreshold -fuzztime=$(FUZZTIME) ./internal/measure
	$(GO) test -run='^$$' -fuzz=FuzzEnvelopeBound -fuzztime=$(FUZZTIME) ./internal/trie
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinary -fuzztime=$(FUZZTIME) ./internal/trie

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The repository benchmark (bench/) is a nested module that `go test
# ./...` skips, yet it compiles against internal/... and counts spans by
# name: its own smoke test (all four workloads at N=4 000, answers checked
# against brute force, ~6 s) is what catches an internal rename or a wrong
# answer before the benchmark driver does.
bench-smoke:
	$(GO) test -C bench .

# Micro-benchmarks of the verification hot path on pairs shaped like its
# real input (gen.VerifyWorkloads): exact DTW beside the pruned threshold
# kernel in production, and the Verifier cascade around it — of the join
# that runs it most, the repository benchmark's 12 k self-join, with the
# symmetric plan (self) and without (twoEngines) — and of where a search's
# points lie: one search pool on a built engine and on that engine restored
# from its own images (EngineSearchLayout). EXPERIMENTS.md records the
# numbers per kernel or layout change.
KERNEL_BENCHTIME ?= 20000x
JOIN_BENCHTIME ?= 10x
LAYOUT_BENCHTIME ?= 10000x
bench-kernels:
	$(GO) test -run='^$$' -bench='DTWThreshold' -benchmem -benchtime=$(KERNEL_BENCHTIME) ./internal/measure
	$(GO) test -run='^$$' -bench='VerifyFullCascade' -benchmem -benchtime=$(KERNEL_BENCHTIME) ./internal/core
	$(GO) test -run='^$$' -bench='SelfJoin' -benchmem -benchtime=$(JOIN_BENCHTIME) ./internal/core
	$(GO) test -run='^$$' -bench='EngineSearchLayout' -benchmem -benchtime=$(LAYOUT_BENCHTIME) ./internal/core

# The measurement behind a performance claim: N alternating pairs of the
# repository benchmark on two refs, each extracted into its own tree under
# .bench_build/diff/, printed as the median / quartiles / pairs-won table
# EXPERIMENTS.md and BENCH_HISTORY.jsonl are filled from (cmd/benchdiff).
# A and B are any tree-ish: B=$$(git write-tree) after `git add -A`
# measures a change that is staged but not yet committed.
N ?= 10
SEED ?= 501
bench-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-diff A=<parent ref> B=<change ref> [N=10] [SEED=501] [WORKLOADS=w,...]"; exit 2; }
	$(GO) run ./cmd/benchdiff -a $(A) -b $(B) -n $(N) -seed $(SEED) -workload "$(WORKLOADS)"

check: fmt-check vet staticcheck race2 fuzz bench-smoke

# 30-second soak: dita-net's cancelled-query churn workload against
# in-process workers running under fault injection (-chaos). Exits
# non-zero if any query fails with something other than a clean
# lifecycle outcome (done / deadline / cancelled / overloaded).
soak:
	./scripts/soak.sh

# Serving-layer soak: dita-serve over loopback workers under a mixed
# load (stale-hit detection against bypass queries, served-p99 SLO),
# then an overload phase that must shed with typed 429/503. Reports
# land in SERVE_REPORT_DIR when set.
serve-soak:
	./scripts/serve_soak.sh
