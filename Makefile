# Standard-library-only Go module; every target is pure `go` tooling.

GO ?= go

# Packages with new concurrency (worker pool, plan cache, parallel sweeps,
# streaming planner, fault injector, cyberphysical runtime, the parallel
# mixer-binding search, the transport-matrix cache, the observability
# registry, the synchronized engine, the HTTP serving core, the memoised
# graph fingerprints, the pooled packed planning kernels, the distributed
# artifact/cluster tier and the error-model analysis shared by concurrent
# plan requests) — raced explicitly by `make race`.
CONCURRENT_PKGS := ./internal/parallel ./internal/plancache ./internal/lru ./internal/experiments ./internal/stream ./internal/synth ./internal/faults ./internal/runtime ./internal/exec ./internal/route ./internal/obs ./internal/audit ./internal/core ./internal/server ./internal/mixgraph ./internal/forest ./internal/sched ./internal/wal ./internal/fleet ./internal/contam ./internal/artifact ./internal/cluster ./internal/errormodel ./cmd/dmfbd

.PHONY: build test race vet fmt-check perfbench-test bench-smoke bench-cold bench-record bench-gate bench-runs results-check bench-serve bench-error-smoke bench-fleet-smoke bench-cluster-smoke fuzz-smoke audit-smoke serve-smoke chaos-smoke chaos-migrate-smoke check clean

build:
	$(GO) build ./...

# Includes the frozen fixtures that gate the planner (TestPlannerGolden)
# and the chip layer's routing, placement, Fig. 5 and concurrent-routing
# results (TestChipGolden); rewrite them with -update only for an intended
# change.
test:
	$(GO) test ./...

race:
	$(GO) test -race $(CONCURRENT_PKGS)

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The benchmark harness under perfbench/ is a Go module of its own, so
# `go test ./...` above never reaches it: vet it and run its tests (generator
# determinism, histogram quantiles, one short traced run of every workload
# that must be correct and leave nothing running), about 10 s.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One fast iteration of every benchmark — verifies the harness wiring without
# waiting on real measurement runs.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# The dmfbd planning path replayed in process (no HTTP client, no
# perfbench harness), with allocation counts: cold requests (distinct
# PaperDataset specs past every cache), then hot ones (plan-hot's protocol
# specs, every one a plan-cache hit), then the cold engine-setup stage
# alone (core.New on an empty base-graph cache), the plan audit
# (audit.CheckPacked) on PCR16 and Ex.1 plans, and the error-aware
# selection of Ex.1, uncached (/cold) and on a warm plan cache (/warm).
# Add -cpuprofile/-memprofile to profile any of them.
bench-cold:
	$(GO) test ./internal/server -run '^$$' -bench 'ColdPlanRequest|HotPlanRequest' -benchmem -benchtime 5000x
	$(GO) test ./internal/core -run '^$$' -bench ColdEngineSetup -benchmem -benchtime 2000x
	$(GO) test ./internal/audit -run '^$$' -bench CheckPacked -benchmem -benchtime 2000x
	$(GO) test ./internal/stream -run '^$$' -bench ErrorAwareSelection -benchmem -benchtime 20000x

# Record the stage and end-to-end benchmarks of ROADMAP item 15 in
# BENCH_$(PR).json (`make bench-record PR=N`): per benchmark, the median,
# min and max of ns/op, B/op, allocs/op and any reported metric (B/entry)
# over five runs, with the Go version, GOMAXPROCS and CPU model
# (cmd/benchrecord). BenchmarkPersistentRequest runs a pinned 4000
# Requests, as its untimed engine growth otherwise takes minutes, and
# BenchmarkColdEngineSetup a pinned 2000 setups, the count bench-cold
# runs, so allocs/op never compares runs of different lengths.
# BenchmarkColdPlanRequest's allocs/op moves by one or two from run to run
# (a garbage collection empties the sync.Pools its requests borrow
# scratch from), so it runs BENCH_COLD_COUNT times, enough for the
# record's min-max to cover that spread. About six minutes in all.
BENCH_COUNT ?= 5
BENCH_COLD_COUNT ?= 20
BENCH_RECORD = -run '^$$' -benchmem -count $(BENCH_COUNT)
bench-record:
	@test -n "$(PR)" || { echo "usage: make bench-record PR=<number>" >&2; exit 2; }
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(MAKE) --no-print-directory bench-runs BENCH_OUT="$$tmp/out"; \
	$(GO) run ./cmd/benchrecord -pr $(PR) -commit "$$(git describe --always --dirty)" <"$$tmp/out" >"$$tmp/record.json"; \
	mv "$$tmp/record.json" BENCH_$(PR).json; \
	echo "bench-record: wrote BENCH_$(PR).json"

# Gate allocs/op: run what bench-record runs, at the same pinned
# -benchtimes, once each, and fail unless every benchmark is in the newest
# committed BENCH_*.json and its allocs/op lies within that record's
# min-max (cmd/benchrecord -check). ns/op is not gated. About a minute.
bench-gate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(MAKE) --no-print-directory bench-runs BENCH_COUNT=1 BENCH_COLD_COUNT=1 BENCH_OUT="$$tmp/out"; \
	$(GO) run ./cmd/benchrecord -check "$$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 1)" <"$$tmp/out"

# The benchmark runs behind bench-record and bench-gate, BENCH_COUNT runs
# each (BenchmarkColdPlanRequest BENCH_COLD_COUNT), appended to the file
# BENCH_OUT.
bench-runs:
	@test -n "$(BENCH_OUT)" || { echo "usage: make bench-runs BENCH_OUT=<file>" >&2; exit 2; }
	@set -e; \
	$(GO) test $(BENCH_RECORD) -bench ColdEngineSetup -benchtime 2000x ./internal/core >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench WarmPlanRequest ./internal/core >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench PersistentRequest -benchtime 4000x ./internal/core >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench BuildPacked ./internal/forest >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench Kernel ./internal/sched >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench CheckPacked ./internal/audit >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench 'ColdDemandScan|ErrorAwareSelection' ./internal/stream >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench RunObsDisabled ./internal/runtime >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench '^BenchmarkBuild$$' ./internal/rsm >>"$(BENCH_OUT)"; \
	$(GO) test $(BENCH_RECORD) -bench HotPlanRequest ./internal/server >>"$(BENCH_OUT)"; \
	$(GO) test -run '^$$' -benchmem -count $(BENCH_COLD_COUNT) -bench ColdPlanRequest ./internal/server >>"$(BENCH_OUT)"

# Short fuzzing passes over the parser, the forest builder, the planner
# (plan audit, window audit, Pack/Materialize round trip, multi-pass plans
# under a storage budget against a direct reference), the persistent pool
# (random Request sequences under a storage budget against an engine fed
# only the Requests that succeeded), the paper mixer count (the closed form
# over a ratio's bits against sched.Mlb of its built MM tree), the WAL
# replayer, the session-adopt snapshot decoder, the artifact decoder, dmfbd's request
# path (every /v1 route: no panic, no 500, no hang) and the -peers parser —
# enough to replay the corpora and explore a little, not a soak run.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseRatio -fuzztime=10s ./internal/ratio
	$(GO) test -fuzz=FuzzBuildForest -fuzztime=10s ./internal/forest
	$(GO) test -fuzz=FuzzPlan -fuzztime=10s ./internal/stream
	$(GO) test -fuzz=FuzzPersistent -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzPaperMixers -fuzztime=10s ./internal/core
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s ./internal/wal
	$(GO) test -fuzz=FuzzAdoptSnapshot -fuzztime=10s ./internal/server
	$(GO) test -fuzz=FuzzArtifactDecode -fuzztime=10s ./internal/artifact
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=10s ./internal/server
	$(GO) test -fuzz=FuzzParsePeers -fuzztime=10s ./internal/cluster

# End-to-end audit smoke: drive the CLIs through planning, streaming, fault
# recovery and dilution with the invariant auditor live (it is always on) and
# the metrics/trace exporters enabled. Any audit violation makes the binary
# exit non-zero, failing this target. Artifacts go to a throwaway tmp dir.
audit-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/mdst -ratio 2:1:1:1:1:1:9 -demand 20 -metrics -trace "$$tmp/mdst.jsonl" >/dev/null; \
	$(GO) run ./cmd/mdst -ratio 2:1:1:1:1:1:9 -demand 32 -storage 3 -sched SRS -metrics >/dev/null; \
	$(GO) run ./cmd/chipsim -faults 0.05 -seed 3 -metrics -tracefile "$$tmp/chipsim.jsonl" >/dev/null; \
	$(GO) run ./cmd/chipsim -deadmixer M3:2 -metrics >/dev/null; \
	$(GO) run ./cmd/dilute -num 3 -depth 4 -demand 8 -sched SRS >/dev/null; \
	test -s "$$tmp/mdst.jsonl" && test -s "$$tmp/chipsim.jsonl"; \
	echo "audit-smoke: all runs audited clean"

# Regenerate the committed result tables (Table 2, Table 4, Fig. 6, Fig. 7,
# E13) into a throwaway directory and require each CSV to match
# results/ byte for byte (~10 s).
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/experiments -table2 -table4 -fig6 -fig7 -e13 -csvdir "$$tmp" >/dev/null; \
	for f in table2 table4 fig6 fig7 e13_error_aware; do cmp "results/$$f.csv" "$$tmp/$$f.csv"; done; \
	echo "results-check: results/*.csv regenerate byte-identical"

# dmfbd load-test run: boots the serving core in-process, drives every
# endpoint scenario at fixed concurrency, writes latency/throughput
# percentiles to results/bench_serve.json (EXPERIMENTS §E9).
bench-serve:
	$(GO) run ./cmd/benchserve -out results/bench_serve.json

# Fast wiring check for the fleet scenarios only: a small /v1/assay run on a
# healthy fleet and on one with 25% of its chips degraded, asserting the
# churn throughput floor. Writes to a throwaway file.
bench-fleet-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/benchserve -requests 0 -assay-requests 150 -churn-sessions 0 -out "$$tmp/bench_fleet.json"; \
	echo "bench-fleet-smoke: churn floor held"

# Fast wiring check for the multi-node scenarios only: a 3-node in-process
# cluster shares one pool of plan keys and the harness asserts fleet-wide
# cold builds stay within the build-ratio ceiling (owner builds once) and
# that warm cross-node adoption beats a cold build; then the membership-churn
# scenario takes one member out of the ring mid-run and asserts zero lost
# batches, zero artifact rebuilds and zero background errors. Writes to a
# throwaway file.
bench-cluster-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	$(GO) run ./cmd/benchserve -requests 0 -assay-requests 0 -cluster-requests 300 -cluster-keys 20 -out "$$tmp/bench_cluster.json"; \
	echo "bench-cluster-smoke: cold-build ceiling, warm adoption, churn invariants held"

# Error-model smoke: the invariants the error-aware planner rests on — the
# closed-form bound dominates Monte-Carlo on every protocol × algorithm, the
# graph pass equals the per-task forest walk on every task and demand of the
# whole PaperDataset × MM/RMA/MTCS/RSM (DESIGN §14; `go test` checks a
# sample, -sweep every ratio, ~20 s), and the E13 sweep shows the aware
# planner beating the blind one at the ι=0.05 acceptance point — plus one
# iteration of the analysis/selection benchmarks to keep the harness wired.
bench-error-smoke:
	$(GO) test -run 'TestAnalyticDominatesMonteCarlo' ./internal/errormodel
	$(GO) test -run 'TestGraphPassMatchesForestWalk' ./internal/errormodel -sweep
	$(GO) test -run 'TestE13AwareBeatsBlindUnderNoise' ./internal/experiments
	$(GO) test -run XXX -bench 'BenchmarkAnalyze|BenchmarkErrorAwareSelection' -benchtime 1x ./internal/errormodel ./internal/stream
	@echo "bench-error-smoke: analytic bound dominates, aware planner beats blind"

# Serving smoke: boot dmfbd on an ephemeral port, hit every endpoint, then
# SIGTERM and assert a clean graceful drain — exactly the cmd-level
# integration test, run with the race detector on.
serve-smoke:
	$(GO) test -race -run 'TestServeSmokeAndDrain' ./cmd/dmfbd
	@echo "serve-smoke: boot, all endpoints, graceful drain OK"

# Crash-recovery soak: SIGKILL a real dmfbd child mid-stream, restart it on
# the same WAL, and assert no acknowledged batch is ever silently lost —
# CHAOS_CYCLES kill/restart rounds, race detector on for the harness side.
# (`go test ./cmd/dmfbd` runs the same test at 3 cycles.)
chaos-smoke:
	CHAOS_CYCLES=50 $(GO) test -race -run 'TestChaosKillRestartRecovery' -timeout 10m ./cmd/dmfbd
	@echo "chaos-smoke: 50 kill/restart cycles, no acked work lost"

# Cluster-migration chaos: a 3-node dmfbd fleet of real processes, the
# session's ring owner SIGKILLed mid-stream, restarted on its WAL, and the
# recovered session migrated to a survivor — the continued timeline must be
# bit-identical and the old owner must redirect. Race detector on.
chaos-migrate-smoke:
	$(GO) test -race -run 'TestChaosMigrateKillOwner' -timeout 5m ./cmd/dmfbd
	@echo "chaos-migrate-smoke: owner killed, session migrated, timeline bit-identical"

check: build vet fmt-check test perfbench-test race bench-smoke bench-gate results-check bench-error-smoke fuzz-smoke audit-smoke serve-smoke chaos-smoke chaos-migrate-smoke bench-fleet-smoke bench-cluster-smoke

clean:
	$(GO) clean
	rm -f *.test
