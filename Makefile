# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test test-short vet lint race ci bench bench-svm bench-all bench-smoke bench-check compose-smoke chaos-smoke server-chaos-smoke errmodel-smoke fuzz-smoke fuzz-nightly ipasbench-test experiments experiments-paper examples clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Style + correctness gate: gofmt (fails listing unformatted files),
# go vet, and staticcheck when installed. staticcheck is optional
# locally (no network install here); CI installs it explicitly, so the
# gate is always enforced where it matters.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector run with shuffled test order; the campaign engine and
# the SVM training pipeline are concurrent (worker pools, journal
# writes, progress callbacks, cancellation), so this is the test mode
# that matters for them, and shuffling catches accidental inter-test
# ordering dependencies.
race:
	$(GO) test -race -shuffle=on -timeout=30m ./...

# The pre-push check: lint, race+shuffle tests, then every smoke suite
# in the same order as the CI workflow's matrix (see
# .github/workflows/ci.yml) — a green `make ci` is a green CI run.
ci: lint build race bench-check chaos-smoke server-chaos-smoke compose-smoke errmodel-smoke fuzz-smoke ipasbench-test

# Interpreter + campaign throughput benchmarks (the perf trajectory of
# the execution engine), recorded machine-readably in BENCH_interp.json.
# BenchmarkDeadlockDetection records structural deadlock-detection
# latency — the metric that replaced the former 10 s wall-clock wait.
# BenchmarkCampaignSetup records Prepare cold vs warm: the warm number
# is the golden-run cache's enforced win (breaking the cache turns a
# sub-millisecond hit into a full golden run, which benchdiff rejects).
# BenchmarkSectionedCampaignThroughput records sectioned-campaign
# trials/s next to BenchmarkCampaignThroughput's plain ones.
BENCH_INTERP = BenchmarkInterpreter|BenchmarkInterpreterInstrumented|BenchmarkCampaignThroughput|BenchmarkSectionedCampaignThroughput|BenchmarkCampaignSetup|BenchmarkDeadlockDetection
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_INTERP)' -benchtime=2s . \
		| $(GO) run ./cmd/bench2json -o BENCH_interp.json

# SVM training-pipeline benchmarks on the training set workflow-is
# trains on (internal/svm/testdata/train-IS.json): the quick-grid
# search (serial test oracle vs the pooled search, which exponentiates
# one kernel table over the distinct feature vectors per grid point)
# and one capped solve (flat row-at-a-time oracle vs the duplicate-row
# solver), recorded in BENCH_svm.json. The grid search runs a fixed
# iteration count because one search takes a second.
bench-svm:
	{ $(GO) test -run '^$$' -bench 'BenchmarkGridSearch' -benchtime=2x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchtime=50x ./internal/svm; } \
		| $(GO) run ./cmd/bench2json -o BENCH_svm.json

# Single-iteration smoke of the recorded benchmarks (what CI runs):
# proves they execute and leaves JSON reports for bench-check to diff.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_INTERP)' -benchtime=1x . \
		| $(GO) run ./cmd/bench2json -o bench_smoke_interp.json
	{ $(GO) test -run '^$$' -bench 'BenchmarkGridSearch' -benchtime=1x ./internal/svm && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSolve' -benchtime=5x ./internal/svm; } \
		| $(GO) run ./cmd/bench2json -o bench_smoke_svm.json

# Bench-regression gate: smoke-run the benchmarks and compare against
# the checked-in reference reports. The 10x tolerance is deliberately
# generous — it passes machine variance and fails order-of-magnitude
# regressions (see cmd/benchdiff).
bench-check: bench-smoke
	$(GO) run ./cmd/benchdiff -base BENCH_interp.json bench_smoke_interp.json
	$(GO) run ./cmd/benchdiff -base BENCH_svm.json bench_smoke_svm.json

# Each smoke target that selects tests by name lists them in one
# variable: a space-separated list of `go test -run` patterns, joined
# with | to run (run-pattern). require-tests fails before anything runs
# when one of them selects no test in the target's packages — a moved
# or renamed test would otherwise run as "no tests to run" and pass.
# Each pattern's top level (before its first /) is matched against the
# `go test -list` names unanchored, the way -run matches it; subtest
# parts are not checked. exact turns test names into anchored patterns.
empty :=
space := $(empty) $(empty)
run-pattern = $(subst $(space),|,$(strip $(1)))
exact = $(foreach t,$(1),^$(t)$$)
define require-tests
	@listed=$$($(GO) test -list . $(2)) || { echo "$$listed"; exit 1; }; \
	for p in $(foreach p,$(1),'$(p)'); do \
		echo "$$listed" | grep -E '^(Test|Fuzz|Example)' | grep -qE -- "$${p%%/*}" || \
			{ echo "$@: $$p matches no test in $(2)"; exit 1; }; \
	done
endef

# Sectioned-campaign differential smoke (what CI runs): the composed
# whole-program distribution must agree with a monolithic campaign on
# the two fastest workloads, an edited program must refuse the old
# program's journal, sectioned or plain, and match a fresh run
# (internal/compose/differential_test.go), and every workload's
# analytic sectioned and monolithic-equivalent trial counts must equal
# the recorded ones exactly, with a ≥5× aggregate reduction
# (internal/compose/trialcount_test.go) — the counts are
# machine-independent, so any allocation change fails here.
COMPOSE_TESTS = TestDifferentialComposedVsMonolithic/(FFT|IS) TestEditedProgramRefusesOldJournal TestSectionedTrialCounts
COMPOSE_PKGS = ./internal/compose
compose-smoke:
	$(call require-tests,$(COMPOSE_TESTS),$(COMPOSE_PKGS))
	$(GO) test -race -shuffle=on -count=1 -timeout=10m \
		-run '$(call run-pattern,$(COMPOSE_TESTS))' $(COMPOSE_PKGS)

# Crash/resume tests under the race detector: campaigns cancelled
# mid-run (plain and sectioned, per error model, and on a golden-cache
# hit) must resume to the bit-identical result, a torn journal tail is
# dropped, a structurally corrupt journal, plain or sectioned, or one
# holding a record its header could not have produced, is refused with
# its bytes untouched (see internal/fault/*_test.go), and
# a coordinator campaign killed again and again with its one journal
# torn, corrupted and deleted resumes to the result and journal of an
# uninterrupted local run, refusing an older build's shard journals
# untouched (internal/campaign/coordinator_test.go).
CHAOS_TESTS = $(call exact,TestCampaignCancelThenResumeBitIdentical TestJournalDiscardsTornTail TestModelCancelThenResumeBitIdentical TestGoldenCacheCancelResumeBitIdentical TestOpenJournalRefusesCorruptUntouched TestChaosCrashResumeBitIdentical)
CHAOS_PKGS = ./internal/fault/... ./internal/campaign
chaos-smoke:
	$(call require-tests,$(CHAOS_TESTS),$(CHAOS_PKGS))
	$(GO) test -race -shuffle=on -count=1 -run '$(call run-pattern,$(CHAOS_TESTS))' -timeout=10m $(CHAOS_PKGS)

# Chaos tests for the campaign coordinator under the race detector:
# worker processes SIGKILLed mid-shard, dropped heartbeats, leases
# expiring under slow workers, and a shard forced to retry exhaustion
# must all converge to the result and journal of a local single-loop
# run (see internal/campaign/chaos_test.go).
SERVER_CHAOS_TESTS = TestServerChaos
SERVER_CHAOS_PKGS = ./internal/campaign
server-chaos-smoke:
	$(call require-tests,$(SERVER_CHAOS_TESTS),$(SERVER_CHAOS_PKGS))
	$(GO) test -race -shuffle=on -run '$(call run-pattern,$(SERVER_CHAOS_TESTS))' -timeout=10m $(SERVER_CHAOS_PKGS)

# Error-model smoke under the race detector: the per-model determinism
# matrix (worker/shard/resume/remote invariance for every built-in
# model),
# the instrumented-loop-vs-reference-walker differential over
# masks/correlation/stickiness, journal forward-compat (unknown models
# refuse resume in every format), the iterative-convergence
# workloads' golden checks across every harness path (see "Error
# models" in DESIGN.md), and snapshot-resumed trials, plain and
# sectioned, against full re-execution for every workload and model
# (see "Fork-from-golden snapshots").
ERRMODEL_TESTS = Model TestDifferentialErrorModels TestTrialRecordsEffectiveBitAndMask TestConvergence TestSnapshotTrialsMatchFullRuns
ERRMODEL_PKGS = ./internal/interp ./internal/fault/... ./internal/campaign ./internal/workloads
errmodel-smoke:
	$(call require-tests,$(ERRMODEL_TESTS),$(ERRMODEL_PKGS))
	$(GO) test -race -shuffle=on -count=1 -timeout=10m \
		-run '$(call run-pattern,$(ERRMODEL_TESTS))' $(ERRMODEL_PKGS)

# Every fuzz target, as Name:package[:extra go test flags]. The
# differential oracle (fast loop vs instrumented loop vs
# snapshot-resumed run vs IR reference walker, plus a sectioned leg
# resuming a section-targeted run from section-tracked snapshots, and
# both armed runs repeated with site counting, which keeps them on the
# instrumented loop that a transient trial leaves after its flip) must
# agree on random programs and fault plans (FuzzDifferential); the
# simulated MPI runtime, under the race detector, must keep outcome
# classes schedule-independent and clean/deadlock results bit-identical
# on random rank programs with random comm patterns (FuzzMPISchedule);
# the duplicate-row SMO solver must return models bit-identical to the
# row-at-a-time oracle on small problems with forced duplicates
# (FuzzSolve); the IR parser irun reads .ir files with must return
# line-numbered errors, never panic, and round-trip what it accepts
# (FuzzParse); the sci front end campaignd compiles submitted source
# with must return a module or an error, never panic or generate
# invalid IR (FuzzCompile); and campaignd's spec admission must never
# panic and admit only specs whose campaign directory is one path
# element under the journal root, whose counts and hang factor stay in
# bounds, and whose defaults Normalize spells one way, unchanged by a
# second Normalize (FuzzSpec); and OpenJournal must never
# panic on arbitrary bytes, and the trials it restores must bind, fill
# a result and finalize without panicking (FuzzJournal).
FUZZ_TARGETS = \
	FuzzDifferential:./internal/interp \
	FuzzMPISchedule:./internal/interp:-race \
	FuzzSolve:./internal/svm \
	FuzzParse:./internal/ir \
	FuzzCompile:./internal/lang \
	FuzzSpec:./internal/campaign \
	FuzzJournal:./internal/fault

# fuzz-run fuzzes every FUZZ_TARGETS entry for $(1) each. Minimizing
# a new input is bounded at 5s so that it costs seconds, not the
# default minute, which starved the fuzzing budget itself; a crasher
# is still written to testdata/fuzz.
define fuzz-run
	@set -e; for entry in $(FUZZ_TARGETS); do \
		name=$${entry%%:*}; rest=$${entry#*:}; pkg=$${rest%%:*}; flags=; \
		case $$rest in *:*) flags=$${rest#*:};; esac; \
		echo "$(GO) test -run '^$$name\$$' -fuzz '^$$name\$$' -fuzztime $(1) -fuzzminimizetime 5s $$flags $$pkg"; \
		$(GO) test -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(1) -fuzzminimizetime 5s $$flags $$pkg; \
	done
endef

# Short fuzz smokes of every target; CI runs this. Run any target
# open-ended with a larger -fuzztime to go hunting.
fuzz-smoke:
	$(call fuzz-run,10s)

# Long-running fuzz of every target. The nightly CI job runs each for
# 10 minutes and uploads any crashers from testdata/fuzz as artifacts;
# FUZZTIME overrides the budget locally.
FUZZTIME ?= 10m
fuzz-nightly:
	$(call fuzz-run,$(FUZZTIME))

# Vet and test the repository benchmark (cmd/ipasbench). It is its own
# Go module, so the root `go test ./...` skips it; this builds it
# against the current internal packages.
ipasbench-test:
	$(GO) -C cmd/ipasbench vet ./... && $(GO) -C cmd/ipasbench test ./...

# One benchmark per paper table/figure plus component and ablation
# benches; writes bench_output.txt.
bench-all:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Regenerate every table and figure of the paper's evaluation at quick
# scale (about an hour on one core); -paper for full scale.
experiments:
	$(GO) run ./cmd/experiments -run all | tee quick_experiments_output.txt

experiments-paper:
	$(GO) run ./cmd/experiments -run all -paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customkernel
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/mpiscaling

clean:
	rm -f bench_output.txt test_output.txt bench_smoke_interp.json bench_smoke_svm.json
