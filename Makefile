GO ?= go

.PHONY: all build test vet fmt-check race churn-claims bench-check verify fuzz-ci bench-smoke bench-loadlatency bench-churn bench-cluster clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt-check:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# Race-check the packages that start goroutines: the sweep runner's and
# the fuzz campaign's worker pools, the metrics instruments they sample,
# and the multi-NPU cluster scheduler's shared balancer and epoch
# barriers. The simulator itself (./internal/ixp/) is single-goroutine.
race:
	$(GO) test -race ./internal/harness/ ./internal/metrics/ ./internal/cluster/

# The dynamic-control-plane and shared-compile gate, run explicitly (and
# with -count=1, so a cached `test` result can never mask a regression):
# SWC delayed-update coherency under an update storm, rule-flip
# convergence, churn report determinism, and the two ways a compile reuses
# another's work held byte-identical to a cold compile — the incremental
# Session and the level ladder every differential compiles through.
churn-claims:
	$(GO) test -count=1 -run \
		'TestSWCCoherencyUnderChurnStorm|TestFirewallRuleFlipConverges|TestIncrementalPacketDifferential|TestSessionChurnSequenceMatchesCold|TestLadderMatchesCold|TestChurnDeterminism' \
		./internal/harness/

# The repository benchmark (bench/, its own module, so the root ./...
# never builds it) calls this module's public functions. Its self-tests
# plus a one-second-per-workload pass over all six workloads fail here
# when a refactor renames or removes something it uses, instead of at
# the next benchmark run. -smoke writes no history entry; its traces
# land in bench/out/, which is ignored. The compile side's layer
# benchmarks (scalar optimizer, liveness, functional profiler, the fuzz
# differential, a Session recompile against CompileIR) run once each for
# the same reason: so they cannot rot, and so do the simulator's two
# (the event core's zero-alloc round trip, and the stall tracer's cost
# against tracing off).
bench-check:
	$(GO) -C bench test ./...
	$(GO) -C bench run . -smoke
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/opt/ ./internal/analysis/ ./internal/profiler/ ./internal/harness/ ./internal/driver/
	$(GO) test -run xxx -bench 'BenchmarkEventCore$$|BenchmarkTracerOverhead' -benchtime 1x ./internal/ixp/

# Tier-1 verification: everything CI gates on. `test` includes the
# checked-in fuzz-corpus replay (internal/harness/testdata/fuzz-corpus),
# so every previously minimized compiler-bug reproducer re-runs through
# the full differential oracle on each verify.
verify: build vet fmt-check test race churn-claims

# Compiler-fuzzing gate (10-12 s after the build on the 2-vCPU reference
# VM, 42-52 programs/s; 17-23 s before the level ladder): 500 seeded
# random Baker programs, each compiled at every cumulative optimization
# level and checked packet-for-packet against the host reference
# interpreter, plus one invalid mutant per program through the frontend
# negative checker. The seed is fixed so a red run replays exactly:
#   go run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242
# Campaign stats (programs/sec, feature histogram, minimized failures)
# land in fuzz_report.json for CI to archive.
fuzz-ci: build
	$(GO) run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242 \
		-report fuzz_report.json
	@test -s fuzz_report.json && echo "fuzz-ci: report OK"

# Quick end-to-end pass over the evaluation binary: short windows, report
# written to a scratch location.
bench-smoke: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment table1 -report /tmp/bench_report.json
	@test -s /tmp/bench_report.json && echo "bench-smoke: report OK"

# Short load-latency sweep: goodput/drop/latency curves per app at BASE
# and the -O default (+SWC), exported into the bench report with stall
# breakdowns, plus one representative run as a Chrome trace_event file.
bench-loadlatency: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment loadlatency -stalls \
		-report bench_report.json -trace trace.json
	@test -s bench_report.json && echo "bench-loadlatency: report OK"
	@test -s trace.json && echo "bench-loadlatency: trace OK"

# Short churn experiment: per-app goodput/latency timelines under a
# control-plane update storm plus the full-vs-incremental compile-latency
# comparison, written to its own report so CI can archive the timelines.
bench-churn: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment churn -report churn_report.json
	@test -s churn_report.json && echo "bench-churn: report OK"

# Short multi-NPU cluster experiment: goodput scaling at doubling chip
# counts plus the chip-drain scenario on a 4-chip line card, every chip
# advancing on its own worker, written to its own report so CI can
# archive the topology and per-chip series.
bench-cluster: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment cluster -chips 4 -workers 4 \
		-report cluster_report.json
	@test -s cluster_report.json && echo "bench-cluster: report OK"

clean:
	rm -f bench_report.json trace.json churn_report.json cluster_report.json fuzz_report.json
