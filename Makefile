GO ?= go

.PHONY: all build test vet fmt-check race churn-claims bench-check verify examples fuzz-ci bench-smoke clean

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

# -race runs only where goroutines start: metrics and cluster whole, and
# the harness tests that reach a starter. Sweep's pool: TestSweep*,
# TestLoadLatency*, TestPaperClaimsStallAttribution (via LoadLatency).
# RunFuzz's pool: TestFuzzCampaign, TestFuzzBudget. A multi-worker
# (*Cluster).advance: TestClusterDeterminism. t.Parallel subtests:
# TestEngineDifferentialParallel, TestAppsPacketDifferential,
# TestFuzzCorpusReplay, TestLadderMatchesCold.
race:
	$(GO) test -race ./internal/metrics/ ./internal/cluster/
	$(GO) test -race -run 'TestSweep|TestLoadLatency|TestPaperClaimsStallAttribution|TestFuzzCampaign|TestFuzzBudget|TestClusterDeterminism|TestEngineDifferentialParallel|TestAppsPacketDifferential|TestFuzzCorpusReplay|TestLadderMatchesCold' ./internal/harness/

# The control-plane and shared-compile claims as a named subset for
# running alone (`test` runs them too): SWC delayed-update coherency under
# an update storm, rule-flip convergence, churn report determinism, and
# the incremental Session and the level ladder held equal to cold compiles
# (in the harness over delta sequences and packets, in the driver for one
# delta per app at every level).
churn-claims:
	$(GO) test -count=1 -run \
		'TestSWCCoherencyUnderChurnStorm|TestFirewallRuleFlipConverges|TestIncrementalPacketDifferential|TestSessionChurnSequenceMatchesCold|TestLadderMatchesCold|TestChurnDeterminism' \
		./internal/harness/
	$(GO) test -count=1 -run 'TestSessionIncrementalMatchesColdAllAppsAllLevels' ./internal/driver/

# The repository benchmark (bench/, its own module, so the root ./...
# never builds it) calls this module's public functions. Its self-tests
# plus a one-second-per-workload pass over all six workloads fail here
# when a refactor renames or removes something it uses, instead of at
# the next benchmark run. -smoke writes no history entry; its traces
# land in bench/out/, which is ignored. The compile side's layer
# benchmarks (scalar optimizer, SOAR, PAC, liveness, register allocator,
# functional profiler, the fuzz differential, a Session recompile against
# CompileIR, profile-trace generation, re-fingerprinting a frozen state) run once
# each for the same reason: so they cannot rot, and so do the latency
# histogram's fill from empty and the simulator's three (the event core's
# zero-alloc round trip on compute and on the blocking path, and the stall
# tracer's cost against tracing off).
bench-check:
	$(GO) -C bench test ./...
	$(GO) -C bench run . -smoke
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/opt/ ./internal/opt/soar/ ./internal/opt/pac/ ./internal/analysis/ ./internal/cg/ ./internal/profiler/ ./internal/harness/ ./internal/driver/ ./internal/apps/ ./internal/ir/ ./internal/metrics/
	$(GO) test -run xxx -bench 'BenchmarkEventCore$$|BenchmarkEventCoreBlocking|BenchmarkTracerOverhead' -benchtime 1x ./internal/ixp/

# Tier-1 verification: everything CI gates on, every test run once.
verify: build vet fmt-check test race

# The four example programs run end to end (each about 0.2 s once built):
# boot through Runtime.Boot / Session.Boot, scheduled route changes whose
# ScheduleUpdates counts the l3switch example checks, and functional and
# compiled runs of each app. Any nonzero exit fails the target.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/l3switch
	$(GO) run ./examples/mpls
	$(GO) run ./examples/firewall

# Fuzzing gate. First the compiler campaign (10-12 s after the build on
# the 2-vCPU reference VM, 42-52 programs/s; 17-23 s before the level
# ladder): 500 seeded
# random Baker programs, each compiled at every cumulative optimization
# level and checked packet-for-packet against the host reference
# interpreter, plus one invalid mutant per program through the frontend
# negative checker. The seed is fixed so a red run replays exactly:
#   go run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242
# Campaign stats (programs/sec, feature histogram, minimized failures)
# land in fuzz_report.json for CI to archive. Then 10 s of Go's native
# fuzzing of the host packet model (FuzzPacketOps: op sequences on New,
# NewZero and arena packets against a byte-slice model), then 10 s of
# FuzzVerifyExec (single mutations of lowered bakergen functions: each is
# refused by ir.VerifyFunc, and by the executor with the same error, or
# runs without a panic), then 10 s of FuzzImage (single mutations of
# compiled ME images: each is refused by the machine's load, which runs
# cg.Verify, or runs 20,000 cycles without a panic). Each leg minimizes a
# new input for at most 1 s (Go's default is 60 s, which spent the rest of
# a 10 s window on the first new input). A failing input is written under
# the package's testdata/fuzz/<target>, where the tier-1 tests replay it.
fuzz-ci: build
	$(GO) run ./cmd/shangrila-bench -experiment fuzz -fuzz-n 500 -fuzz-seed 4242 \
		-report fuzz_report.json
	@test -s fuzz_report.json && echo "fuzz-ci: report OK"
	$(GO) test -run '^$$' -fuzz '^FuzzPacketOps$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyExec$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/profiler
	$(GO) test -run '^$$' -fuzz '^FuzzImage$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/rts

# Quick end-to-end pass over the evaluation binary, into one report CI
# archives: Table 1, the load-latency sweep (BASE and the -O default,
# +SWC), the churn timelines under a control-plane update storm with the
# full-vs-incremental compile-latency comparison, and the 4-chip cluster's
# goodput scaling and chip drain, every chip advancing on its own worker;
# short windows, stall breakdowns on every sweep point, and one
# representative run as a Chrome trace_event file.
bench-smoke: build
	$(GO) run ./cmd/shangrila-bench -quick -experiment table1,loadlatency,churn,cluster -stalls -workers 4 \
		-trace trace.json -report bench_report.json
	@test -s bench_report.json && echo "bench-smoke: report OK"
	@test -s trace.json && echo "bench-smoke: trace OK"

clean:
	rm -f bench_report.json trace.json fuzz_report.json
