package harness

import (
	"reflect"
	"regexp"
	"testing"
	"time"

	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// TestFuzzCampaign runs a small real campaign: every program must pass
// the full differential at every level, every feature class must be
// counted, and the result must be deterministic across runs (modulo
// wall-clock stats).
func TestFuzzCampaign(t *testing.T) {
	cfg := FuzzConfig{N: 8, Seed: 501, TraceN: 8, Minimize: true}
	r := RunFuzz(cfg)
	if !r.OK() {
		t.Fatalf("campaign diverged:\n%s", r)
	}
	if r.Programs != cfg.N || r.Requested != cfg.N {
		t.Fatalf("programs %d/%d, want %d", r.Programs, r.Requested, cfg.N)
	}
	if r.Seed != cfg.Seed {
		t.Fatalf("resolved seed %d, want %d", r.Seed, cfg.Seed)
	}
	if r.Features["program"] != cfg.N {
		t.Fatalf("program feature = %d, want %d", r.Features["program"], cfg.N)
	}
	r2 := RunFuzz(cfg)
	r.ElapsedNanos, r.ProgramsPerSec = 0, 0
	r2.ElapsedNanos, r2.ProgramsPerSec = 0, 0
	if !reflect.DeepEqual(r, r2) {
		t.Fatal("campaign result not deterministic across runs")
	}
}

// TestPerfDivergences pins the cross-level performance metamorphism
// check on synthetic reports: levels within PerfBound pass, a level past
// it yields exactly one DivPerf divergence against BASE, and reports
// without a BASE measurement are out of scope.
func TestPerfDivergences(t *testing.T) {
	const chunk = int64(60_000)
	base := driver.LevelBase.String()
	rep := &DiffReport{
		App:    "synthetic",
		Levels: []string{base, "-O1", "+SWC"},
		LevelCycles: map[string]int64{
			base:   120_000,
			"-O1":  PerfBound(120_000, chunk), // exactly at the bound: passes
			"+SWC": PerfBound(120_000, chunk) + chunk,
		},
	}
	divs := perfDivergences(rep, chunk)
	if len(divs) != 1 {
		t.Fatalf("got %d divergences, want 1: %v", len(divs), divs)
	}
	d := divs[0]
	if d.Kind != DivPerf || d.LevelA != base || d.LevelB != "+SWC" || d.PacketIndex != -1 {
		t.Fatalf("wrong divergence shape: %+v", d)
	}

	// No BASE measurement (level-subset run): nothing comparable.
	sub := &DiffReport{Levels: []string{"-O1"},
		LevelCycles: map[string]int64{"-O1": 1 << 40}}
	if got := perfDivergences(sub, chunk); got != nil {
		t.Fatalf("subset run produced divergences: %v", got)
	}

	// The bound itself: factor on base plus chunk-quantization slack.
	if got, want := PerfBound(100, 7), int64(perfSlackFactor*100+perfSlackChunks*7); got != want {
		t.Fatalf("PerfBound(100, 7) = %d, want %d", got, want)
	}
}

// TestDifferentialRecordsLevelCycles: a clean real differential records
// a deterministic chunk-granular cycle count for every level — the
// input the fuzz performance check consumes.
func TestDifferentialRecordsLevelCycles(t *testing.T) {
	spec := bakergen.NewSpec(501)
	rep := DifferentialWith(DiffConfig{Seed: 501, TraceN: 8}, spec.Build())
	if !rep.OK() {
		t.Fatalf("differential diverged:\n%s", rep)
	}
	for _, name := range rep.Levels {
		cyc, ok := rep.LevelCycles[name]
		if !ok {
			t.Fatalf("no cycle record for matched level %s: %v", name, rep.LevelCycles)
		}
		if cyc <= 0 || cyc%diffChunkCycles != 0 {
			t.Fatalf("level %s cycles %d not a positive multiple of chunk %d", name, cyc, diffChunkCycles)
		}
	}
	if divs := perfDivergences(rep, diffChunkCycles); len(divs) != 0 {
		t.Fatalf("clean program flagged by perf check: %v", divs)
	}
}

// TestFuzzBudget: an already-expired budget stops dispatch without
// losing accounting coherence.
func TestFuzzBudget(t *testing.T) {
	r := RunFuzz(FuzzConfig{N: 50, Seed: 1, Budget: time.Nanosecond, Workers: 1})
	if r.Programs >= 50 {
		t.Fatalf("budget did not stop dispatch: %d programs", r.Programs)
	}
	if r.Requested != 50 {
		t.Fatalf("requested %d, want 50", r.Requested)
	}
}

// TestFuzzReportSection: campaign results land in the v6 report and the
// canonical bytes zero the wall-clock fields.
func TestFuzzReportSection(t *testing.T) {
	b := NewReportBuilder()
	if !b.Empty() {
		t.Fatal("fresh builder not empty")
	}
	b.AddFuzz(&FuzzResult{Seed: 9, Requested: 1, Programs: 1,
		Features: map[string]int{"program": 1}, ElapsedNanos: 123, ProgramsPerSec: 4.5})
	if b.Empty() {
		t.Fatal("builder with fuzz section reports empty")
	}
	rep := b.Report()
	if rep.Schema != "shangrila-bench/v6" {
		t.Fatalf("schema %q", rep.Schema)
	}
	raw, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(`"elapsed_nanos": [1-9]`).Match(raw) ||
		regexp.MustCompile(`"programs_per_sec": [1-9]`).Match(raw) {
		t.Fatalf("canonical bytes keep wall-clock fields:\n%s", raw)
	}
	// The original result must not have been zeroed in place.
	if rep.Fuzz[0].ElapsedNanos != 123 {
		t.Fatal("CanonicalJSON mutated the report")
	}
}

// errShape pins, per invalid-mutant class, which frontend stage rejects
// it and the error's substance (beyond the position CheckInvalid already
// demands).
var errShape = map[string]*regexp.Regexp{
	bakergen.InvalidSyntax:        regexp.MustCompile(`^parse: .*expected "}"`),
	bakergen.InvalidDupField:      regexp.MustCompile(`^check: .*duplicate field`),
	bakergen.InvalidUnknownField:  regexp.MustCompile(`^check: .*has no field "zz_missing"`),
	bakergen.InvalidChanType:      regexp.MustCompile(`^check: .*channel .* carries .* packets but the handle is`),
	bakergen.InvalidWiring:        regexp.MustCompile(`^check: .*unknown channel "bogus_cc"`),
	bakergen.InvalidControlGlobal: regexp.MustCompile(`^check: .*undefined: "zz_missing"`),
}

// TestInvalidMutantsRejected is the negative frontend suite: every
// mutant class, over many generated programs, must be rejected with a
// positioned error of the expected shape — and the frontend must never
// panic (CheckInvalid converts panics into errors).
func TestInvalidMutantsRejected(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		spec := bakergen.NewSpec(seed)
		for _, class := range bakergen.InvalidClasses() {
			if err := CheckInvalid(spec, class); err != nil {
				t.Errorf("seed %d class %s: %v", seed, class, err)
			}
		}
	}
	// Pin the error shapes once on a fixed seed.
	spec := bakergen.NewSpec(5)
	for class, want := range errShape {
		m := bakergen.Mutate(spec, class)
		_, err := driver.LowerSource("neg.baker", m.Source())
		if err == nil {
			t.Errorf("class %s: accepted", class)
			continue
		}
		if !want.MatchString(err.Error()) {
			t.Errorf("class %s: error %q does not match %v", class, err, want)
		}
	}
}
