package harness

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// FuzzConfig parameterizes one compiler-fuzzing campaign: N seeded random
// Baker programs (seeds Seed, Seed+1, ...) each compiled at every
// optimization level with the IR verifier forced on and checked against
// the host reference interpreter through DifferentialWith. Every program also
// contributes one invalid mutant (a rotating frontend-defect class) that
// the parser/typechecker must reject with a positioned error — the
// campaign covers the frontend's error paths, not just the happy path.
type FuzzConfig struct {
	// N is the number of generated programs. Zero means 25.
	N int
	// Seed is the first generator seed; the campaign uses Seed..Seed+N-1.
	// The resolved value is echoed in the result so a failing run can be
	// replayed exactly.
	Seed uint64
	// Workers bounds campaign parallelism. Zero means GOMAXPROCS.
	Workers int
	// TraceN is the packets injected per program (DiffConfig.TraceN).
	// Zero means 12.
	TraceN int
	// Budget, when positive, stops dispatching new programs once the
	// elapsed wall clock exceeds it; programs already started finish.
	// Completed counts are still deterministic for a fixed seed range
	// when the budget does not bite.
	Budget time.Duration
	// Minimize delta-debugs every divergent program down to a minimal
	// reproducer before reporting it.
	Minimize bool
}

// FuzzFailure is one divergent program: the seed that produced it, the
// (optionally minimized) spec as replayable JSON, and the divergences.
type FuzzFailure struct {
	Seed        uint64   `json:"seed"`
	Spec        string   `json:"spec"`
	Divergences []string `json:"divergences"`
}

// FuzzResult is one campaign's outcome and statistics; it lands in the
// bench report's fuzz section.
type FuzzResult struct {
	Seed      uint64 `json:"seed"` // resolved first seed
	Requested int    `json:"requested"`
	Programs  int    `json:"programs"` // completed (== Requested unless the budget bit)
	Divergent int    `json:"divergent"`
	// Features is the campaign's feature-coverage histogram: what the
	// generated population actually exercised (stack depths, dynamic
	// demux, pushes, op kinds, invalid-mutant classes...).
	Features map[string]int `json:"features"`
	Failures []FuzzFailure  `json:"failures,omitempty"`
	// Wall-clock stats (zeroed in canonical report bytes).
	ElapsedNanos   int64   `json:"elapsed_nanos"`
	ProgramsPerSec float64 `json:"programs_per_sec"`
}

// OK reports a clean campaign.
func (r *FuzzResult) OK() bool { return r.Divergent == 0 }

// String formats the campaign summary the CLIs print.
func (r *FuzzResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzz campaign: %d/%d programs, seed %d..%d, %d divergent (%.1f prog/s)",
		r.Programs, r.Requested, r.Seed, r.Seed+uint64(r.Requested)-1,
		r.Divergent, r.ProgramsPerSec)
	keys := make([]string, 0, len(r.Features))
	for k := range r.Features {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("\n  feature coverage:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, r.Features[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  FAIL seed %d:", f.Seed)
		for _, d := range f.Divergences {
			fmt.Fprintf(&b, "\n    %s", d)
		}
	}
	return b.String()
}

func (c *FuzzConfig) fill() {
	if c.N <= 0 {
		c.N = 25
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.TraceN <= 0 {
		c.TraceN = 12
	}
}

// fuzzOne is one program's campaign contribution, merged in seed order.
type fuzzOne struct {
	done     bool
	features map[string]int
	failure  *FuzzFailure
}

// RunFuzz executes one fuzzing campaign. Divergences do not abort the
// campaign; they are collected (minimized when configured) into the
// result. The result is deterministic for a fixed config when the
// wall-clock budget does not cut the run short.
func RunFuzz(cfg FuzzConfig) *FuzzResult {
	cfg.fill()
	start := time.Now()
	res := &FuzzResult{Seed: cfg.Seed, Requested: cfg.N, Features: map[string]int{}}

	slots := make([]fuzzOne, cfg.N)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= cfg.N {
					return
				}
				if cfg.Budget > 0 && time.Since(start) > cfg.Budget {
					return
				}
				slots[i] = fuzzProgram(cfg, cfg.Seed+uint64(i))
			}
		}()
	}
	wg.Wait()

	for i := range slots {
		if !slots[i].done {
			continue
		}
		res.Programs++
		for k, v := range slots[i].features {
			res.Features[k] += v
		}
		if slots[i].failure != nil {
			res.Divergent++
			res.Failures = append(res.Failures, *slots[i].failure)
		}
	}
	res.ElapsedNanos = int64(time.Since(start))
	if res.ElapsedNanos > 0 {
		res.ProgramsPerSec = float64(res.Programs) / (float64(res.ElapsedNanos) / 1e9)
	}
	return res
}

// Slack terms of the performance metamorphism bound. Optimization
// passes may pessimize individual programs (spills, code growth), and
// LevelCycles is chunk-granular, so the bound must absorb both a real
// constant-factor slowdown and up to two chunks of quantization noise
// before flagging. The factor is deliberately generous: the check hunts
// gross cost-model regressions (a pass looping a hot path, an
// accidentally quadratic lowering), not single-digit-percent drift.
const (
	perfSlackFactor = 2
	perfSlackChunks = 2
)

// PerfBound returns the maximum simulated cycles an optimized build may
// take to reproduce the reference frames, given the BASE build's cycles
// and the differential chunk size: optimizing must not make a program
// more than perfSlackFactor× slower than unoptimized, modulo chunk
// quantization. This is the metamorphic relation the fuzzer checks
// across levels — no external oracle needed, BASE is the yardstick.
func PerfBound(baseCycles, chunkCycles int64) int64 {
	return perfSlackFactor*baseCycles + perfSlackChunks*chunkCycles
}

// perfDivergences applies PerfBound to a matched report: every level
// whose recorded cycles exceed the bound derived from BASE's yields one
// DivPerf divergence. Reports without a BASE measurement (level subset
// runs) or with any functional divergence are out of scope — cycle
// counts of non-matching levels are not comparable.
func perfDivergences(rep *DiffReport, chunkCycles int64) []Divergence {
	base, ok := rep.LevelCycles[driver.LevelBase.String()]
	if !ok {
		return nil
	}
	bound := PerfBound(base, chunkCycles)
	var out []Divergence
	for _, name := range rep.Levels {
		if name == driver.LevelBase.String() {
			continue
		}
		cyc, ok := rep.LevelCycles[name]
		if !ok || cyc <= bound {
			continue
		}
		out = append(out, Divergence{Kind: DivPerf, LevelA: driver.LevelBase.String(),
			LevelB: name, PacketIndex: -1,
			Detail: fmt.Sprintf("optimized build needed %d cycles vs %d at BASE (bound %d = %d*base + %d*chunk)",
				cyc, base, bound, perfSlackFactor, perfSlackChunks)})
	}
	return out
}

// fuzzProgram generates, differentials and (on divergence) minimizes one
// seed, plus one invalid-mutant frontend check.
func fuzzProgram(cfg FuzzConfig, seed uint64) fuzzOne {
	spec := bakergen.NewSpec(seed)
	one := fuzzOne{done: true, features: spec.Features()}

	dc := DiffConfig{Seed: seed, TraceN: cfg.TraceN}
	rep := DifferentialWith(dc, spec.Build())
	if rep.OK() {
		// Functional match at every level — now the cross-level
		// performance metamorphism: the optimized builds must not be
		// grossly slower (in simulated cycles) than BASE.
		if perf := perfDivergences(rep, diffChunkCycles); len(perf) != 0 {
			f := &FuzzFailure{Seed: seed, Spec: string(mustSpecJSON(spec))}
			for _, d := range perf {
				f.Divergences = append(f.Divergences, d.String())
			}
			one.failure = f
		}
	}
	if !rep.OK() {
		if cfg.Minimize {
			spec = bakergen.Minimize(spec, func(c *bakergen.Spec) bool {
				return !DifferentialWith(dc, c.Build()).OK()
			})
			rep = DifferentialWith(dc, spec.Build())
		}
		f := &FuzzFailure{Seed: seed, Spec: string(mustSpecJSON(spec))}
		for _, d := range rep.Divergences {
			f.Divergences = append(f.Divergences, d.String())
		}
		if len(f.Divergences) == 0 {
			// Minimization raced the divergence away (should not happen:
			// Minimize keeps only still-failing reductions) — report the
			// unminimized fact rather than silently passing.
			f.Divergences = []string{"divergence did not survive re-run"}
		}
		one.failure = f
	}

	// One invalid mutant per program, class rotating with the seed: the
	// frontend must reject it with a positioned error and must not panic.
	classes := bakergen.InvalidClasses()
	class := classes[int(seed)%len(classes)]
	if err := CheckInvalid(spec, class); err != nil {
		one.failure = &FuzzFailure{
			Seed:        seed,
			Spec:        string(mustSpecJSON(bakergen.Mutate(spec, class))),
			Divergences: []string{fmt.Sprintf("[invalid-%s] %v", class, err)},
		}
	} else {
		one.features["invalid-"+class]++
	}
	return one
}

// posRe matches the "file:line:col" prefix positioned frontend errors
// carry.
var posRe = regexp.MustCompile(`\.baker:\d+:\d+`)

// CheckInvalid runs one invalid-mutant class through the frontend and
// verifies the contract the fuzzer (and the negative test suite) pins:
// the program is rejected, the error is positioned, and the frontend
// does not panic.
func CheckInvalid(spec *bakergen.Spec, class string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("frontend panicked on %s mutant: %v", class, r)
		}
	}()
	m := bakergen.Mutate(spec, class)
	_, lerr := driver.LowerSource(fmt.Sprintf("fuzz-%d-%s.baker", spec.Seed, class), m.Source())
	if lerr == nil {
		return fmt.Errorf("frontend accepted %s mutant", class)
	}
	if !posRe.MatchString(lerr.Error()) {
		return fmt.Errorf("%s mutant error lacks position: %v", class, lerr)
	}
	return nil
}

func mustSpecJSON(s *bakergen.Spec) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}
