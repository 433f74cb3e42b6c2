package main

import (
	"fmt"
	"sort"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/harness"
)

// fuzzTraceN is the packets injected per program (FuzzConfig's default).
const fuzzTraceN = 12

// The campaign's programs come from a fixed corpus window of generator
// seeds starting at the seed make fuzz-ci uses, so every program in it is
// one the repository's own gate already holds clean (a fuzzer draws
// compiler bugs; a benchmark operation must not fail). As in the other
// workloads the programs are fixed and --seed varies the rest: which
// seven eighths of the window a run covers, and in which order. A
// generated program's cost varies by +-47 %, so drawing all of them
// afresh per seed would put a 6-9 % spread on the campaign's rate.
const fuzzCorpusBase = 4242

// fuzzPrograms returns the n program seeds a run covers: a seeded
// shuffle of the corpus window of n + n/7 seeds, cut to n.
func fuzzPrograms(seed uint64, n int) []uint64 {
	window := make([]uint64, n+(n+6)/7)
	for i := range window {
		window[i] = fuzzCorpusBase + uint64(i)
	}
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := len(window) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		window[i], window[j] = window[j], window[i]
	}
	return window[:n]
}

func fuzzWorkload() *workload {
	return &workload{
		name: "fuzz_campaign", unit: "generated programs",
		why:   "what a developer waits on in make fuzz-ci: generator, frontend, seven verified compiles, the reference interpreter and seven short simulations per program",
		alias: "programs_per_cs", rawAlias: "raw.programs_per_s",
		// 110 programs in a 10-second budget.
		period:       1,
		opsPerSecond: 11,
		setup:        setupFuzz,
	}
}

type fuzzState struct {
	programs []uint64
	// features is the campaign's coverage histogram, ok the number of
	// programs that passed every check.
	features    map[string]int
	ok          int
	sourceBytes int
	lastErr     error
}

func setupFuzz(seed uint64, ops int) (state, error) {
	s := &fuzzState{programs: fuzzPrograms(seed, ops), features: map[string]int{}}
	// Warm-up: the program before the corpus window, untimed.
	if res := harness.RunFuzz(harness.FuzzConfig{N: 1, Seed: fuzzCorpusBase - 1, Workers: 1}); !res.OK() {
		return nil, fmt.Errorf("warm-up program diverged: %s", res)
	}
	return s, nil
}

func (s *fuzzState) op(i int, tr *tracer) (float64, error) {
	seed := s.programs[i]
	s.lastErr = nil
	if tr == nil {
		res := harness.RunFuzz(harness.FuzzConfig{N: 1, Seed: seed, Workers: 1})
		if !res.OK() || res.Programs != res.Requested {
			s.lastErr = fmt.Errorf("%s", res)
		}
		s.merge(res.Features)
		return 1, nil
	}
	// harness.RunFuzz's per-program body, call for call.
	var spec *bakergen.Spec
	tr.do("bakergen.newspec", func() { spec = bakergen.NewSpec(seed) })
	features := spec.Features()
	var app *apps.App
	tr.do("bakergen.source", func() { app = spec.Build() })
	s.sourceBytes += len(app.Source)
	tr.do("harness.differential", func() {
		if rep := harness.DifferentialWith(harness.DiffConfig{Seed: seed, TraceN: fuzzTraceN}, app); !rep.OK() {
			s.lastErr = fmt.Errorf("%s", rep)
		}
	})
	classes := bakergen.InvalidClasses()
	class := classes[int(seed)%len(classes)]
	tr.do("harness.check_invalid", func() {
		if err := harness.CheckInvalid(spec, class); err != nil {
			s.lastErr = err
		} else {
			features["invalid-"+class]++
		}
	})
	s.merge(features)
	return 1, nil
}

func (s *fuzzState) merge(features map[string]int) {
	for k, v := range features {
		s.features[k] += v
	}
}

func (s *fuzzState) check(i int) error {
	if s.lastErr == nil {
		s.ok++
	}
	return s.lastErr
}

func (s *fuzzState) finish() (uint64, error) {
	keys := make([]string, 0, len(s.features))
	for k := range s.features {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := newDigest()
	d.u64(uint64(s.ok))
	for _, k := range keys {
		d.str(k)
		d.u64(uint64(s.features[k]))
	}
	return d.sum(), nil
}

func (s *fuzzState) report(v *layerView) {
	v.out["bakergen.source_bytes"] = float64(s.sourceBytes)
}
