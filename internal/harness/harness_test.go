package harness_test

import (
	"errors"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ixp"
)

// quickCfg keeps test sweeps fast; the bench harness uses longer windows.
func quickCfg() harness.RunConfig {
	cfg := harness.DefaultRunConfig()
	cfg.NumMEs, cfg.Seed, cfg.TraceN = 4, 7, 256
	cfg.Warmup, cfg.Measure = 80_000, 250_000
	return cfg
}

// quickAt is quickCfg at level lvl.
func quickAt(lvl driver.Level) harness.RunConfig {
	cfg := quickCfg()
	cfg.Level = lvl
	return cfg
}

// TestAllAppsAllLevelsCompileAndRun is the whole-repro integration test:
// every benchmark compiles at every optimization level and forwards
// packets on the machine model.
func TestAllAppsAllLevelsCompileAndRun(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				r, err := quickAt(lvl).Run(a)
				if err != nil {
					t.Fatalf("%v: %v", lvl, err)
				}
				if r.TxPackets == 0 {
					t.Errorf("%v: nothing forwarded", lvl)
				}
				if r.Gbps <= 0 {
					t.Errorf("%v: rate %.2f", lvl, r.Gbps)
				}
				t.Logf("%-6v %.2f Gbps tx=%d stages=%d code=%v total-mem=%.1f",
					lvl, r.Gbps, r.TxPackets, r.Stages, r.CodeSizes, r.Total())
			}
		})
	}
}

// TestRunRejectsNegativeWindows: a negative warm-up or measured window
// fails the run with the machine's BudgetError instead of moving the
// simulated clock backward.
func TestRunRejectsNegativeWindows(t *testing.T) {
	for _, c := range []struct{ warmup, measure int64 }{
		{-1, 1000},
		{1000, -1},
	} {
		cfg := quickCfg()
		cfg.Warmup, cfg.Measure = c.warmup, c.measure
		_, err := cfg.Run(apps.L3Switch())
		var be *ixp.BudgetError
		if !errors.As(err, &be) || be.Cycles != -1 {
			t.Errorf("windows (%d, %d): err = %v, want a BudgetError for -1", c.warmup, c.measure, err)
		}
	}
}

func TestOptimizationReducesAccessesPaperShape(t *testing.T) {
	// Table 1 shape: total per-packet accesses fall monotonically (within
	// tolerance) as optimizations cumulate, and PAC gives a large DRAM
	// cut.
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			get := func(lvl driver.Level) *harness.Result {
				r, err := quickAt(lvl).Run(a)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			base := get(driver.LevelO1)
			pac := get(driver.LevelPAC)
			phr := get(driver.LevelPHR)
			swc := get(driver.LevelSWC)
			t.Logf("O1 total=%.1f dram=%.1f | PAC total=%.1f dram=%.1f | PHR total=%.1f sram=%.1f | SWC total=%.1f appsram=%.1f",
				base.Total(), base.PktDRAM, pac.Total(), pac.PktDRAM,
				phr.Total(), phr.PktSRAM, swc.Total(), swc.AppSRAM)
			if pac.PktDRAM >= base.PktDRAM {
				t.Errorf("PAC DRAM %.1f !< O1 DRAM %.1f", pac.PktDRAM, base.PktDRAM)
			}
			if pac.Total() >= base.Total() {
				t.Errorf("PAC total %.1f !< O1 total %.1f", pac.Total(), base.Total())
			}
			if phr.PktSRAM >= pac.PktSRAM {
				t.Errorf("PHR pkt SRAM %.1f !< PAC %.1f", phr.PktSRAM, pac.PktSRAM)
			}
			if swc.AppSRAM > phr.AppSRAM+0.01 {
				t.Errorf("SWC app SRAM %.1f > PHR %.1f", swc.AppSRAM, phr.AppSRAM)
			}
		})
	}
}

func TestFigure6Shape(t *testing.T) {
	points, err := harness.Figure6(30_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", harness.FormatFigure6(points))
	get := func(level cg.MemLevel, bytes, n int) float64 {
		for _, p := range points {
			if p.Level == level && p.Bytes == bytes && p.Accesses == n {
				return p.Gbps
			}
		}
		t.Fatalf("missing point %v %dB x%d", level, bytes, n)
		return 0
	}
	// Paper budget rules: ~2.5 Gbps is sustainable with <=2 DRAM narrow
	// accesses, <=8 SRAM narrow accesses, <=64 Scratch narrow accesses.
	if g := get(cg.MemDRAM, 8, 2); g < 2.2 {
		t.Errorf("DRAM 8B x2 = %.2f, want >= 2.2", g)
	}
	if g := get(cg.MemDRAM, 8, 8); g > 2.2 {
		t.Errorf("DRAM 8B x8 = %.2f, want clearly below line rate", g)
	}
	if g := get(cg.MemSRAM, 4, 8); g < 2.2 {
		t.Errorf("SRAM 4B x8 = %.2f, want >= 2.2", g)
	}
	if g := get(cg.MemScratch, 4, 64); g < 2.0 {
		t.Errorf("Scratch 4B x64 = %.2f, want >= 2.0", g)
	}
	// Monotone decrease with more accesses.
	for _, s := range harness.Fig6Series {
		prev := 1e9
		for _, n := range harness.Fig6Counts {
			g := get(s.Level, s.Bytes, n)
			if g > prev*1.08 {
				t.Errorf("%v %dB: rate rose %f -> %f at x%d", s.Level, s.Bytes, prev, g, n)
			}
			prev = g
		}
	}
	// Wider accesses are fractionally slower at high counts.
	if get(cg.MemDRAM, 64, 8) > get(cg.MemDRAM, 8, 8) {
		t.Errorf("wide DRAM should not beat narrow at the same count")
	}
}

// TestRunKernelPointAllocations bounds the host allocations of one
// Figure-6 kernel point (a fresh machine, 20 k warm-up + 60 k measured
// cycles). A sweep is hundreds of such points, so the machine's memories
// and event wheel must not be rebuilt allocation by allocation each time.
func TestRunKernelPointAllocations(t *testing.T) {
	prog := harness.Figure6Kernel(cg.MemSRAM, 1, 8)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := harness.RunKernel(prog, 6, 20_000, 60_000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2000 {
		t.Errorf("RunKernel point made %.0f allocations, want < 2000", allocs)
	}
	t.Logf("%.0f allocations per kernel point", allocs)
}

// TestCompileAllocations bounds the host allocations of one full-pipeline
// compile (L3-Switch at +SWC, verification on as in every `go test`
// compile). The scalar optimizer's analyses are dense slices and bitsets
// indexed by register and block; rebuilding them as maps of maps on every
// round of every function made this 109,700. With the optimizer stopping at
// its fixpoint, the profile trace built without maps and the register
// allocator's operand walk on the stack it was about 12,000. With one
// optimizer scratch per Optimize call and the register allocator's tables
// in slices it was about 10,030. With the profile trace's packets carved
// from one arena and its headers resolved once per trace, and the lowerer's
// Instrs carved from chunks with integer branch labels, it was about 8,190.
// With SOAR's lattice in rows by register slot, PAC's clusters under typed
// keys in a per-run scratch, and the inliner's and ComputeCFG's output
// carved from slabs, it was about 5,390. With the inliner copying callee
// bodies through ir.Func.AppendBody, Clone's copier, and making the few
// return and parameter instructions it rewrites one at a time, it is about
// 5,420 (ceiling ≈ 1.09×).
func TestCompileAllocations(t *testing.T) {
	a := apps.L3Switch()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := harness.Compile(a, driver.LevelSWC, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 5_900 {
		t.Errorf("compile made %.0f allocations, want < 5900", allocs)
	}
	t.Logf("%.0f allocations per compile", allocs)
}

// TestNegativeTraceRejected: a negative trace length is an error from
// every runner that generates a trace (the trace generator would panic
// sizing its output), and a differential records it as a host-side
// divergence naming DiffConfig.TraceN.
func TestNegativeTraceRejected(t *testing.T) {
	a := apps.L3Switch()
	cfg := quickCfg()
	cfg.TraceN = -1
	if _, err := cfg.Run(a); err == nil {
		t.Error("Run with TraceN -1 succeeded")
	}
	if _, err := harness.ChurnRun(a, cfg); err == nil {
		t.Error("ChurnRun with TraceN -1 succeeded")
	}
	if _, err := harness.ClusterRun(a, harness.ClusterParams{Chips: 1, DrainChip: harness.NoDrain}, cfg); err == nil {
		t.Error("ClusterRun with TraceN -1 succeeded")
	}
	rep := harness.DifferentialWith(harness.DiffConfig{TraceN: -1}, a)
	if d := rep.First(); d.Kind != harness.DivHost || !strings.Contains(d.Detail, "TraceN") {
		t.Errorf("DifferentialWith(TraceN: -1) = %s, want a host divergence naming TraceN", rep)
	}
}
