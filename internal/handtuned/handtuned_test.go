package handtuned_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/handtuned"
	"shangrila/internal/harness"
)

func TestHandTunedKernelRuns(t *testing.T) {
	prog := handtuned.L3Forwarder(0)
	g, err := harness.RunKernel(prog, 6, 50_000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hand-tuned L3 kernel: %.2f Gbps on 6 MEs", g)
	if g < 1.5 {
		t.Errorf("hand-tuned kernel too slow: %.2f Gbps", g)
	}
}

// TestCompiledApproachesHandTuned is the paper's headline comparison: the
// fully optimized compiled L3-Switch must land within a modest factor of
// the hand-written kernel's rate (the paper reports parity at the 2.5 Gbps
// line-rate target; our compiled app does strictly more work — bridging,
// ARP, a two-level trie — so a 2x envelope is the acceptance band).
func TestCompiledApproachesHandTuned(t *testing.T) {
	hand, err := harness.RunKernel(handtuned.L3Forwarder(0), 6, 50_000, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	app := apps.L3Switch()
	res, err := harness.Compile(app, driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultRunConfig()
	cfg.NumMEs, cfg.Seed, cfg.TraceN = 6, 7, 384
	cfg.Warmup, cfg.Measure = 100_000, 400_000
	cfg.Compiled = res
	r, err := cfg.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hand-tuned %.2f Gbps vs compiled +SWC %.2f Gbps", hand, r.Gbps)
	if r.Gbps < hand/2 {
		t.Errorf("compiled (%.2f) below half of hand-tuned (%.2f)", r.Gbps, hand)
	}
	// And BASE must be clearly worse than hand-tuned: the optimizations
	// are what close the gap.
	base, err := harness.Compile(app, driver.LevelBase, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Compiled = base
	rb, err := cfg.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Gbps > r.Gbps {
		t.Errorf("BASE (%.2f) outperformed +SWC (%.2f)?", rb.Gbps, r.Gbps)
	}
	t.Logf("BASE %.2f Gbps (gap to hand-tuned: %.1fx; +SWC closes it to %.1fx)",
		rb.Gbps, hand/rb.Gbps, hand/r.Gbps)
}

func TestKernelBankDiscipline(t *testing.T) {
	prog := handtuned.L3Forwarder(0)
	for pc, in := range prog.Code {
		if in.Op == cg.IALU && in.ALU != cg.AMov && in.ALU != cg.ANot && in.ALU != cg.ANeg {
			if in.SrcA.Bank() == in.SrcB.Bank() {
				t.Errorf("pc %d: hand kernel violates the bank rule: %v", pc, in)
			}
		}
	}
}
