package driver

import (
	"testing"

	"shangrila/internal/analysis"
	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
)

// Property tests for the scalar optimizer's dense analyses, over generated
// inputs as well as the three applications. No wall clock anywhere.

// forEachPassState compiles a at lvl one pass at a time and hands visit
// every function — of the whole program and of each merged aggregate — as
// lowering and then each pass leave it. Every input a scalar-optimizer run
// ever sees at that level is among the states visited.
func forEachPassState(t *testing.T, a *apps.App, lvl Level, visit func(stage string, f *ir.Func)) {
	t.Helper()
	prog, err := LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	cfg := Config{Level: lvl, ProfileTrace: a.Trace(prog.Types, 7, 64), Controls: a.Controls, VerifyIR: VerifyOff}
	r := newRunner(prog, cfg)
	walk := func(stage string) {
		for _, f := range r.ctx.Prog.Funcs {
			visit(stage, f)
		}
		for _, m := range r.ctx.Merged {
			for _, f := range m.Prog.Funcs {
				visit(stage, f)
			}
		}
	}
	walk("lower")
	for _, p := range PipelineFor(cfg) {
		if err := r.runPass(p); err != nil {
			t.Fatalf("%s at %v: %v", a.Name, lvl, err)
		}
		walk(p.Name())
	}
}

// forEachScalarInput visits the pass states of the three applications at
// every level and of 200 generated programs through the full pipeline.
func forEachScalarInput(t *testing.T, visit func(where string, f *ir.Func)) {
	for _, a := range apps.All() {
		for _, lvl := range Levels() {
			forEachPassState(t, a, lvl, func(stage string, f *ir.Func) {
				visit(a.Name+" "+lvl.String()+" after "+stage+": "+f.Name, f)
			})
		}
	}
	for seed := uint64(1); seed <= 200; seed++ {
		a := bakergen.NewSpec(seed).Build()
		forEachPassState(t, a, LevelSWC, func(stage string, f *ir.Func) {
			visit(a.Name+" after "+stage+": "+f.Name, f)
		})
	}
}

// referenceLiveness is the plain formulation the bitset solver replaced:
// sets as maps, live-in by walking each block's instructions backward.
func referenceLiveness(f *ir.Func) (in, out map[*ir.Block]map[ir.Reg]bool) {
	in, out = map[*ir.Block]map[ir.Reg]bool{}, map[*ir.Block]map[ir.Reg]bool{}
	for _, b := range f.Blocks {
		in[b], out[b] = map[ir.Reg]bool{}, map[ir.Reg]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			before := len(in[b]) + len(out[b])
			live := map[ir.Reg]bool{}
			for _, s := range b.Succs {
				for r := range in[s] {
					out[b][r], live[r] = true, true
				}
			}
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				for _, d := range b.Instrs[i].Dst {
					delete(live, d)
				}
				for _, u := range b.Instrs[i].Args {
					if u != ir.NoReg {
						live[u] = true
					}
				}
			}
			for r := range live {
				in[b][r] = true
			}
			changed = changed || len(in[b])+len(out[b]) != before
		}
	}
	return in, out
}

func TestLivenessMatchesReference(t *testing.T) {
	funcs := 0
	var lv analysis.Liveness // one for every state, as the optimizer keeps it
	forEachScalarInput(t, func(where string, f *ir.Func) {
		funcs++
		lv.Compute(f)
		in, out := referenceLiveness(f)
		for _, b := range f.Blocks {
			for r := 0; r < f.NumRegs; r++ {
				if got, want := lv.In(b).Has(r), in[b][ir.Reg(r)]; got != want {
					t.Fatalf("%s: live-in(b%d, %v) = %v, reference says %v", where, b.ID, ir.Reg(r), got, want)
				}
				if got, want := lv.Out(b).Has(r), out[b][ir.Reg(r)]; got != want {
					t.Fatalf("%s: live-out(b%d, %v) = %v, reference says %v", where, b.ID, ir.Reg(r), got, want)
				}
			}
		}
	})
	t.Logf("%d function states compared", funcs)
}

// TestOptimizeFuncIdempotent: optimizing an already optimized function
// leaves its printed form unchanged, on the same inputs. It is what makes
// OptimizeFunc's fixpoint exit safe: a round that leaves the body as it
// found it (propagate folds "mov const-register" to a constant, localCSE
// turns the duplicate constant back into the mov, and both count as
// changes) would do so again, so stopping there costs no optimization.
func TestOptimizeFuncIdempotent(t *testing.T) {
	capped := 0
	forEachScalarInput(t, func(where string, f *ir.Func) {
		c := f.Clone()
		if _, converged := opt.OptimizeFunc(c); !converged {
			capped++
		}
		once := c.String()
		if opt.OptimizeFunc(c); c.String() != once {
			t.Fatalf("%s: a second run changed the function\nfirst output:\n%s\nsecond output:\n%s",
				where, once, c.String())
		}
	})
	t.Logf("%d function states stopped at the round cap", capped)
}
