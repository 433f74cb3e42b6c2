package opt_test

import (
	"fmt"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
)

// pingPongLoop builds
//
//	b0: r0 = const 0; r1 = mov r0; br b1
//	b1: r2 = const 10; r3 = ltu r1, r2; condbr r3 b2 b3
//	b2: r4 = const 1; r1 = add r1, r4; br b1
//	b3: ret r1
//
// The loop variable r1 has two definitions, so copy propagation leaves
// "r1 = mov r0" alone, but constant folding turns it into "r1 = const 0",
// which localCSE turns back into the mov: both passes report a change in
// every round, and the body never changes.
func pingPongLoop() *ir.Func {
	f := &ir.Func{Name: "m.loop", Kind: ir.FuncHelper}
	r := make([]ir.Reg, 5)
	for i := range r {
		r[i] = f.NewReg(ir.RegClass(0))
	}
	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = b0
	b0.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: []ir.Reg{r[0]}, Imm: 0},
		{Op: ir.OpMov, Dst: []ir.Reg{r[1]}, Args: []ir.Reg{r[0]}},
		{Op: ir.OpBr, Blocks: []*ir.Block{b1}},
	}
	b1.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: []ir.Reg{r[2]}, Imm: 10},
		{Op: ir.OpLtU, Dst: []ir.Reg{r[3]}, Args: []ir.Reg{r[1], r[2]}},
		{Op: ir.OpCondBr, Args: []ir.Reg{r[3]}, Blocks: []*ir.Block{b2, b3}},
	}
	b2.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: []ir.Reg{r[4]}, Imm: 1},
		{Op: ir.OpAdd, Dst: []ir.Reg{r[1]}, Args: []ir.Reg{r[1], r[4]}},
		{Op: ir.OpBr, Blocks: []*ir.Block{b1}},
	}
	b3.Instrs = []*ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{r[1]}}}
	f.ComputeCFG()
	return f
}

// TestFixpointStopsPingPong: the ping-pong loop's first round is already
// an identity, its change log says so, and the IR is exactly what running
// every round up to the cap leaves.
func TestFixpointStopsPingPong(t *testing.T) {
	capped := pingPongLoop()
	opt.CapRounds(capped)
	f := pingPongLoop()
	rounds, converged := opt.OptimizeFunc(f)
	if !converged || rounds != 1 {
		t.Fatalf("OptimizeFunc = %d rounds, converged %v; want converged in 1\n%s", rounds, converged, f)
	}
	if got, want := f.String(), capped.String(); got != want {
		t.Fatalf("stopping at the fixpoint changed the IR\ngot:\n%s\nafter %d rounds:\n%s", got, opt.MaxRounds, want)
	}
}

const loopsSrc = `
protocol p { x:32; y:16; z:16; demux { 8 }; }
module m {
	uint tbl[16];
	uint hits;
	func find(uint k) uint {
		uint found = 0;
		for (uint i = 0; i < 16; i++) {
			if (tbl[i] == k) { found = i; }
		}
		return found;
	}
	ppf f(p ph) {
		uint acc = 0;
		uint n = ph->y;
		for (uint i = 0; i < 4; i++) {
			acc = acc + find(ph->x + i);
			if (n == 0) { acc = 0; } else { n = n - 1; }
		}
		hits = acc;
		ph->z = acc;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`

// TestFixpointMatchesCappedRounds: stopping at the fixpoint leaves the IR
// that CapRounds leaves (every round up to the cap, a fresh scratch per
// function), on lowered loops and branch-assigned variables (the functions
// that used to stop at the round cap), on every lowered function of the
// three applications and on their merged ME bodies. The programs go
// through Optimize whole, so one scratch and one CSE clock serve all their
// functions, as in every compile.
func TestFixpointMatchesCappedRounds(t *testing.T) {
	type input struct {
		name        string
		prog, again *ir.Program // two copies
	}
	inputs := []input{{"loops", testutil.BuildIR(t, loopsSrc), testutil.BuildIR(t, loopsSrc)}}
	for _, a := range apps.All() {
		inputs = append(inputs, input{a.Name, testutil.BuildIR(t, a.Source), testutil.BuildIR(t, a.Source)})
		for i, body := range mergedME(t, a) {
			inputs = append(inputs, input{fmt.Sprintf("%s merged ME %d", a.Name, i), body, ir.CloneProgram(body)})
		}
	}
	for _, in := range inputs {
		for _, f := range in.again.Funcs {
			opt.CapRounds(f)
		}
		if st := opt.Optimize(in.prog, opt.Options{Scalar: true}); st.Unconverged != 0 {
			t.Errorf("%s: %d functions stopped at the round cap", in.name, st.Unconverged)
		}
		for i, g := range in.prog.Funcs {
			if gs, ws := g.String(), in.again.Funcs[i].String(); gs != ws {
				t.Errorf("%s: %s: stopping at the fixpoint changed the IR\ngot:\n%s\ncapped:\n%s", in.name, g.Name, gs, ws)
			}
		}
	}
}

// mergedME returns app a's ME aggregate bodies as the agg-opt pass
// receives them: profiled, inlined, scalar-optimized and merged.
func mergedME(tb testing.TB, a *apps.App) []*ir.Program {
	tb.Helper()
	prog := testutil.BuildIR(tb, a.Source)
	stats, err := profiler.ProfileWithControls(prog, a.Trace(prog.Types, 7, 512), a.Controls)
	if err != nil {
		tb.Fatal(err)
	}
	opt.Optimize(prog, opt.Options{Scalar: true, Inline: true})
	plan, err := aggregate.Build(prog, &stats.Weights, aggregate.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	merged, err := aggregate.BuildMerged(prog, plan, aggregate.ClassifyChannels(prog, plan))
	if err != nil {
		tb.Fatal(err)
	}
	var bodies []*ir.Program
	for _, m := range merged {
		if m.Agg.Target == aggregate.TargetME {
			bodies = append(bodies, m.Prog)
		}
	}
	return bodies
}
