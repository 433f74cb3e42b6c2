package opt

import (
	"testing"

	"shangrila/internal/ir"
	"shangrila/internal/testutil"
)

// capRounds is OptimizeFunc without the fixpoint exit for rounds that only
// rewrite: every round whose passes report a change runs, up to the cap, as
// the optimizer did before it recognised an identity round.
func capRounds(f *ir.Func) {
	defs, cse := make([]regDef, f.NumRegs), newCSETable(f)
	for rounds := 0; rounds < maxRounds; rounds++ {
		singleDefs(f, defs)
		changed := propagate(f, defs)
		changed = foldBranches(f, defs) || changed
		changed = localCSE(f, cse) || changed
		changed = deadCode(f) || changed
		changed = mergeBlocks(f) || changed
		if !changed {
			return
		}
	}
}

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

// TestFixpointStopsPingPong: the ping-pong loop is recognised as converged
// within three rounds, and leaves exactly the IR that running every round
// up to the cap leaves.
func TestFixpointStopsPingPong(t *testing.T) {
	capped := pingPongLoop()
	capRounds(capped)
	f := pingPongLoop()
	rounds, converged := OptimizeFunc(f)
	if !converged || rounds > 3 {
		t.Fatalf("OptimizeFunc = %d rounds, converged %v; want converged within 3\n%s", rounds, converged, f)
	}
	if got, want := f.String(), capped.String(); got != want {
		t.Fatalf("stopping at the fixpoint changed the IR\ngot:\n%s\nafter %d rounds:\n%s", got, maxRounds, want)
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

// TestFixpointMatchesCappedRounds: on lowered loops and branch-assigned
// variables, the functions that used to stop at the round cap, stopping at
// the fixpoint leaves the same IR.
func TestFixpointMatchesCappedRounds(t *testing.T) {
	want := testutil.BuildIR(t, loopsSrc)
	got := testutil.BuildIR(t, loopsSrc)
	for i, g := range got.Funcs {
		w := want.Funcs[i]
		capRounds(w)
		if _, converged := OptimizeFunc(g); !converged {
			t.Errorf("%s stopped at the round cap", g.Name)
		}
		if gs, ws := g.String(), w.String(); gs != ws {
			t.Errorf("%s: stopping at the fixpoint changed the IR\ngot:\n%s\ncapped:\n%s", g.Name, gs, ws)
		}
	}
}
