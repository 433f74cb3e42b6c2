package ir

import (
	"strings"
	"testing"
)

// buildDiamond creates entry -> (a | b) -> join with a few instructions.
func buildDiamond() *Func {
	f := &Func{Name: "t.f", Kind: FuncPPF}
	entry := f.NewBlock()
	a := f.NewBlock()
	b := f.NewBlock()
	join := f.NewBlock()
	f.Entry = entry
	r0 := f.NewReg(ClassWord)
	r1 := f.NewReg(ClassWord)
	entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{r0}, Imm: 1},
		{Op: OpCondBr, Args: []Reg{r0}, Blocks: []*Block{a, b}},
	}
	a.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{r1}, Imm: 2},
		{Op: OpBr, Blocks: []*Block{join}},
	}
	b.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{r1}, Imm: 3},
		{Op: OpBr, Blocks: []*Block{join}},
	}
	join.Instrs = []*Instr{{Op: OpRet, Args: []Reg{r1}}}
	f.ComputeCFG()
	return f
}

func TestComputeCFG(t *testing.T) {
	f := buildDiamond()
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	entry := f.Entry
	if len(entry.Succs) != 2 {
		t.Errorf("entry succs = %d, want 2", len(entry.Succs))
	}
	join := f.Blocks[3]
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %d, want 2", len(join.Preds))
	}
}

func TestComputeCFGPrunesUnreachable(t *testing.T) {
	f := buildDiamond()
	dead := f.NewBlock()
	dead.Instrs = []*Instr{{Op: OpRet}}
	f.ComputeCFG()
	for _, b := range f.Blocks {
		if b == dead {
			t.Fatal("unreachable block not pruned")
		}
	}
}

func TestCloneIsDeepAndIsomorphic(t *testing.T) {
	f := buildDiamond()
	c := f.Clone()
	if c.NumRegs != f.NumRegs || len(c.Blocks) != len(f.Blocks) {
		t.Fatalf("clone shape differs")
	}
	// Mutating the clone must not affect the original.
	c.Blocks[1].Instrs[0].Imm = 99
	if f.Blocks[1].Instrs[0].Imm == 99 {
		t.Error("clone shares instructions with the original")
	}
	// Branch targets must point at clone blocks, not original ones.
	orig := map[*Block]bool{}
	for _, b := range f.Blocks {
		orig[b] = true
	}
	for _, b := range c.Blocks {
		for _, in := range b.Instrs {
			for _, tgt := range in.Blocks {
				if orig[tgt] {
					t.Fatal("clone branch targets original block")
				}
			}
		}
	}
	if orig[c.Entry] {
		t.Fatal("clone entry is the original entry")
	}
	// The CFG edges are copied, onto the clone's blocks.
	for i, b := range c.Blocks {
		ob := f.Blocks[i]
		for _, e := range [][2][]*Block{{b.Preds, ob.Preds}, {b.Succs, ob.Succs}} {
			if len(e[0]) != len(e[1]) {
				t.Fatalf("b%d: %d edges in the clone, %d in the original", i, len(e[0]), len(e[1]))
			}
			for j := range e[0] {
				if orig[e[0][j]] || e[0][j].ID != e[1][j].ID {
					t.Errorf("b%d: edge %d leads to b%d of the clone, want the copy of b%d", i, j, e[0][j].ID, e[1][j].ID)
				}
			}
		}
	}
}

func TestPrintContainsStructure(t *testing.T) {
	f := buildDiamond()
	s := f.String()
	for _, want := range []string{"ppf t.f", "condbr", "const 2", "const 3", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printout missing %q:\n%s", want, s)
		}
	}
}

func TestTerminatorDetection(t *testing.T) {
	f := buildDiamond()
	for _, b := range f.Blocks {
		if b.Terminator() == nil {
			t.Errorf("b%d has no terminator", b.ID)
		}
	}
	empty := &Block{}
	if empty.Terminator() != nil {
		t.Error("empty block reported a terminator")
	}
}

func TestRegClasses(t *testing.T) {
	f := &Func{}
	w := f.NewReg(ClassWord)
	h := f.NewReg(ClassHandle)
	if f.RegClasses[w] != ClassWord || f.RegClasses[h] != ClassHandle {
		t.Error("register classes not recorded")
	}
	if w == h {
		t.Error("registers not distinct")
	}
}
