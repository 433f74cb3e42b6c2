package ir_test

import (
	"bytes"
	"slices"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
)

// cloneAllocsPerFunc is what Func.Clone may allocate: the function, its
// three parameter/class lists, and one slab each for blocks, block
// pointers, instructions, instruction pointers, registers and branch
// targets + CFG edges. Nothing per block, instruction or operand (1,294
// allocations for this program before the slabs, 109 after, 81 since the
// copy takes the CFG edges over instead of recomputing them).
const cloneAllocsPerFunc = 10

// TestCloneAllocations pins the copy Program.Edit takes of a frozen
// function.
func TestCloneAllocations(t *testing.T) {
	a := apps.L3Switch()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() { ir.CloneProgram(prog) })
	if limit := float64(2 + cloneAllocsPerFunc*len(prog.Funcs)); n > limit {
		t.Errorf("CloneProgram allocates %v times for %d functions, want <= %v", n, len(prog.Funcs), limit)
	}
	var before, after bytes.Buffer
	if err := ir.Fprint(&before, prog); err != nil {
		t.Fatal(err)
	}
	cp := ir.CloneProgram(prog)
	if err := ir.Fprint(&after, cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("the clone prints differently")
	}
	// The clone is private: growing one instruction list or operand list
	// must not reach its slab neighbours, and nothing reaches the original.
	for _, f := range cp.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				in.Args = append(in.Args, 99)
				in.Dst = append(in.Dst, 98)
			}
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet})
		}
		for _, b := range f.Blocks {
			for i, in := range b.Instrs[:len(b.Instrs)-1] {
				if in.Args[len(in.Args)-1] != 99 || in.Dst[len(in.Dst)-1] != 98 {
					t.Fatalf("%s b%d[%d]: an appended operand was overwritten by a neighbour's", f.Name, b.ID, i)
				}
			}
		}
	}
	after.Reset()
	if err := ir.Fprint(&after, prog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("writing to the clone changed the original")
	}
}

// TestAppendBody copies a two-block function into one that already has
// blocks and registers: registers move up by the base, NoReg stays,
// branch targets and CFG edges name the copies, a target the source does
// not list becomes nil, and every carved slice is capacity-clipped.
func TestAppendBody(t *testing.T) {
	foreign := &ir.Block{ID: 1, Instrs: []*ir.Instr{{Op: ir.OpRet}}}
	b0 := &ir.Block{ID: 0}
	b1 := &ir.Block{ID: 1, Instrs: []*ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{0}}}}
	b0.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Dst: []ir.Reg{0}, Imm: 1},
		{Op: ir.OpStore, Args: []ir.Reg{ir.NoReg, 0}},
		{Op: ir.OpCondBr, Args: []ir.Reg{0}, Blocks: []*ir.Block{b1, foreign}},
	}
	src := &ir.Func{Name: "src", Blocks: []*ir.Block{b0, b1}, Entry: b0, NumRegs: 1}
	src.ComputeCFG()
	want := src.String()

	d0 := &ir.Block{ID: 0, Instrs: []*ir.Instr{{Op: ir.OpBr}}}
	d1 := &ir.Block{ID: 1, Instrs: []*ir.Instr{{Op: ir.OpRet}}}
	dst := &ir.Func{Name: "dst", Blocks: []*ir.Block{d0, d1}, Entry: d0, NumRegs: 5}
	const base = 5
	entry := dst.AppendBody(src, base)

	if len(dst.Blocks) != 4 || dst.Blocks[0] != d0 || dst.Blocks[1] != d1 {
		t.Fatalf("blocks %v: want d0, d1 and two copies", dst.Blocks)
	}
	c0, c1 := dst.Blocks[2], dst.Blocks[3]
	if entry != c0 || c0.ID != 2 || c1.ID != 3 || c0 == b0 || c1 == b1 {
		t.Fatalf("entry %p, copies %p (b%d) %p (b%d): want fresh blocks b2 and b3, the first the entry", entry, c0, c0.ID, c1, c1.ID)
	}
	check := func(what string, got, want []ir.Reg) {
		t.Helper()
		if !slices.Equal(got, want) || cap(got) != len(got) {
			t.Errorf("%s: %v (cap %d), want %v with cap %d", what, got, cap(got), want, len(want))
		}
	}
	check("const dst", c0.Instrs[0].Dst, []ir.Reg{base})
	check("store args", c0.Instrs[1].Args, []ir.Reg{ir.NoReg, base})
	check("condbr args", c0.Instrs[2].Args, []ir.Reg{base})
	check("ret args", c1.Instrs[0].Args, []ir.Reg{base})
	if in := c0.Instrs[0]; in == b0.Instrs[0] || in.Imm != 1 {
		t.Errorf("const copy %v: want a fresh instruction with the same immediate", in)
	}
	for _, tc := range []struct {
		what      string
		got, want []*ir.Block
	}{
		{"condbr targets", c0.Instrs[2].Blocks, []*ir.Block{c1, nil}},
		{"entry succs", c0.Succs, []*ir.Block{c1, nil}},
		{"entry preds", c0.Preds, nil},
		{"exit preds", c1.Preds, []*ir.Block{c0}},
	} {
		if !slices.Equal(tc.got, tc.want) || cap(tc.got) != len(tc.got) {
			t.Errorf("%s: %v (cap %d), want %v with its length as capacity", tc.what, tc.got, cap(tc.got), tc.want)
		}
	}
	for _, b := range dst.Blocks[2:] {
		if cap(b.Instrs) != len(b.Instrs) {
			t.Errorf("b%d: instruction list cap %d, len %d", b.ID, cap(b.Instrs), len(b.Instrs))
		}
		for i, in := range b.Instrs {
			if cap(in.Dst) != len(in.Dst) || cap(in.Args) != len(in.Args) || cap(in.Blocks) != len(in.Blocks) {
				t.Errorf("b%d[%d] %v: an operand list is not capacity-clipped", b.ID, i, in)
			}
		}
	}
	if dst.NumRegs != 5 {
		t.Errorf("NumRegs %d: the copier must leave the caller's registers alone", dst.NumRegs)
	}
	if got := src.String(); got != want {
		t.Errorf("the source changed:\n%s\nwant:\n%s", got, want)
	}
}
