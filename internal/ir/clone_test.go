package ir_test

import (
	"bytes"
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
