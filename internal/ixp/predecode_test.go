package ixp

import (
	"errors"
	"strings"
	"testing"

	"shangrila/internal/cg"
)

// TestPredecodeFusion checks the superinstruction table: each dominant
// pair fuses, the tail keeps its standalone decode, and fusion never
// crosses a block leader.
func TestPredecodeFusion(t *testing.T) {
	p := &cg.Program{Name: "fusion", Code: []*cg.Instr{
		/* 0 */ {Op: cg.IALUImm, ALU: cg.AAdd, Dst: 0, SrcA: 0, Imm: 1},
		/* 1 */ {Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 2},
		/* 2 */ {Op: cg.IImmed, Dst: 2, Imm: 7},
		/* 3 */ {Op: cg.IALU, ALU: cg.AXor, Dst: 3, SrcA: 2, SrcB: 0},
		/* 4 */ {Op: cg.IImmed, Dst: 4, Imm: 9},
		/* 5 */ {Op: cg.IBcc, Cond: cg.CEq, SrcA: 4, SrcB: 0, Target: 7},
		/* 6 */ {Op: cg.INop},
		/* 7 */ {Op: cg.IImmed, Dst: 5, Imm: 1}, // leader (branch target):
		/* 8 */ {Op: cg.IALUImm, ALU: cg.AAdd, Dst: 5, SrcA: 5, Imm: 1},
		/* 9 */ {Op: cg.IHalt},
	}}
	d := predecode(p)
	wantKinds := map[int]dKind{
		0: dFusedALUImmALUImm,
		1: dALUImm, // tail keeps standalone decode
		2: dFusedImmedALU,
		3: dALU,
		4: dFusedImmedBcc,
		5: dBcc,
		7: dFusedImmedALUImm, // leader may head a fusion, just not tail one
		8: dALUImm,
		9: dHalt,
	}
	for i, want := range wantKinds {
		if got := d.code[i].kind; got != want {
			t.Errorf("slot %d kind = %v, want %v", i, got, want)
		}
	}
	// Slot 6 is the fall-through of the branch at 5 and a block leader: the
	// nop at 6 and the immed at 7 must not have fused across it... and more
	// to the point, slot 4's fusion with the branch must not extend past
	// the terminator.
	if d.code[6].kind != dNop {
		t.Errorf("slot 6 kind = %v, want dNop", d.code[6].kind)
	}
}

// TestPredecodeRuns checks the straight-line run annotation that the
// block engine's tight loop consumes: fused slots weigh two instructions
// and terminators stay zero.
func TestPredecodeRuns(t *testing.T) {
	p := &cg.Program{Name: "runs", Code: []*cg.Instr{
		/* 0 */ {Op: cg.IImmed, Dst: 0, Imm: 1},
		/* 1 */ {Op: cg.IALUImm, ALU: cg.AAdd, Dst: 0, SrcA: 0, Imm: 1}, // fuses with 0
		/* 2 */ {Op: cg.INop},
		/* 3 */ {Op: cg.ICtxArb},
		/* 4 */ {Op: cg.IHalt},
	}}
	d := predecode(p)
	// Slot 1 is a fused tail, but entered directly it still heads its own
	// 2-instruction run (itself plus the nop).
	for i, want := range []int32{3, 2, 1, 0, 0} {
		if got := d.code[i].run; got != want {
			t.Errorf("slot %d run = %d, want %d", i, got, want)
		}
	}
}

// runProg executes prog on one thread of a bare machine until it halts
// and returns that thread.
func runProg(t *testing.T, prog *cg.Program) *Thread {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SampleInterval = 0
	cfg.ThreadsPerME = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, m, 0, prog)
	if err := m.Run(10_000); err != nil {
		t.Fatal(err)
	}
	return m.MEs[0].Thread(0)
}

// TestPredecodeZeroReg checks absent operands read the wired zero: an
// IALU with SrcB = NoPReg behaves as "op a, 0".
func TestPredecodeZeroReg(t *testing.T) {
	th := runProg(t, &cg.Program{Name: "zr", Code: []*cg.Instr{
		{Op: cg.IImmed, Dst: 1, Imm: 41},
		{Op: cg.IALU, ALU: cg.AAdd, Dst: 2, SrcA: 1, SrcB: cg.NoPReg},
		{Op: cg.IHalt},
	}})
	if got := th.Reg(2); got != 41 {
		t.Errorf("add r1, zero = %d, want 41", got)
	}
}

// TestPredecodeFusedTailEntry enters a thread directly at the tail slot
// of a fused pair (via SetPC) and checks it executes standalone — the
// guarantee that lets fusion never change observable behavior.
func TestPredecodeFusedTailEntry(t *testing.T) {
	prog := &cg.Program{Name: "tail-entry", Code: []*cg.Instr{
		{Op: cg.IImmed, Dst: 0, Imm: 100},                       // fuses with 1
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 0, Imm: 5}, // fused tail
		{Op: cg.IHalt},
	}}
	cfg := DefaultConfig()
	cfg.SampleInterval = 0
	cfg.ThreadsPerME = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, m, 0, prog)
	th := m.MEs[0].Thread(0)
	th.SetReg(0, 7)
	if err := th.SetPC(1); err != nil { // skip the immed head, land on the fused tail
		t.Fatal(err)
	}
	if err := m.Run(1_000); err != nil {
		t.Fatal(err)
	}
	if got := th.Reg(1); got != 12 {
		t.Errorf("tail-entry r1 = %d, want 12 (7+5, head not executed)", got)
	}
	if got := th.Reg(0); got != 7 {
		t.Errorf("tail-entry r0 = %d, want 7 (head immed must not run)", got)
	}
}

// TestPredecodeBadReg checks that an image with a register outside the
// file is refused at load with cg.Verify's error, wherever the register
// sits: an instruction no path reaches is refused too, and the ME stays
// disabled, so a run executes nothing and faults nowhere.
func TestPredecodeBadReg(t *testing.T) {
	bad := &cg.Instr{Op: cg.IALU, ALU: cg.AAdd, Dst: cg.PReg(cg.NumRegs + 3), SrcA: 0, SrcB: 16}
	cfg := DefaultConfig()
	cfg.SampleInterval = 0
	cfg.ThreadsPerME = 1
	for _, tc := range []struct {
		prog *cg.Program
		at   int
	}{
		{&cg.Program{Name: "bad-unreached", Code: []*cg.Instr{{Op: cg.IHalt}, bad, {Op: cg.IHalt}}}, 1},
		{&cg.Program{Name: "bad-hit", Code: []*cg.Instr{bad, {Op: cg.IHalt}}}, 0},
	} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = m.LoadProgram(0, tc.prog)
		var ve *cg.VerifyError
		if !errors.As(err, &ve) || ve.Program != tc.prog.Name || ve.Instr != tc.at || ve.Op != cg.IALU {
			t.Fatalf("%s: LoadProgram = %v, want a *cg.VerifyError at %d", tc.prog.Name, err, tc.at)
		}
		if !strings.Contains(err.Error(), "dst register 35 outside the 32 registers") {
			t.Errorf("%s: error %q does not name the register", tc.prog.Name, err)
		}
		if err := m.Run(1_000); err != nil {
			t.Fatalf("%s: run after a refused load: %v", tc.prog.Name, err)
		}
		if n := m.Snapshot().MEInstrs[0]; n != 0 {
			t.Errorf("%s: refused ME executed %d instructions", tc.prog.Name, n)
		}
		if err := m.MEs[0].Thread(0).SetPC(0); err == nil {
			t.Errorf("%s: SetPC on a refused ME succeeded", tc.prog.Name)
		}
	}
}

// TestSetPCRefusesOutsideProgram: a thread entry point must lie inside the
// loaded program.
func TestSetPCRefusesOutsideProgram(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleInterval = 0
	cfg.ThreadsPerME = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, m, 0, &cg.Program{Name: "two", Code: []*cg.Instr{{Op: cg.INop}, {Op: cg.IHalt}}})
	th := m.MEs[0].Thread(0)
	for _, pc := range []int{-1, 2, 100} {
		if err := th.SetPC(pc); err == nil || !strings.Contains(err.Error(), "outside the 2-instruction program") {
			t.Errorf("SetPC(%d) = %v, want a refusal", pc, err)
		}
	}
	if err := th.SetPC(1); err != nil {
		t.Fatalf("SetPC(1): %v", err)
	}
	if err := m.Run(1_000); err != nil {
		t.Fatal(err)
	}
	if n := m.Snapshot().MEInstrs[0]; n != 1 {
		t.Errorf("thread entered at the halt ran %d instructions, want 1", n)
	}
}
