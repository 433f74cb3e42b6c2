package cg_test

import (
	"errors"
	"strings"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/cg"
)

// TestVerifyRules: one refused image per rule of cg.Verify, each a
// *cg.VerifyError at the instruction that breaks it, and the optional
// operands the ISA allows accepted.
func TestVerifyRules(t *testing.T) {
	const rings = 4
	nop := &cg.Instr{Op: cg.INop}
	halt := &cg.Instr{Op: cg.IHalt}
	mem := func(level cg.MemLevel, class cg.AccessClass, nwords int, data ...cg.PReg) *cg.Instr {
		return &cg.Instr{Op: cg.IMem, Level: level, Class: class, Addr: cg.NoPReg, NWords: nwords, Data: data}
	}
	huge := make([]*cg.Instr, aggregate.CodeStore+1)
	for i := range huge {
		huge[i] = nop
	}
	huge[len(huge)-1] = halt
	for _, tc := range []struct {
		name string
		code []*cg.Instr
		at   int    // instruction index of the error; -1 for the whole image
		want string // part of the message
	}{
		{"empty image", nil, -1, "empty image"},
		{"over the code store", huge, -1, "4097 instructions exceed the 4096-instruction code store"},
		{"nil instruction", []*cg.Instr{nop, nil, halt}, 1, "nil instruction"},
		{"unknown opcode", []*cg.Instr{nop, {Op: 99}, halt}, 1, "opcode(99): unknown opcode"},
		{"unknown ALU op", []*cg.Instr{{Op: cg.IALU, ALU: 99, Dst: 1, SrcA: 2, SrcB: 18}, halt}, 0, "unknown ALU op aluop(99)"},
		{"unknown condition", []*cg.Instr{{Op: cg.IBcc, Cond: 99, SrcA: 1, SrcB: 17}, halt}, 0, "unknown condition cond(99)"},
		{"register past the file", []*cg.Instr{{Op: cg.IImmed, Dst: cg.NumRegs}, halt}, 0, "dst register 32 outside the 32 registers"},
		{"negative register", []*cg.Instr{nop, {Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: -2}, halt}, 1, "srcA register -2"},
		{"absent destination", []*cg.Instr{{Op: cg.IALU, ALU: cg.AAdd, Dst: cg.NoPReg, SrcA: 1}, halt}, 0, "dst register -1"},
		{"absent ring-get word", []*cg.Instr{{Op: cg.IRingGet, Ring: 0, Dst: 1, Dst2: cg.NoPReg}, halt}, 0, "dst2 register -1"},
		{"data register past the file", []*cg.Instr{mem(cg.MemSRAM, cg.ClassAppData, 2, 1, 40), halt}, 0, "data register 40"},
		{"branch past the end", []*cg.Instr{{Op: cg.IBr, Target: 2}, halt}, 0, "branch target 2 outside the 2-instruction image"},
		{"negative branch", []*cg.Instr{nop, {Op: cg.IBccImm, Cond: cg.CEq, SrcA: 1, Target: -1}, halt}, 1, "branch target -1"},
		{"falls off the end", []*cg.Instr{{Op: cg.IBr, Target: 1}, nop}, 1, "falls off the end"},
		{"ring past the machine", []*cg.Instr{{Op: cg.IRingPut, Ring: rings, SrcA: 1, SrcB: 17, Dst: cg.NoPReg}, halt}, 0, "ring 4 outside the 4 rings"},
		{"negative ring", []*cg.Instr{{Op: cg.IRingGet, Ring: -1, Dst: 1, Dst2: 17}, halt}, 0, "ring -1"},
		{"unknown memory level", []*cg.Instr{mem(9, cg.ClassAppData, 1, 1), halt}, 0, "unknown memory level level(9)"},
		{"negative memory level", []*cg.Instr{mem(-1, cg.ClassNone, 1, 1), halt}, 0, "unknown memory level level(-1)"},
		{"unknown access class", []*cg.Instr{mem(cg.MemDRAM, 7, 1, 1), halt}, 0, "unknown access class class(7)"},
		{"no words", []*cg.Instr{mem(cg.MemSRAM, cg.ClassAppData, 0), halt}, 0, "0 words with 0 data registers"},
		{"words without registers", []*cg.Instr{mem(cg.MemSRAM, cg.ClassAppData, 3, 1), halt}, 0, "3 words with 1 data registers"},
	} {
		err := cg.Verify(&cg.Program{Name: "p", Code: tc.code}, rings)
		var ve *cg.VerifyError
		if !errors.As(err, &ve) {
			t.Errorf("%s: Verify = %v, want a *cg.VerifyError", tc.name, err)
			continue
		}
		if ve.Program != "p" || ve.Instr != tc.at || !strings.Contains(ve.Error(), tc.want) {
			t.Errorf("%s: Verify = %q at %d, want %q at %d", tc.name, ve, ve.Instr, tc.want, tc.at)
		}
		if tc.at >= 0 && tc.code[tc.at] != nil && ve.Op != tc.code[tc.at].Op {
			t.Errorf("%s: error op %v, want %v", tc.name, ve.Op, tc.code[tc.at].Op)
		}
	}

	// What the ISA lets an op leave out is accepted: absent sources (they
	// read zero; an absent address base is an absolute address) and
	// IRingPut's success flag. So is an image that fills the code store.
	ok := []*cg.Instr{
		{Op: cg.IALU, ALU: cg.AMov, Dst: 1, SrcA: 2, SrcB: cg.NoPReg},
		{Op: cg.IBccImm, Cond: cg.CLeS, SrcA: cg.NoPReg, Target: 0},
		mem(cg.MemScratch, cg.ClassNone, 2, 3, 19),
		{Op: cg.IRingPut, Ring: rings - 1, SrcA: 1, SrcB: 17, Dst: cg.NoPReg, Class: cg.ClassPacketRing},
		{Op: cg.IBr, Target: 0},
	}
	if err := cg.Verify(&cg.Program{Name: "ok", Code: ok}, rings); err != nil {
		t.Errorf("valid image refused: %v", err)
	}
	if err := cg.Verify(&cg.Program{Name: "full", Code: huge[1:]}, rings); err != nil {
		t.Errorf("image of exactly the code store refused: %v", err)
	}
}

// TestEnumStringsTotal: every CGIR enum prints a value outside its table
// as kind(value) instead of panicking.
func TestEnumStringsTotal(t *testing.T) {
	for _, tc := range []struct {
		v    interface{ String() string }
		want string
	}{
		{cg.IHalt, "halt"},
		{cg.Opcode(99), "opcode(99)"},
		{cg.Opcode(-1), "opcode(-1)"},
		{cg.ARemU, "remu"},
		{cg.ALUOp(14), "aluop(14)"},
		{cg.CLeS, "les"},
		{cg.CondOp(6), "cond(6)"},
		{cg.MemDRAM, "dram"},
		{cg.MemLevel(9), "level(9)"},
		{cg.MemLevel(-1), "level(-1)"},
		{cg.ClassAppData, "app"},
		{cg.AccessClass(5), "class(5)"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
