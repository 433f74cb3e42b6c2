package cg

import (
	"fmt"

	"shangrila/internal/aggregate"
)

// VerifyError is one ME-image rule violation: the image, the instruction
// and its op. Instr is -1 for a rule about the whole image (its size).
type VerifyError struct {
	Program string
	Instr   int
	Op      Opcode
	Msg     string
}

func (e *VerifyError) Error() string {
	if e.Instr < 0 {
		return fmt.Sprintf("image %s: %s", e.Program, e.Msg)
	}
	return fmt.Sprintf("image %s[%d] %v: %s", e.Program, e.Instr, e.Op, e.Msg)
}

// Verify checks that p is a loadable ME image. Its rules are the one
// definition of one: codegen runs it on every aggregate it compiles, and
// the machine loads only programs that pass it, so the simulator executes
// a verified image without further checks.
//
//   - size: at least one instruction, none nil, and at most
//     aggregate.CodeStore, the ME code store of §3.1;
//   - ops: a known opcode; an ALU op, branch condition, memory level or
//     access class inside its enum;
//   - registers: every register an op reads or writes inside NumRegs;
//     NoPReg only as an absent source (the wired zero, also an absolute
//     memory address) and as IRingPut's optional success flag;
//   - control: branch targets inside the code, and a last instruction that
//     is IBr or IHalt, so no path falls off the end;
//   - rings: IDs in [0, numRings);
//   - memory: NWords ≥ 1 and one Data register per word.
//
// The first violation found is returned as a *VerifyError; nil means the
// image verifies.
func Verify(p *Program, numRings int) error {
	n := len(p.Code)
	if n == 0 {
		return &VerifyError{Program: p.Name, Instr: -1, Msg: "empty image"}
	}
	if n > aggregate.CodeStore {
		return &VerifyError{Program: p.Name, Instr: -1,
			Msg: fmt.Sprintf("%d instructions exceed the %d-instruction code store", n, aggregate.CodeStore)}
	}
	for i, in := range p.Code {
		if in == nil {
			return &VerifyError{Program: p.Name, Instr: i, Msg: "nil instruction"}
		}
		if msg := verifyInstr(in, n, numRings); msg != "" {
			return &VerifyError{Program: p.Name, Instr: i, Op: in.Op, Msg: msg}
		}
	}
	if last := p.Code[n-1]; last.Op != IBr && last.Op != IHalt {
		return &VerifyError{Program: p.Name, Instr: n - 1, Op: last.Op,
			Msg: "falls off the end of the image (the last instruction must be br or halt)"}
	}
	return nil
}

// verifyInstr checks one instruction of an n-instruction image and returns
// what is wrong with it, or "".
func verifyInstr(in *Instr, n, numRings int) string {
	switch in.Op {
	case INop, ICAMClear, ICtxArb, IHalt:
		return ""
	case IALU, IALUImm:
		if in.ALU < AAdd || in.ALU > ARemU {
			return fmt.Sprintf("unknown ALU op %v", in.ALU)
		}
		if in.Op == IALUImm {
			return firstMsg(reg("dst", in.Dst), optReg("srcA", in.SrcA))
		}
		return firstMsg(reg("dst", in.Dst), optReg("srcA", in.SrcA), optReg("srcB", in.SrcB))
	case IImmed:
		return reg("dst", in.Dst)
	case IBr, IBcc, IBccImm:
		if in.Target < 0 || in.Target >= n {
			return fmt.Sprintf("branch target %d outside the %d-instruction image", in.Target, n)
		}
		if in.Op == IBr {
			return ""
		}
		if in.Cond < CEq || in.Cond > CLeS {
			return fmt.Sprintf("unknown condition %v", in.Cond)
		}
		if in.Op == IBccImm {
			return optReg("srcA", in.SrcA)
		}
		return firstMsg(optReg("srcA", in.SrcA), optReg("srcB", in.SrcB))
	case IMem:
		if in.Level < MemLocal || in.Level > MemDRAM {
			return fmt.Sprintf("unknown memory level %v", in.Level)
		}
		if in.NWords < 1 || in.NWords != len(in.Data) {
			return fmt.Sprintf("%d words with %d data registers", in.NWords, len(in.Data))
		}
		for _, r := range in.Data {
			if msg := reg("data", r); msg != "" {
				return msg
			}
		}
		return firstMsg(knownClass(in.Class), optReg("addr", in.Addr))
	case ICAMLookup:
		return firstMsg(reg("dst", in.Dst), reg("dst2", in.Dst2), optReg("srcA", in.SrcA))
	case ICAMWrite:
		return firstMsg(optReg("srcA", in.SrcA), optReg("srcB", in.SrcB))
	case IRingGet, IRingPut:
		if in.Ring < 0 || in.Ring >= numRings {
			return fmt.Sprintf("ring %d outside the %d rings", in.Ring, numRings)
		}
		if in.Op == IRingGet {
			return firstMsg(knownClass(in.Class), reg("dst", in.Dst), reg("dst2", in.Dst2))
		}
		// Dst, the success flag, is optional.
		return firstMsg(knownClass(in.Class), optReg("srcA", in.SrcA), optReg("srcB", in.SrcB), optReg("dst", in.Dst))
	}
	return "unknown opcode"
}

// reg checks a register the op needs: inside the register file.
func reg(name string, r PReg) string {
	if r < 0 || r >= NumRegs {
		return fmt.Sprintf("%s register %d outside the %d registers", name, int(r), NumRegs)
	}
	return ""
}

// optReg checks a register the op may leave absent: inside the register
// file, or NoPReg (an absent source reads as zero).
func optReg(name string, r PReg) string {
	if r == NoPReg {
		return ""
	}
	return reg(name, r)
}

func knownClass(c AccessClass) string {
	if c < ClassNone || c > ClassAppData {
		return fmt.Sprintf("unknown access class %v", c)
	}
	return ""
}

// firstMsg returns the first non-empty message.
func firstMsg(msgs ...string) string {
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}
