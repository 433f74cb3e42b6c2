package ixp

import "shangrila/internal/cg"

// Predecoded block execution. LoadProgram decodes each cg.Program once
// into a flat value-typed instruction array (dInstr) annotated with block
// structure:
//
//   - Straight-line runs. Every slot carries the length of the maximal
//     stretch of pure register instructions (ALU, immediates, nops)
//     starting there. The interpreter executes a whole run in a tight
//     loop — no memory/ring/yield checks, no stats or tracer hooks, no
//     bounds checks — and batches the run's instruction and cycle counts
//     into the activation's accumulators in one step. Control falls back
//     to the general dispatch only at run terminators: branches, memory
//     references, ring and CAM operations, and yields.
//
//   - Superinstructions. The dominant adjacent pairs in generated code
//     (measured statically over all example apps × levels: alui+alui,
//     immed+alu/alui, and the compare-setup pairs immed+bcc/bcci) fuse
//     into single dispatch slots. The pair's second instruction keeps its
//     standalone decode in its own slot, so a branch or thread entry that
//     lands on it executes it unfused — fusion never changes observable
//     behavior, and the predecoder additionally restricts fusion to pairs
//     within one basic block (cg.Program.Leaders). When the activation's
//     instruction budget splits a pair, only the first half executes and
//     the thread resumes at the tail slot.
//
// Semantics are bit-identical to the per-instruction reference
// interpreter: instruction counts, cycle accounting, stats, tracer events
// and event-queue scheduling order are unchanged (locked by the harness's
// differential golden suite).

// dKind is the predecoded dispatch kind.
type dKind uint8

const (
	// Simple kinds: executable inside a straight-line run.
	dNop dKind = iota
	dALU
	dALUImm
	dImmed
	dFusedALUImmALUImm // IALUImm;IALUImm — the dominant generated pair
	dFusedImmedALU     // IImmed;IALU
	dFusedImmedALUImm  // IImmed;IALUImm
	lastSimpleKind     // sentinel: kinds below terminate runs

	// Run terminators: general dispatch path.
	dBr
	dBcc
	dBccImm
	dFusedImmedBcc    // IImmed;IBcc — compare-operand setup + branch
	dFusedImmedBccImm // IImmed;IBccImm
	dMem
	dCAMLookup
	dCAMWrite
	dCAMClear
	dRingGet
	dRingPut
	dCtxArb
	dHalt
)

// zeroReg is the wired-zero register: one slot past the architectural
// register file. Reads of absent operands (cg.NoPReg) are predecoded to
// it, making operand fetch branch-free; nothing ever writes it.
const zeroReg = cg.NumRegs

// dInstr is one predecoded instruction slot. Fields are value-typed and
// compact so a run's slots share cache lines; the data slice (memory burst
// registers) is the decoded program's only per-slot allocation.
type dInstr struct {
	kind dKind

	alu  cg.ALUOp
	cond cg.CondOp

	dst, dst2  int16 // writes, 0..NumRegs-1 (dst of ring put: -1 = none)
	srcA, srcB int16 // reads: absent operands map to zeroReg
	imm        uint32

	// Memory reference fields.
	level   cg.MemLevel
	store   bool
	atomic  bool
	addr    int16 // base register; absolute addressing maps to zeroReg
	addrOff uint32
	nwords  int32
	data    []cg.PReg
	accIdx  int16 // flat Stats accounting index, -1 when unclassified

	ring   int32
	target int32

	// run is the instruction count of the maximal straight-line stretch of
	// simple slots starting here (0 for terminators). Fused slots count
	// both halves; entering at a fused tail uses the tail's own run value.
	run int32
}

// dProg is one predecoded program.
type dProg struct {
	code []dInstr
}

// accIndex flattens (level, class) into the machine's access-counter
// array; -1 for unclassified accesses, which are not accounted.
func accIndex(level cg.MemLevel, class cg.AccessClass) int16 {
	if class == cg.ClassNone {
		return -1
	}
	return int16(int(level)*numAccessClasses + int(class))
}

// numMemLevels and numAccessClasses size the flat access-counter array
// (levels × classes, cf. cg.MemLevel and cg.AccessClass).
const (
	numMemLevels     = 4
	numAccessClasses = 5
)

// readReg maps a source operand to its register slot: an absent one
// (cg.NoPReg) reads the wired zero.
func readReg(r cg.PReg) int16 {
	if r == cg.NoPReg {
		return zeroReg
	}
	return int16(r)
}

// predecode lowers a verified cg.Program (see cg.Verify) into its
// block-structured executable form. It only translates: every operand,
// target and ring it copies was checked at load.
func predecode(p *cg.Program) *dProg {
	d := &dProg{code: make([]dInstr, len(p.Code))}
	for i, in := range p.Code {
		d.code[i] = decodeOne(in)
	}
	fuse(d, p)
	computeRuns(d)
	return d
}

// decodeOne decodes a single instruction, standalone.
func decodeOne(in *cg.Instr) dInstr {
	out := dInstr{dst: -1, dst2: -1, srcA: zeroReg, srcB: zeroReg, accIdx: -1,
		alu: in.ALU, cond: in.Cond, imm: in.Imm, target: int32(in.Target)}
	switch in.Op {
	case cg.INop:
		out.kind = dNop
	case cg.IALU:
		out.kind = dALU
		out.dst, out.srcA, out.srcB = int16(in.Dst), readReg(in.SrcA), readReg(in.SrcB)
	case cg.IALUImm:
		out.kind = dALUImm
		out.dst, out.srcA = int16(in.Dst), readReg(in.SrcA)
	case cg.IImmed:
		out.kind = dImmed
		out.dst = int16(in.Dst)
	case cg.IBr:
		out.kind = dBr
	case cg.IBcc:
		out.kind = dBcc
		out.srcA, out.srcB = readReg(in.SrcA), readReg(in.SrcB)
	case cg.IBccImm:
		out.kind = dBccImm
		out.srcA = readReg(in.SrcA)
	case cg.IMem:
		out.kind = dMem
		out.level = in.Level
		out.store = in.Store
		out.atomic = in.Atomic
		out.addrOff = in.AddrOff
		out.nwords = int32(in.NWords)
		out.data = in.Data
		out.accIdx = accIndex(in.Level, in.Class)
		out.addr = readReg(in.Addr)
	case cg.ICAMLookup:
		out.kind = dCAMLookup
		out.dst, out.dst2, out.srcA = int16(in.Dst), int16(in.Dst2), readReg(in.SrcA)
	case cg.ICAMWrite:
		out.kind = dCAMWrite
		out.srcA, out.srcB = readReg(in.SrcA), readReg(in.SrcB)
	case cg.ICAMClear:
		out.kind = dCAMClear
	case cg.IRingGet:
		out.kind = dRingGet
		out.ring = int32(in.Ring)
		out.accIdx = accIndex(cg.MemScratch, in.Class)
		out.dst, out.dst2 = int16(in.Dst), int16(in.Dst2)
	case cg.IRingPut:
		out.kind = dRingPut
		out.ring = int32(in.Ring)
		out.accIdx = accIndex(cg.MemScratch, in.Class)
		out.srcA, out.srcB = readReg(in.SrcA), readReg(in.SrcB)
		out.dst = int16(in.Dst) // NoPReg, -1, when the success flag is absent
	case cg.ICtxArb:
		out.kind = dCtxArb
	case cg.IHalt:
		out.kind = dHalt
	}
	return out
}

// fuse rewrites adjacent instruction pairs into superinstruction heads.
// The tail slot keeps its standalone decode; fusion is restricted to pairs
// inside one basic block so superinstructions mirror the compiler's
// straight-line code shape.
func fuse(d *dProg, p *cg.Program) {
	leaders := p.Leaders()
	for i := 0; i+1 < len(d.code); i++ {
		if leaders[i+1] {
			continue
		}
		head, tail := d.code[i].kind, d.code[i+1].kind
		var fused dKind
		switch {
		case head == dALUImm && tail == dALUImm:
			fused = dFusedALUImmALUImm
		case head == dImmed && tail == dALU:
			fused = dFusedImmedALU
		case head == dImmed && tail == dALUImm:
			fused = dFusedImmedALUImm
		case head == dImmed && tail == dBcc:
			fused = dFusedImmedBcc
		case head == dImmed && tail == dBccImm:
			fused = dFusedImmedBccImm
		default:
			continue
		}
		d.code[i].kind = fused
		i++ // the tail cannot also head a fusion
	}
}

// execRun executes exactly n instructions of the straight-line run
// starting at pc and returns the pc after them. n must not exceed the
// run length at pc (callers clamp it to the activation budget). This is
// the interpreter's hottest loop, inside runME: every instruction here
// costs one cycle and touches only the thread's register file, so the
// caller batches the cycle/instruction accounting.
func execRun(code []dInstr, regs *[cg.NumRegs + 1]uint32, pc int, n int64) int {
	rem := n
	for rem > 0 {
		d := &code[pc]
		switch d.kind {
		case dNop:
			pc++
			rem--
		case dALU:
			regs[d.dst] = aluEval(d.alu, regs[d.srcA], regs[d.srcB])
			pc++
			rem--
		case dALUImm:
			regs[d.dst] = aluEval(d.alu, regs[d.srcA], d.imm)
			pc++
			rem--
		case dImmed:
			regs[d.dst] = d.imm
			pc++
			rem--
		case dFusedALUImmALUImm:
			regs[d.dst] = aluEval(d.alu, regs[d.srcA], d.imm)
			if rem == 1 { // budget split the pair; resume at the tail
				pc++
				rem = 0
				break
			}
			t := &code[pc+1]
			regs[t.dst] = aluEval(t.alu, regs[t.srcA], t.imm)
			pc += 2
			rem -= 2
		case dFusedImmedALU:
			regs[d.dst] = d.imm
			if rem == 1 {
				pc++
				rem = 0
				break
			}
			t := &code[pc+1]
			regs[t.dst] = aluEval(t.alu, regs[t.srcA], regs[t.srcB])
			pc += 2
			rem -= 2
		case dFusedImmedALUImm:
			regs[d.dst] = d.imm
			if rem == 1 {
				pc++
				rem = 0
				break
			}
			t := &code[pc+1]
			regs[t.dst] = aluEval(t.alu, regs[t.srcA], t.imm)
			pc += 2
			rem -= 2
		}
	}
	return pc
}

// computeRuns annotates every slot with the straight-line run length
// starting there. Fused simple slots contribute both halves; a fused
// branch head terminates its run like the branch it contains.
func computeRuns(d *dProg) {
	code := d.code
	for i := len(code) - 1; i >= 0; i-- {
		k := code[i].kind
		if k >= lastSimpleKind {
			continue // run stays 0
		}
		w := int32(1)
		if k == dFusedALUImmALUImm || k == dFusedImmedALU || k == dFusedImmedALUImm {
			w = 2
		}
		// A verified image ends in a branch or a halt, so a simple slot
		// (or fused pair) is never the last.
		code[i].run = w + code[i+int(w)].run
	}
}
