package ir

import (
	"fmt"

	"shangrila/internal/baker/token"
)

// VerifyError is one IR invariant violation, located as precisely as the
// instruction's source position allows.
type VerifyError struct {
	Func  string
	Block int // block ID, -1 for function-level errors
	Instr int // instruction index within the block, -1 when not applicable
	Pos   token.Pos
	Msg   string
}

func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block >= 0 {
		loc = fmt.Sprintf("%s b%d", loc, e.Block)
	}
	if e.Instr >= 0 {
		loc = fmt.Sprintf("%s[%d]", loc, e.Instr)
	}
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: %s", e.Pos, loc, e.Msg)
	}
	return fmt.Sprintf("%s: %s", loc, e.Msg)
}

// Verify checks the structural invariants every pass must preserve:
//
//   - a well-formed function table: no nil entry and no two functions with
//     one name;
//   - CFG well-formedness: a non-nil entry block that belongs to the
//     function, every block terminated by exactly one trailing terminator,
//     and every branch edge targeting a block of the same function with the
//     operand/target arity its opcode demands;
//   - def-before-use for scalar registers: on every path from entry, a
//     register is written before it is read (parameters count as entry
//     definitions), and every operand is within the function's register
//     space with a recorded class;
//   - register classes: a mov's source and destination share a class, eq
//     and ne compare two registers of one class into a word, constants,
//     arithmetic, ordered comparisons and conditional branches take and
//     make words, and a call's arguments match its callee's ParamClasses;
//   - packet/metadata access typing: handles where handles are required,
//     field accesses naming a field that fits one machine word, raw
//     (post-PAC) accesses with positive word-multiple widths and matching
//     destination/source register counts.
//
// The first violation found is returned; nil means the program verifies.
func Verify(p *Program) error {
	// Size the scratch for the largest function up front, so verifying a
	// valid program allocates the block index and the bit rows once each.
	blocks, bits := 0, 0
	for i, fn := range p.Funcs {
		if fn == nil {
			return &VerifyError{Func: fmt.Sprintf("Funcs[%d]", i), Block: -1, Instr: -1,
				Msg: "nil function"}
		}
		if j := p.Index(fn.Name); j != i {
			return &VerifyError{Func: fn.Name, Block: -1, Instr: -1,
				Msg: fmt.Sprintf("two functions named %s, at Funcs[%d] and Funcs[%d]", fn.Name, j, i)}
		}
		blocks = max(blocks, len(fn.Blocks))
		bits = max(bits, bitWords(fn)*(len(fn.Blocks)+1))
	}
	v := verifier{prog: p, index: make(map[*Block]int, blocks), bits: make([]uint64, bits)}
	for _, fn := range p.Funcs {
		if err := v.verifyFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

// verifier carries one Verify call's scratch from function to function, so
// a valid program costs a handful of allocations however many functions and
// blocks it has: the verifier runs after every pass of every compile under
// `go test`, on the success path every time.
type verifier struct {
	prog *Program
	fn   *Func
	// index maps each block of fn to its position in fn.Blocks: the
	// membership test for branch targets and the row of bits it owns.
	index map[*Block]int
	// bits holds one row of NumRegs bits per block (registers defined on
	// entry) plus one scratch row.
	bits []uint64
}

func (v *verifier) errf(b *Block, idx int, in *Instr, format string, args ...any) error {
	e := &VerifyError{Func: v.fn.Name, Block: -1, Instr: idx,
		Msg: fmt.Sprintf(format, args...)}
	if b != nil {
		e.Block = b.ID
	}
	if in != nil {
		e.Pos = in.Pos
	}
	return e
}

// bitWords is the length of one row of fn's register bits.
func bitWords(fn *Func) int { return max(1, (fn.NumRegs+63)/64) }

// verifyFunc checks one function.
func (v *verifier) verifyFunc(fn *Func) error {
	v.fn = fn
	if len(fn.Blocks) == 0 {
		return v.errf(nil, -1, nil, "function has no blocks")
	}
	if fn.Entry == nil {
		return v.errf(nil, -1, nil, "function has no entry block")
	}
	clear(v.index)
	for i, b := range fn.Blocks {
		v.index[b] = i
	}
	if _, ok := v.index[fn.Entry]; !ok {
		return v.errf(nil, -1, nil, "entry block b%d is not in the block list", fn.Entry.ID)
	}
	if len(fn.RegClasses) != fn.NumRegs {
		return v.errf(nil, -1, nil, "RegClasses has %d entries for %d registers",
			len(fn.RegClasses), fn.NumRegs)
	}

	// Structural checks per block: single trailing terminator, well-formed
	// edges.
	for _, b := range fn.Blocks {
		if len(b.Instrs) == 0 {
			return v.errf(b, -1, nil, "empty block (no terminator)")
		}
		for idx, in := range b.Instrs {
			last := idx == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return v.errf(b, idx, in, "block does not end in a terminator (got %v)", in.Op)
				}
				return v.errf(b, idx, in, "terminator %v in the middle of a block", in.Op)
			}
			if err := v.verifyInstr(b, idx, in); err != nil {
				return err
			}
		}
	}
	return v.verifyDefBeforeUse()
}

// verifyInstr checks operand arity, register ranges/classes and the
// packet-access typing rules for one instruction.
func (v *verifier) verifyInstr(b *Block, idx int, in *Instr) error {
	fn := v.fn
	// Register ranges. Args may use NoReg only in the optional index slot
	// of global and cache accesses (arg 0, except CacheFill whose arg 0
	// carries the CAM entry from its lookup and whose index is arg 1).
	optionalIndexSlot := -1
	switch in.Op {
	case OpLoad, OpStore, OpCacheLookup, OpCacheFlush:
		optionalIndexSlot = 0
	case OpCacheFill:
		optionalIndexSlot = 1
	}
	// role and i name the operand ("dst 0", "arg 1") and are formatted only
	// on the error path: every operand of every instruction passes here.
	checkReg := func(r Reg, role string, i int) error {
		if r == NoReg {
			if role != "arg" || i != optionalIndexSlot {
				return v.errf(b, idx, in, "%v: %s %d is NoReg", in.Op, role, i)
			}
			return nil
		}
		if r < 0 || int(r) >= fn.NumRegs {
			return v.errf(b, idx, in, "%v: %s %d register %d out of range [0,%d)",
				in.Op, role, i, int(r), fn.NumRegs)
		}
		return nil
	}
	for i, r := range in.Dst {
		if err := checkReg(r, "dst", i); err != nil {
			return err
		}
	}
	for i, r := range in.Args {
		if err := checkReg(r, "arg", i); err != nil {
			return err
		}
	}
	class := func(r Reg) RegClass { return fn.RegClasses[r] }

	// Register classes. The operand counts of these ops are not checked
	// here, so only the operands present are.
	words := func(regs []Reg) error {
		for _, r := range regs {
			if class(r) != ClassWord {
				return v.errf(b, idx, in, "%v: operand %v is a handle, want a word", in.Op, r)
			}
		}
		return nil
	}
	switch in.Op {
	case OpMov:
		if len(in.Dst) == 1 && len(in.Args) == 1 && class(in.Dst[0]) != class(in.Args[0]) {
			return v.errf(b, idx, in, "mov of %s %v into %s %v", class(in.Args[0]), in.Args[0],
				class(in.Dst[0]), in.Dst[0])
		}
	case OpEq, OpNe:
		if len(in.Args) == 2 && class(in.Args[0]) != class(in.Args[1]) {
			return v.errf(b, idx, in, "%v compares %s %v with %s %v", in.Op, class(in.Args[0]), in.Args[0],
				class(in.Args[1]), in.Args[1])
		}
		if err := words(in.Dst); err != nil {
			return err
		}
	case OpConst, OpAdd, OpSub, OpMul, OpDivU, OpRemU, OpAnd, OpOr, OpXor, OpShl, OpShrU, OpShrS,
		OpNot, OpNeg, OpLtU, OpLeU, OpLtS, OpLeS, OpCondBr:
		if err := words(in.Dst); err != nil {
			return err
		}
		if err := words(in.Args); err != nil {
			return err
		}
	case OpCall:
		if callee := v.prog.Func(in.Callee); callee != nil {
			for i, a := range in.Args {
				if i < len(callee.ParamClasses) && class(a) != callee.ParamClasses[i] {
					return v.errf(b, idx, in, "call passes %s %v for %s parameter %d of %s",
						class(a), a, callee.ParamClasses[i], i, in.Callee)
				}
			}
		}
	}

	// Terminator arity and edge targets.
	switch in.Op {
	case OpBr:
		if len(in.Blocks) != 1 {
			return v.errf(b, idx, in, "br with %d targets, want 1", len(in.Blocks))
		}
	case OpCondBr:
		if len(in.Blocks) != 2 {
			return v.errf(b, idx, in, "condbr with %d targets, want 2", len(in.Blocks))
		}
		if len(in.Args) != 1 {
			return v.errf(b, idx, in, "condbr with %d operands, want 1", len(in.Args))
		}
	case OpRet:
		if len(in.Blocks) != 0 {
			return v.errf(b, idx, in, "ret with branch targets")
		}
	default:
		if len(in.Blocks) != 0 {
			return v.errf(b, idx, in, "%v carries branch targets", in.Op)
		}
	}
	for _, t := range in.Blocks {
		if t == nil {
			return v.errf(b, idx, in, "%v: nil branch target", in.Op)
		}
		if _, ok := v.index[t]; !ok {
			return v.errf(b, idx, in, "%v: edge to b%d, which is not a block of %s",
				in.Op, t.ID, fn.Name)
		}
	}

	// Packet and metadata access typing.
	switch in.Op {
	case OpPktLoad, OpPktStore, OpMetaLoad, OpMetaStore:
		if len(in.Args) == 0 || in.Args[0] == NoReg {
			return v.errf(b, idx, in, "%v without a handle operand", in.Op)
		}
		if class(in.Args[0]) != ClassHandle {
			return v.errf(b, idx, in, "%v: handle operand %v has class word", in.Op, in.Args[0])
		}
		load := in.Op == OpPktLoad || in.Op == OpMetaLoad
		if in.Field != nil {
			if in.Field.Bits < 1 || in.Field.Bits > 32 {
				return v.errf(b, idx, in, "%v: field %s is %d bits, outside the 1..32 word range",
					in.Op, in.Field.Name, in.Field.Bits)
			}
			if load && len(in.Dst) != 1 {
				return v.errf(b, idx, in, "%v .%s: %d destinations, want 1",
					in.Op, in.Field.Name, len(in.Dst))
			}
			if !load && len(in.Args) != 2 {
				return v.errf(b, idx, in, "%v .%s: %d operands, want 2 (handle, value)",
					in.Op, in.Field.Name, len(in.Args))
			}
		} else {
			// Raw byte-range access (post-PAC form, packet and metadata
			// alike). The offset may be negative: PAC aliases handles
			// through encap/decap, so a combined range can start before
			// the base handle's header.
			if in.Width <= 0 || in.Width%4 != 0 {
				return v.errf(b, idx, in, "%v: raw width %d is not a positive word multiple",
					in.Op, in.Width)
			}
			if load && len(in.Dst) != in.Width/4 {
				return v.errf(b, idx, in, "%v raw[%d:%d]: %d destinations for width %d",
					in.Op, in.Off, int(in.Off)+in.Width, len(in.Dst), in.Width)
			}
			if !load && len(in.Args) != 1+in.Width/4 {
				return v.errf(b, idx, in, "%v raw[%d:%d]: %d operands for width %d",
					in.Op, in.Off, int(in.Off)+in.Width, len(in.Args), in.Width)
			}
		}
	case OpEncap, OpDecap:
		if len(in.Args) != 1 || len(in.Dst) != 1 {
			return v.errf(b, idx, in, "%v needs one handle in and one handle out", in.Op)
		}
		if class(in.Args[0]) != ClassHandle || class(in.Dst[0]) != ClassHandle {
			return v.errf(b, idx, in, "%v operands must be handles", in.Op)
		}
		if in.Proto == nil {
			return v.errf(b, idx, in, "%v without a protocol", in.Op)
		}
	case OpLoad, OpStore:
		if in.Global == nil {
			return v.errf(b, idx, in, "%v without a global", in.Op)
		}
		if in.Width < 0 || in.Width%4 != 0 {
			return v.errf(b, idx, in, "%v: width %d is not a word multiple", in.Op, in.Width)
		}
	}
	return nil
}

// verifyDefBeforeUse checks that every scalar register is written on every
// path from entry before it is read. The analysis is a forward dataflow
// over the CFG: a register is "defined at block entry" when it is defined
// at the exit of every predecessor (parameters are defined at the function
// entry). Blocks with no predecessors other than the entry are unreachable
// and start from the universal set, so they never raise false alarms.
func (v *verifier) verifyDefBeforeUse() error {
	fn := v.fn
	words, n := bitWords(fn), len(fn.Blocks)
	v.bits = v.bits[:words*(n+1)]
	for i := range v.bits {
		v.bits[i] = ^uint64(0)
	}
	// in(b) is the row of registers defined on entry to b; the row past the
	// last block is scratch.
	in := func(b *Block) []uint64 {
		i := v.index[b]
		return v.bits[i*words : (i+1)*words]
	}
	scratch := v.bits[n*words:]
	entry := in(fn.Entry)
	clear(entry)
	for _, p := range fn.Params {
		entry[int(p)/64] |= 1 << (uint(p) % 64)
	}
	define := func(set []uint64, i *Instr) {
		for _, d := range i.Dst {
			if d != NoReg {
				set[int(d)/64] |= 1 << (uint(d) % 64)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			// Succs may be stale between passes; take edges from the
			// terminator.
			t := b.Terminator()
			if t == nil {
				continue
			}
			out := scratch
			copy(out, in(b))
			for _, i := range b.Instrs {
				define(out, i)
			}
			for _, s := range t.Blocks {
				if s == fn.Entry {
					continue // entry keeps its parameter seed
				}
				cur := in(s)
				for w := range cur {
					if nv := cur[w] & out[w]; nv != cur[w] {
						cur[w] = nv
						changed = true
					}
				}
			}
		}
	}
	defined := scratch
	for _, b := range fn.Blocks {
		copy(defined, in(b))
		for idx, i := range b.Instrs {
			for _, a := range i.Args {
				if a == NoReg {
					continue
				}
				if defined[int(a)/64]&(1<<(uint(a)%64)) == 0 {
					return v.errf(b, idx, i, "%v reads %v before any definition reaches it",
						i.Op, a)
				}
			}
			define(defined, i)
		}
	}
	return nil
}
