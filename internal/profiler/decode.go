package profiler

import "shangrila/internal/ir"

// slot is one predecoded instruction. Registers are indices into the
// word bank or the handle bank of the activation's window, by the class
// the op gives the operand, -1 when absent; an operand list too long for
// dst/a/b (call arguments, wide and raw accesses, cache-lookup results) is
// code.ext[ext:ext+n]. Payload the Env or the packet model takes by
// pointer (Global, Field, Chan, Proto) and the source position stay on in.
type slot struct {
	op        ir.Op
	in        *ir.Instr
	dst, a, b int32
	c         int32  // a fused constant's word register
	k         uint32 // a fused constant's value
	imm       uint32 // constant, byte offset, lock or protocol ID, callee index, taken branch
	alt       uint32 // not-taken branch, global size, raw access width, a call result's class
	g         int32  // a host global access's Global.ID
	ext, n    int32
}

// Executor-internal opcodes: the forms decode gives an instruction by its
// operands' class, its Env and its neighbours. They follow ir.OpCacheFlush
// with no gap, so exec's switch stays one jump table.
const (
	// Handle-class mov, eq, ne and ret.
	opHMov = ir.OpCacheFlush + 1 + iota
	opHEq
	opHNe
	opHRet
	// Loads and stores of a global of the Interp's own hostEnv, g its ID.
	opHostLoad
	opHostStore
	// A const, a mul by it and the host load it indexes: words[c] = k,
	// words[a] = words[b]·k, then opHostLoad with index a.
	opScaledLoad
	// A const fused into the word op after it that reads it: words[c] =
	// k, then the op with k as its second operand. The ops are in ir's
	// order, less divu, remu, not and neg, which constForm relies on.
	opMovK
	opAddK
	opSubK
	opMulK
	opAndK
	opOrK
	opXorK
	opShlK
	opShrUK
	opShrSK
	opEqK
	opNeK
	opLtUK
	opLeUK
	opLtSK
	opLeSK
	// A word comparison fused into the conditional branch that tests its
	// result, with registers (a, b) or with a fused constant (a, k), in
	// ir's order, which branchForm relies on.
	opEqBr
	opNeBr
	opLtUBr
	opLeUBr
	opLtSBr
	opLeSBr
	opEqKBr
	opNeKBr
	opLtUKBr
	opLeUKBr
	opLtSKBr
	opLeSKBr
)

// block is one basic block's side-table entry. Every instruction of an
// entered block runs unless the activation fails, and a failed run yields
// no statistics, so the static costs of the blocks an activation enters
// sum to its exact dynamic counts. Fusion changes how many slots a block
// has, never its cost.
type block struct {
	start int32  // first slot
	cost  uint64 // instructions, plus memUnit per global, packet or metadata access among them
}

// memUnit is a memory access in a cost: the low half of a cost counts
// instructions, charged to the step budget on a block's entry, and the
// high half the memory accesses among them.
const memUnit = 1 << 32

// code is one function's decoded body. slots is nil until the function is
// first activated: callers hold the shell so a call needs no lookup.
type code struct {
	fn     *ir.Func
	id     int32 // index in Interp.codes
	slots  []slot
	ext    []int32
	blocks []block
	entry  uint32 // fn.Entry's index in blocks
	// nw and nh size the activation's word and handle windows. params
	// holds each parameter's bank index: a word's as is, a handle's
	// complemented.
	nw, nh      int32
	params      []int32
	calls       []*code // OpCall callees, indexed by slot.imm
	invocations uint64  // activations as a PPF (runPPF)
	instrs, mem uint64  // executed by the activations that returned
}

func (c *code) list(s *slot) []int32 { return c.ext[s.ext : s.ext+s.n] }

// codeOf returns fn's shell, creating it on first sight.
func (it *Interp) codeOf(fn *ir.Func) *code {
	c := it.code[fn]
	if c == nil {
		if it.code == nil {
			it.code = map[*ir.Func]*code{}
		}
		c = &code{fn: fn, id: int32(len(it.codes))}
		it.code[fn] = c
		it.codes = append(it.codes, c)
	}
	return c
}

// decode fills c.slots from c.fn on first use. The executor runs only
// functions that verify: decode returns ir.VerifyFunc's *ir.VerifyError as
// it is, and refuses nothing itself. The rest is translation: each
// register gets an index in the bank of its class, each instruction a slot,
// a global of the Interp's own hostEnv its ID, and each block's slots are
// then fused (fuse).
func (it *Interp) decode(c *code) error {
	if c.slots != nil {
		return nil
	}
	fn := c.fn
	if err := ir.VerifyFunc(it.Prog, fn); err != nil {
		return err
	}
	index := make(map[*ir.Block]uint32, len(fn.Blocks))
	n := 0
	for i, b := range fn.Blocks {
		index[b] = uint32(i)
		n += len(b.Instrs)
	}
	// Each register gets the next index in the bank of its class.
	bank := make([]int32, fn.NumRegs)
	var nw, nh int32
	for r, class := range fn.RegClasses {
		if class == ir.ClassHandle {
			bank[r], nh = nh, nh+1
		} else {
			bank[r], nw = nw, nw+1
		}
	}
	handle := func(r ir.Reg) bool { return fn.RegClasses[r] == ir.ClassHandle }
	at := func(regs []ir.Reg, i int) int32 {
		if i < len(regs) && regs[i] != ir.NoReg { // a global or cache access's index may be absent
			return bank[regs[i]]
		}
		return -1
	}
	params := make([]int32, len(fn.Params))
	for i, p := range fn.Params {
		if params[i] = bank[p]; handle(p) {
			params[i] = ^bank[p]
		}
	}
	slots := make([]slot, 0, n)
	blocks := make([]block, len(fn.Blocks))
	var ext []int32
	var calls []*code
	for bi, b := range fn.Blocks {
		blk := &blocks[bi]
		blk.start, blk.cost = int32(len(slots)), uint64(len(b.Instrs))
		for _, in := range b.Instrs {
			s := slot{op: in.Op, in: in, dst: at(in.Dst, 0), a: at(in.Args, 0), b: at(in.Args, 1), c: -1, imm: uint32(in.Imm)}
			list := func(regs []ir.Reg) {
				s.ext, s.n = int32(len(ext)), int32(len(regs))
				for _, r := range regs {
					ext = append(ext, bank[r])
				}
			}
			switch in.Op {
			case ir.OpMov, ir.OpEq, ir.OpNe, ir.OpRet:
				// A handle mov, eq, ne or ret has a form of its own.
				if len(in.Args) > 0 && handle(in.Args[0]) {
					switch in.Op {
					case ir.OpMov:
						s.op = opHMov
					case ir.OpEq:
						s.op = opHEq
					case ir.OpNe:
						s.op = opHNe
					case ir.OpRet:
						s.op = opHRet
					}
				}
			case ir.OpBr, ir.OpCondBr: // a conditional branch has its condition and a second target
				s.imm, s.alt = index[in.Blocks[0]], index[in.Blocks[len(in.Args)]]
			case ir.OpCall:
				s.imm = uint32(len(calls))
				calls = append(calls, it.codeOf(it.Prog.Func(in.Callee)))
				list(in.Args)
				if len(in.Dst) == 1 && handle(in.Dst[0]) {
					s.alt = uint32(ir.ClassHandle)
				}
			case ir.OpLoad, ir.OpStore:
				g := in.Global
				s.imm, s.alt = uint32(in.Off), uint32(g.Type.SizeBytes())
				if list(in.Dst); in.Op == ir.OpStore {
					list(in.Args[1:])
				}
				// A global the Interp's own hostEnv holds is read and written
				// in place; any other goes through the Env, which names it.
				if h := it.host; h != nil && g.ID >= 0 && g.ID < len(h.globals) && h.globals[g.ID].g == g {
					s.op, s.g = opHostLoad, int32(g.ID)
					if in.Op == ir.OpStore {
						s.op = opHostStore
					}
				}
				blk.cost += memUnit
			case ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
				if in.Field == nil {
					vals := in.Dst
					if len(vals) == 0 {
						vals = in.Args[1:] // a store's words follow its handle
					}
					s.imm, s.alt = uint32(in.Off), uint32(in.Width)
					list(vals)
				}
				blk.cost += memUnit
			case ir.OpCacheLookup:
				list(in.Dst)
			}
			slots = append(slots, s)
		}
		slots = slots[:int(blk.start)+len(fuse(slots[blk.start:]))]
	}
	c.slots, c.ext, c.blocks, c.entry, c.calls = slots, ext, blocks, index[fn.Entry], calls
	c.nw, c.nh, c.params = nw, nh, params
	return nil
}

// fuse rewrites one block's decoded slots in place into superinstructions
// and returns the shortened list: a const and the word op right after it
// that reads it become one slot that writes both registers; a const
// multiply and the host load right after it that it indexes (a table
// entry's field) become one slot; and a word comparison, fused or not,
// and the conditional branch right after it that tests its result become
// one slot that also branches. Only adjacent slots fuse, so no other slot
// sees a register between the writes.
func fuse(ss []slot) []slot {
	out := ss[:0]
	for i := 0; i < len(ss); i++ {
		s := ss[i]
		if s.op == ir.OpConst && i+1 < len(ss) {
			if k, ok := constForm(s, ss[i+1]); ok {
				s, i = k, i+1
			}
		}
		if s.op == opMulK && i+1 < len(ss) && ss[i+1].op == opHostLoad && ss[i+1].a == s.dst {
			ld := ss[i+1]
			ld.op, ld.b, ld.c, ld.k = opScaledLoad, s.a, s.c, s.k
			s, i = ld, i+1
		}
		if i+1 < len(ss) && ss[i+1].op == ir.OpCondBr && ss[i+1].a == s.dst {
			if op := branchForm(s.op); op != 0 {
				s.op, s.imm, s.alt, s.in = op, ss[i+1].imm, ss[i+1].alt, ss[i+1].in
				i++
			}
		}
		out = append(out, s)
	}
	return out
}

// constForm returns the fusion of const k and word op s when s reads k's
// register: as its second operand, or as its first when the op commutes.
func constForm(k, s slot) (slot, bool) {
	var op ir.Op
	switch {
	case s.op == ir.OpMov:
		if s.a == k.dst {
			return slot{op: opMovK, in: s.in, dst: s.dst, a: -1, b: -1, c: k.dst, k: k.imm}, true
		}
		return s, false
	case ir.OpAdd <= s.op && s.op <= ir.OpMul:
		op = opAddK + s.op - ir.OpAdd
	case ir.OpAnd <= s.op && s.op <= ir.OpShrS:
		op = opAndK + s.op - ir.OpAnd
	case s.op.IsCompare():
		op = opEqK + s.op - ir.OpEq
	default:
		return s, false
	}
	a := s.a
	switch {
	case s.b == k.dst:
	case s.op.Commutes() && s.a == k.dst:
		a = s.b
	default:
		return s, false
	}
	return slot{op: op, in: s.in, dst: s.dst, a: a, b: -1, c: k.dst, k: k.imm}, true
}

// branchForm returns the compare-and-branch form of a word comparison,
// 0 for any other op.
func branchForm(op ir.Op) ir.Op {
	switch {
	case op.IsCompare():
		return opEqBr + op - ir.OpEq
	case opEqK <= op && op <= opLeSK:
		return opEqKBr + op - opEqK
	}
	return 0
}
