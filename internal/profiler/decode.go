package profiler

import (
	"fmt"

	"shangrila/internal/ir"
)

// slot is one predecoded instruction. Registers are window-relative
// indices, -1 when absent; an operand list too long for dst/a/b (call
// arguments, wide and raw accesses, cache-lookup results) is
// code.ext[ext:ext+n]. Payload the Env or the packet model takes by
// pointer (Global, Field, Chan, Proto) and the source position stay on in.
type slot struct {
	op        ir.Op
	in        *ir.Instr
	dst, a, b int32
	imm       uint32 // constant, byte offset, lock or protocol ID, callee index, taken branch
	alt       uint32 // not-taken branch, global size, raw access width
	ext, n    int32
}

// block is one basic block's side-table entry. Every instruction of an
// entered block runs unless the activation fails, and a failed run yields
// no statistics, so the static costs of the blocks an activation enters
// sum to its exact dynamic counts.
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
	fn          *ir.Func
	id          int32 // index in Interp.codes
	slots       []slot
	ext         []int32
	blocks      []block
	entry       uint32  // fn.Entry's index in blocks
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

// arity bounds each op's operand lists: {fewest results, most results,
// fewest operands, most operands}.
const many = 127

var arity = [ir.OpCacheFlush + 1][4]int8{
	ir.OpConst: {1, 1, 0, 0}, ir.OpMov: {1, 1, 1, 1}, ir.OpNot: {1, 1, 1, 1}, ir.OpNeg: {1, 1, 1, 1},
	ir.OpAdd: {1, 1, 2, 2}, ir.OpSub: {1, 1, 2, 2}, ir.OpMul: {1, 1, 2, 2}, ir.OpDivU: {1, 1, 2, 2},
	ir.OpRemU: {1, 1, 2, 2}, ir.OpAnd: {1, 1, 2, 2}, ir.OpOr: {1, 1, 2, 2}, ir.OpXor: {1, 1, 2, 2},
	ir.OpShl: {1, 1, 2, 2}, ir.OpShrU: {1, 1, 2, 2}, ir.OpShrS: {1, 1, 2, 2},
	ir.OpEq: {1, 1, 2, 2}, ir.OpNe: {1, 1, 2, 2}, ir.OpLtU: {1, 1, 2, 2}, ir.OpLeU: {1, 1, 2, 2},
	ir.OpLtS: {1, 1, 2, 2}, ir.OpLeS: {1, 1, 2, 2},
	ir.OpBr: {0, 0, 0, 0}, ir.OpCondBr: {0, 0, 1, 1}, ir.OpRet: {0, 0, 0, 1}, ir.OpCall: {0, 1, 0, many},
	ir.OpLoad: {1, many, 0, 1}, ir.OpStore: {0, 0, 2, many},
	ir.OpPktLoad: {1, many, 1, 1}, ir.OpPktStore: {0, 0, 2, many},
	ir.OpMetaLoad: {1, many, 1, 1}, ir.OpMetaStore: {0, 0, 2, many},
	ir.OpEncap: {1, 1, 1, 1}, ir.OpDecap: {1, 1, 1, 1}, ir.OpPktCopy: {1, 1, 1, 1}, ir.OpPktCreate: {1, 1, 0, 0},
	ir.OpPktDrop: {0, 0, 1, 1}, ir.OpAddTail: {0, 0, 2, 2}, ir.OpRemoveTail: {0, 0, 2, 2}, ir.OpPktLength: {1, 1, 1, 1},
	ir.OpChanPut: {0, 0, 1, 1}, ir.OpLockAcquire: {0, 0, 0, 0}, ir.OpLockRelease: {0, 0, 0, 0},
	ir.OpCacheLookup: {0, many, 0, many}, ir.OpCacheFill: {0, 0, 0, many}, ir.OpCacheFlush: {0, 0, 0, many},
}

// decode fills c.slots from c.fn on first use. It rejects, with the
// instruction's position, anything the executor would otherwise index or
// dereference blindly: operand counts, registers outside the window,
// missing payload, unknown callees and branch targets. A block without a
// terminator decodes to a trailing OpInvalid slot that fails when reached.
func (it *Interp) decode(c *code) error {
	if c.slots != nil {
		return nil
	}
	fn := c.fn
	index := make(map[*ir.Block]uint32, len(fn.Blocks))
	n := 0
	for i, b := range fn.Blocks {
		index[b] = uint32(i)
		n += len(b.Instrs)
	}
	entry, ok := index[fn.Entry]
	if !ok {
		return fmt.Errorf("interp: %s has no entry block", fn.Name)
	}
	outside := func(r ir.Reg) bool { return r < 0 || int(r) >= fn.NumRegs }
	at := func(regs []ir.Reg, i int) int32 {
		if i < len(regs) {
			return int32(regs[i])
		}
		return -1
	}
	for _, p := range fn.Params {
		if outside(p) {
			return fmt.Errorf("interp: %s parameter %s outside its %d registers", fn.Name, p, fn.NumRegs)
		}
	}
	slots := make([]slot, 0, n)
	blocks := make([]block, len(fn.Blocks))
	var ext []int32
	var calls []*code
	for bi, b := range fn.Blocks {
		blk := &blocks[bi]
		blk.start, blk.cost = int32(len(slots)), uint64(len(b.Instrs))
		for i, in := range b.Instrs {
			if in.Op <= ir.OpInvalid || int(in.Op) >= len(arity) {
				return execErr(in, "interp: unhandled op %s", in.Op)
			}
			if in.Op.IsTerminator() && i != len(b.Instrs)-1 {
				return execErr(in, "interp: %s inside block b%d", in.Op, b.ID)
			}
			ar, nd, na := arity[in.Op], len(in.Dst), len(in.Args)
			if nd < int(ar[0]) || nd > int(ar[1]) || na < int(ar[2]) || na > int(ar[3]) {
				return execErr(in, "interp: %s with %d results and %d operands", in.Op, nd, na)
			}
			// A global access's index register may be absent, and the host
			// ignores the cache ops' operands; every other register is used.
			for j, r := range in.Args {
				absent := r == ir.NoReg && j == 0 && (in.Op == ir.OpLoad || in.Op == ir.OpStore)
				if outside(r) && !absent && in.Op < ir.OpCacheLookup {
					return execErr(in, "interp: %s reads register %s outside %s's %d", in.Op, r, fn.Name, fn.NumRegs)
				}
			}
			for _, r := range in.Dst {
				if outside(r) {
					return execErr(in, "interp: %s writes register %s outside %s's %d", in.Op, r, fn.Name, fn.NumRegs)
				}
			}
			s := slot{op: in.Op, in: in, dst: at(in.Dst, 0), a: at(in.Args, 0), b: at(in.Args, 1), imm: uint32(in.Imm)}
			list := func(regs []ir.Reg) {
				s.ext, s.n = int32(len(ext)), int32(len(regs))
				for _, r := range regs {
					ext = append(ext, int32(r))
				}
			}
			var bad string
			switch in.Op {
			case ir.OpBr, ir.OpCondBr:
				if len(in.Blocks) != 1+na { // a conditional branch has its condition and a second target
					bad = fmt.Sprintf("%d branch targets", len(in.Blocks))
					break
				}
				t0, ok0 := index[in.Blocks[0]]
				t1, ok1 := index[in.Blocks[na]]
				if !ok0 || !ok1 {
					bad = "a branch target outside the function"
				}
				s.imm, s.alt = t0, t1
			case ir.OpCall:
				if callee := it.Prog.Func(in.Callee); callee == nil {
					bad = fmt.Sprintf("unknown callee %q", in.Callee)
				} else if na != len(callee.Params) {
					bad = fmt.Sprintf("%d arguments for %s, which takes %d", na, in.Callee, len(callee.Params))
				} else {
					s.imm = uint32(len(calls))
					calls = append(calls, it.codeOf(callee))
					list(in.Args)
				}
			case ir.OpLoad, ir.OpStore:
				if in.Global == nil {
					bad = "no global"
					break
				}
				s.imm, s.alt = uint32(in.Off), uint32(in.Global.Type.SizeBytes())
				if list(in.Dst); in.Op == ir.OpStore {
					list(in.Args[1:])
				}
				blk.cost += memUnit
			case ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
				vals := in.Dst
				if nd == 0 {
					vals = in.Args[1:] // a store's words follow its handle
				}
				meta := in.Op == ir.OpMetaLoad || in.Op == ir.OpMetaStore
				if in.Field != nil && len(vals) != 1 {
					bad = fmt.Sprintf("%d values for field %s", len(vals), in.Field.Name)
				} else if in.Field == nil && (in.Width < 4*len(vals) || meta && in.Off < 0) {
					bad = fmt.Sprintf("%d words in a raw access of %d bytes at %d", len(vals), in.Width, in.Off)
				} else if in.Field == nil {
					s.imm, s.alt = uint32(in.Off), uint32(in.Width)
					list(vals)
				}
				blk.cost += memUnit
			case ir.OpDecap:
				if in.Imm >= uint64(len(it.Prog.Types.ProtoByID)) {
					bad = fmt.Sprintf("unknown protocol ID %d", in.Imm)
				}
			case ir.OpEncap, ir.OpPktCreate, ir.OpChanPut:
				if in.Op == ir.OpChanPut && in.Chan == nil || in.Op != ir.OpChanPut && in.Proto == nil {
					bad = "no channel or protocol"
				}
			case ir.OpCacheLookup:
				list(in.Dst)
			}
			if bad != "" {
				return execErr(in, "interp: %s with %s", in.Op, bad)
			}
			slots = append(slots, s)
		}
		if b.Terminator() == nil { // an error to run off, but not to have: the block may be unreachable
			slots = append(slots, slot{op: ir.OpInvalid, imm: uint32(b.ID)})
		}
	}
	c.slots, c.ext, c.blocks, c.entry, c.calls = slots, ext, blocks, entry, calls
	return nil
}
