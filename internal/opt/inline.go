package opt

import (
	"shangrila/internal/baker/token"
	"shangrila/internal/ir"
)

// InlineAll aggressively inlines every helper call into its callers (-O2).
// The paper notes aggressive inlining both exposes optimization
// opportunities and merges stack frames, which is essential for keeping the
// runtime stack in Local Memory (§5.4). Baker forbids recursion, so
// repeated inlining terminates. Only a function with a call to inline is
// written (ir.Program.Edit).
func InlineAll(p *ir.Program) {
	// Inline bottom-up: process helpers before their callers so each call
	// site is expanded at most once per callee body.
	order := helperTopoOrder(p)
	for _, name := range order {
		inlineCallsIn(p, name)
	}
	for _, f := range p.Funcs {
		if f.Kind != ir.FuncHelper {
			inlineCallsIn(p, f.Name)
		}
	}
}

// helperTopoOrder returns helpers in callee-before-caller order.
func helperTopoOrder(p *ir.Program) []string {
	visited := map[string]bool{}
	var order []string
	var visit func(name string)
	visit = func(name string) {
		if visited[name] {
			return
		}
		visited[name] = true
		f := p.Func(name)
		if f == nil {
			return
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					visit(in.Callee)
				}
			}
		}
		if f.Kind == ir.FuncHelper {
			order = append(order, name)
		}
	}
	for _, f := range p.Funcs {
		visit(f.Name)
	}
	return order
}

// inlineCallsIn replaces every call to a helper in the named function with
// the callee body. A function without such a call is left alone: every
// pass keeps its CFG computed, so the ComputeCFG that closes an inlining
// would change nothing in it.
func inlineCallsIn(p *ir.Program, name string) {
	if b, _ := nextCall(p, p.Func(name)); b == nil {
		return
	}
	f := p.Edit(name)
	for b, idx := nextCall(p, f); b != nil; b, idx = nextCall(p, f) {
		call := b.Instrs[idx]
		inlineCall(f, b, idx, call, p.Func(call.Callee))
	}
	f.ComputeCFG()
}

// nextCall locates the first call to a helper in f: its block and index,
// or a nil block.
func nextCall(p *ir.Program, f *ir.Func) (*ir.Block, int) {
	for _, b := range f.Blocks {
		for idx, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			if callee := p.Func(in.Callee); callee != nil && callee.Kind == ir.FuncHelper {
				return b, idx
			}
		}
	}
	return nil, 0
}

// inlineCall splices callee's body in place of the call at b.Instrs[idx].
// The callee's registers are renumbered above f's, in order. The new
// blocks, instructions, instruction lists, operand lists and branch-target
// lists are carved out of one slab each, sized from the callee; every
// carved slice has its capacity clipped, so a later pass appending to one
// reallocates rather than running into its neighbour.
func inlineCall(f *ir.Func, b *ir.Block, idx int, call *ir.Instr, callee *ir.Func) {
	base := ir.Reg(f.NumRegs)
	f.NumRegs += callee.NumRegs
	f.RegClasses = append(f.RegClasses, callee.RegClasses[:callee.NumRegs]...)
	mapReg := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return base + r
	}

	// Size the slabs. An instruction is copied as itself, except that a
	// return becomes "mov dst, val" (when both exist) and "br cont"; the
	// call becomes one mov per parameter and a branch into the inlined
	// entry.
	copies := func(cin *ir.Instr) int {
		if cin.Op == ir.OpRet && len(cin.Args) > 0 && len(call.Dst) > 0 {
			return 2
		}
		return 1
	}
	var nBody, nRegs, nTargets int
	for _, cb := range callee.Blocks {
		for _, cin := range cb.Instrs {
			n := copies(cin)
			nBody += n
			if cin.Op == ir.OpRet {
				nRegs += 2 * (n - 1)
				nTargets++
				continue
			}
			nRegs += len(cin.Dst) + len(cin.Args)
			nTargets += len(cin.Blocks)
		}
	}
	tail := len(b.Instrs) - idx - 1
	instrs := make([]ir.Instr, nBody+len(callee.Params)+1)
	ptrs := make([]*ir.Instr, nBody+tail)
	regs := make([]ir.Reg, nRegs+2*len(callee.Params))
	targets := make([]*ir.Block, nTargets+1)
	newInstr := func(in ir.Instr) *ir.Instr {
		p := &instrs[0]
		*p = in
		instrs = instrs[1:]
		return p
	}
	carve := func(n int) []ir.Reg {
		out := regs[:n:n]
		regs = regs[n:]
		return out
	}
	one := func(r ir.Reg) []ir.Reg {
		out := carve(1)
		out[0] = r
		return out
	}
	mapped := func(src []ir.Reg) []ir.Reg {
		if len(src) == 0 {
			return nil
		}
		out := carve(len(src))
		for i, r := range src {
			out[i] = mapReg(r)
		}
		return out
	}
	carveTargets := func(n int) []*ir.Block {
		out := targets[:n:n]
		targets = targets[n:]
		return out
	}
	br := func(pos token.Pos, to *ir.Block) *ir.Instr {
		t := carveTargets(1)
		t[0] = to
		return newInstr(ir.Instr{Op: ir.OpBr, Pos: pos, Blocks: t})
	}

	// The callee's blocks, then the continuation that receives the
	// instructions after the call.
	blocks := make([]ir.Block, len(callee.Blocks)+1)
	for i := range blocks {
		nb := &blocks[i]
		nb.ID = len(f.Blocks)
		f.Blocks = append(f.Blocks, nb)
	}
	cont := &blocks[len(callee.Blocks)]
	cont.Instrs, ptrs = ptrs[:tail:tail], ptrs[tail:]
	copy(cont.Instrs, b.Instrs[idx+1:])
	// copyOf finds the copy of a callee block: by ID when IDs are the
	// positions (ComputeCFG leaves them so), by search otherwise; nil for
	// a block the callee does not list.
	copyOf := func(cb *ir.Block) *ir.Block {
		if callee.Positioned(cb) {
			return &blocks[cb.ID]
		}
		for i, ob := range callee.Blocks {
			if ob == cb {
				return &blocks[i]
			}
		}
		return nil
	}

	for bi, cb := range callee.Blocks {
		nb := &blocks[bi]
		n := 0
		for _, cin := range cb.Instrs {
			n += copies(cin)
		}
		nb.Instrs, ptrs = ptrs[:0:n], ptrs[n:]
		for _, cin := range cb.Instrs {
			if cin.Op == ir.OpRet {
				// Return becomes: mov dst, val; br cont.
				if copies(cin) == 2 {
					nb.Instrs = append(nb.Instrs, newInstr(ir.Instr{
						Op: ir.OpMov, Pos: cin.Pos,
						Dst:  one(call.Dst[0]),
						Args: one(mapReg(cin.Args[0])),
					}))
				}
				nb.Instrs = append(nb.Instrs, br(cin.Pos, cont))
				continue
			}
			cp := newInstr(*cin)
			cp.Dst = mapped(cin.Dst)
			cp.Args = mapped(cin.Args)
			cp.Blocks = nil
			if len(cin.Blocks) > 0 {
				cp.Blocks = carveTargets(len(cin.Blocks))
				for i, t := range cin.Blocks {
					cp.Blocks[i] = copyOf(t)
				}
			}
			nb.Instrs = append(nb.Instrs, cp)
		}
	}
	// Truncate caller block: args setup + jump into the inlined entry.
	b.Instrs = b.Instrs[:idx]
	for i, p := range callee.Params {
		b.Instrs = append(b.Instrs, newInstr(ir.Instr{
			Op: ir.OpMov, Pos: call.Pos,
			Dst:  one(mapReg(p)),
			Args: one(call.Args[i]),
		}))
	}
	b.Instrs = append(b.Instrs, br(call.Pos, copyOf(callee.Entry)))
}

// CallCount returns the number of OpCall instructions in f (test helper
// and code-size input for aggregation).
func CallCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				n++
			}
		}
	}
	return n
}

// InstrCount returns the static instruction count of f.
func InstrCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
