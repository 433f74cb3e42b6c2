package opt

import "shangrila/internal/ir"

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
func inlineCall(f *ir.Func, b *ir.Block, idx int, call *ir.Instr, callee *ir.Func) {
	// Map callee registers to fresh caller registers.
	regMap := make([]ir.Reg, callee.NumRegs)
	for r := 0; r < callee.NumRegs; r++ {
		regMap[r] = f.NewReg(callee.RegClasses[r])
	}
	// Clone callee blocks.
	blockMap := map[*ir.Block]*ir.Block{}
	for _, cb := range callee.Blocks {
		blockMap[cb] = f.NewBlock()
	}
	// Continuation receives the instructions after the call.
	cont := f.NewBlock()
	cont.Instrs = append(cont.Instrs, b.Instrs[idx+1:]...)

	mapReg := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return ir.NoReg
		}
		return regMap[r]
	}
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, cin := range cb.Instrs {
			if cin.Op == ir.OpRet {
				// Return becomes: mov dst, val; br cont.
				if len(cin.Args) > 0 && len(call.Dst) > 0 {
					nb.Instrs = append(nb.Instrs, &ir.Instr{
						Op: ir.OpMov, Pos: cin.Pos,
						Dst:  []ir.Reg{call.Dst[0]},
						Args: []ir.Reg{mapReg(cin.Args[0])},
					})
				}
				nb.Instrs = append(nb.Instrs, &ir.Instr{
					Op: ir.OpBr, Pos: cin.Pos, Blocks: []*ir.Block{cont},
				})
				continue
			}
			cp := *cin
			cp.Dst = append([]ir.Reg(nil), cin.Dst...)
			cp.Args = append([]ir.Reg(nil), cin.Args...)
			cp.Blocks = append([]*ir.Block(nil), cin.Blocks...)
			for i, d := range cp.Dst {
				cp.Dst[i] = mapReg(d)
			}
			for i, a := range cp.Args {
				cp.Args[i] = mapReg(a)
			}
			for i, t := range cp.Blocks {
				cp.Blocks[i] = blockMap[t]
			}
			nb.Instrs = append(nb.Instrs, &cp)
		}
	}
	// Truncate caller block: args setup + jump into the inlined entry.
	b.Instrs = b.Instrs[:idx]
	for i, p := range callee.Params {
		b.Instrs = append(b.Instrs, &ir.Instr{
			Op: ir.OpMov, Pos: call.Pos,
			Dst:  []ir.Reg{regMap[p]},
			Args: []ir.Reg{call.Args[i]},
		})
	}
	b.Instrs = append(b.Instrs, &ir.Instr{
		Op: ir.OpBr, Pos: call.Pos, Blocks: []*ir.Block{blockMap[callee.Entry]},
	})
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
