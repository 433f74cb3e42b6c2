package opt

import (
	"slices"

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
// The callee's registers are renumbered above f's, in order, and its
// blocks are copied by ir.Func.AppendBody; each copied return becomes
// "mov dst, val" (when both exist) and a branch to the continuation block,
// which receives the instructions after the call.
func inlineCall(f *ir.Func, b *ir.Block, idx int, call *ir.Instr, callee *ir.Func) {
	base := ir.Reg(f.NumRegs)
	f.NumRegs += callee.NumRegs
	f.RegClasses = append(f.RegClasses, callee.RegClasses[:callee.NumRegs]...)
	first := len(f.Blocks)
	entry := f.AppendBody(callee, base)
	body := f.Blocks[first:]
	cont := &ir.Block{ID: len(f.Blocks), Instrs: append([]*ir.Instr(nil), b.Instrs[idx+1:]...)}
	f.Blocks = append(f.Blocks, cont)
	for _, nb := range body {
		for i := 0; i < len(nb.Instrs); i++ {
			in := nb.Instrs[i]
			if in.Op != ir.OpRet {
				continue
			}
			val := in.Args
			*in = ir.Instr{Op: ir.OpBr, Pos: in.Pos, Blocks: []*ir.Block{cont}}
			if len(val) > 0 && len(call.Dst) > 0 {
				mov := &ir.Instr{Op: ir.OpMov, Pos: in.Pos, Dst: []ir.Reg{call.Dst[0]}, Args: val[:1:1]}
				nb.Instrs = slices.Insert(nb.Instrs, i, mov)
				i++
			}
		}
	}
	// Truncate caller block: args setup + jump into the inlined entry.
	b.Instrs = b.Instrs[:idx]
	for i, p := range callee.Params {
		b.Instrs = append(b.Instrs, &ir.Instr{
			Op: ir.OpMov, Pos: call.Pos,
			Dst:  []ir.Reg{base + p},
			Args: []ir.Reg{call.Args[i]},
		})
	}
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpBr, Pos: call.Pos, Blocks: []*ir.Block{entry}})
}
