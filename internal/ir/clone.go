package ir

// Clone deep-copies a function: fresh blocks and instructions in the same
// order, the same register numbering and the same CFG edges. The copy is
// not frozen. Program.Edit takes its private copies with it, and
// aggregation its internal-channel helper bodies.
//
// The copy's blocks, instructions, operand lists, branch-target lists and
// CFG edge lists are carved out of one slab each, sized by a counting walk,
// instead of being allocated one at a time; every carved slice has its
// capacity clipped to what it was carved for, so a pass appending to one
// reallocates rather than running into its neighbour.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:         f.Name,
		Kind:         f.Kind,
		Params:       append([]Reg(nil), f.Params...),
		ParamClasses: append([]RegClass(nil), f.ParamClasses...),
		NumRegs:      f.NumRegs,
		RegClasses:   append([]RegClass(nil), f.RegClasses...),
		InProto:      f.InProto,
		Source:       f.Source,
	}
	var nInstrs, nRegs, nTargets, nEdges int
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Preds) + len(b.Succs)
		for _, in := range b.Instrs {
			nRegs += len(in.Dst) + len(in.Args)
			nTargets += len(in.Blocks)
		}
	}
	blocks := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	instrs := make([]Instr, nInstrs)
	instrPtrs := make([]*Instr, nInstrs)
	regs := make([]Reg, nRegs)
	targets := make([]*Block, nTargets+nEdges)

	// copyOf finds the copy of one of f's blocks: by ID when IDs are the
	// positions (ComputeCFG leaves them so), by search otherwise; nil for a
	// block f does not list.
	copyOf := func(b *Block) *Block {
		if f.Positioned(b) {
			return &blocks[b.ID]
		}
		for i, ob := range f.Blocks {
			if ob == b {
				return &blocks[i]
			}
		}
		return nil
	}
	carveRegs := func(src []Reg) []Reg {
		if len(src) == 0 {
			return nil
		}
		n := copy(regs, src)
		out := regs[:n:n]
		regs = regs[n:]
		return out
	}
	carveBlocks := func(src []*Block) []*Block {
		if src == nil {
			return nil
		}
		n := len(src)
		out := targets[:n:n]
		targets = targets[n:]
		for i, b := range src {
			out[i] = copyOf(b)
		}
		return out
	}
	for bi, b := range f.Blocks {
		nb := &blocks[bi]
		nb.ID = b.ID
		nf.Blocks[bi] = nb
		nb.Preds, nb.Succs = carveBlocks(b.Preds), carveBlocks(b.Succs)
		n := len(b.Instrs)
		nb.Instrs, instrPtrs = instrPtrs[:n:n], instrPtrs[n:]
		for ii, in := range b.Instrs {
			cp := &instrs[ii]
			*cp = *in
			cp.Dst = carveRegs(in.Dst)
			cp.Args = carveRegs(in.Args)
			cp.Blocks = carveBlocks(in.Blocks)
			nb.Instrs[ii] = cp
		}
		instrs = instrs[n:]
	}
	nf.Entry = copyOf(f.Entry)
	return nf
}

// CloneProgram deep-copies every function of p (sharing the immutable type
// information). The copy shares nothing else with p and is not frozen;
// Program.Freeze is the copy that shares.
func CloneProgram(p *Program) *Program {
	np := &Program{Types: p.Types, Funcs: make([]*Func, len(p.Funcs)), NumLocks: p.NumLocks}
	for i, f := range p.Funcs {
		np.Funcs[i] = f.Clone()
	}
	return np
}
