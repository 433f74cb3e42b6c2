package ir

// Clone deep-copies a function: fresh blocks and instructions in the same
// order, the same register numbering and the same CFG edges. The copy is
// not frozen. Program.Edit takes its private copies with it, and
// aggregation its internal-channel helper bodies.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:         f.Name,
		Kind:         f.Kind,
		Params:       append([]Reg(nil), f.Params...),
		ParamClasses: append([]RegClass(nil), f.ParamClasses...),
		NumRegs:      f.NumRegs,
		RegClasses:   append([]RegClass(nil), f.RegClasses...),
		Blocks:       make([]*Block, 0, len(f.Blocks)),
		InProto:      f.InProto,
		Source:       f.Source,
	}
	nf.Entry = nf.AppendBody(f, 0)
	return nf
}

// AppendBody appends a copy of src's blocks to f and returns the copy of
// src's entry: the one IR body copier, behind Clone and the inliner. Every
// register of the copy is src's plus base (NoReg stays NoReg), every block
// ID src's plus the number of blocks f had, and branch targets and CFG
// edges name the copies; a target src does not list becomes nil. The
// caller owns the registers: f's NumRegs and RegClasses are left alone.
//
// The copy's blocks, instructions, operand lists, branch-target lists and
// CFG edge lists are carved out of one slab each, sized by a counting walk,
// instead of being allocated one at a time; every carved slice has its
// capacity clipped to what it was carved for, so a pass appending to one
// reallocates rather than running into its neighbour.
func (f *Func) AppendBody(src *Func, base Reg) *Block {
	var nInstrs, nRegs, nTargets, nEdges int
	for _, b := range src.Blocks {
		nInstrs += len(b.Instrs)
		nEdges += len(b.Preds) + len(b.Succs)
		for _, in := range b.Instrs {
			nRegs += len(in.Dst) + len(in.Args)
			nTargets += len(in.Blocks)
		}
	}
	idBase := len(f.Blocks)
	blocks := make([]Block, len(src.Blocks))
	instrs := make([]Instr, nInstrs)
	instrPtrs := make([]*Instr, nInstrs)
	regs := make([]Reg, nRegs)
	targets := make([]*Block, nTargets+nEdges)

	// copyOf finds the copy of one of src's blocks: by ID when IDs are the
	// positions (ComputeCFG leaves them so), by search otherwise; nil for a
	// block src does not list.
	copyOf := func(b *Block) *Block {
		if src.Positioned(b) {
			return &blocks[b.ID]
		}
		for i, ob := range src.Blocks {
			if ob == b {
				return &blocks[i]
			}
		}
		return nil
	}
	carveRegs := func(rs []Reg) []Reg {
		if len(rs) == 0 {
			return nil
		}
		n := len(rs)
		out := regs[:n:n]
		regs = regs[n:]
		for i, r := range rs {
			if r != NoReg {
				r += base
			}
			out[i] = r
		}
		return out
	}
	carveBlocks := func(bs []*Block) []*Block {
		if bs == nil {
			return nil
		}
		n := len(bs)
		out := targets[:n:n]
		targets = targets[n:]
		for i, b := range bs {
			out[i] = copyOf(b)
		}
		return out
	}
	for bi, b := range src.Blocks {
		nb := &blocks[bi]
		nb.ID = idBase + b.ID
		f.Blocks = append(f.Blocks, nb)
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
	return copyOf(src.Entry)
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
