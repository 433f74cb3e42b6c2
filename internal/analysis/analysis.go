// Package analysis provides the CFG analyses shared by the optimizer and
// code generator: dominators, liveness over one backward bitset solver, and
// side-effect and definition-count inspection of IR instructions.
package analysis

import (
	"math/bits"

	"shangrila/internal/ir"
)

// HasSideEffects reports whether in must be preserved even if its results
// are unused.
func HasSideEffects(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpPktStore, ir.OpMetaStore, ir.OpChanPut,
		ir.OpPktDrop, ir.OpAddTail, ir.OpRemoveTail,
		ir.OpLockAcquire, ir.OpLockRelease, ir.OpCall,
		ir.OpBr, ir.OpCondBr, ir.OpRet,
		ir.OpEncap, ir.OpDecap, // they move the packet's head pointer
		ir.OpPktCopy, ir.OpPktCreate, // allocation
		ir.OpCacheFill, ir.OpCacheFlush:
		return true
	case ir.OpDivU, ir.OpRemU:
		return true // may trap on zero
	}
	return false
}

// Bits is a dense set of small non-negative integers: the registers of one
// function (ir.Reg is dense per function) or the virtual registers of one
// CGIR program.
type Bits []uint64

// NewBits returns an empty set with room for members 0..n-1.
func NewBits(n int) Bits { return make(Bits, (n+63)>>6) }

// Has reports whether i is a member.
func (s Bits) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set adds i.
func (s Bits) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (s Bits) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// ForEach calls fn for every member in ascending order.
func (s Bits) ForEach(fn func(i int)) {
	for w, x := range s {
		for ; x != 0; x &= x - 1 {
			fn(w<<6 + bits.TrailingZeros64(x))
		}
	}
}

// Dominators holds the immediate dominator of every block, computed with
// the iterative Cooper–Harvey–Kennedy algorithm. Both arrays are indexed by
// Block.ID, which ComputeCFG keeps dense.
type Dominators struct {
	idom  []int // the entry's is itself; -1 marks a block no path reaches
	order []int // reverse postorder index
}

// ComputeDominators builds dominator information for f (call f.ComputeCFG
// first).
func ComputeDominators(f *ir.Func) *Dominators {
	rpo := ReversePostorder(f)
	d := &Dominators{idom: make([]int, len(f.Blocks)), order: make([]int, len(f.Blocks))}
	for i := range d.idom {
		d.idom[i] = -1
	}
	for i, b := range rpo {
		d.order[b.ID] = i
	}
	if f.Entry != nil {
		d.idom[f.Entry.ID] = f.Entry.ID
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == f.Entry {
				continue
			}
			newIdom := -1
			for _, p := range b.Preds {
				switch {
				case d.idom[p.ID] < 0:
				case newIdom < 0:
					newIdom = p.ID
				default:
					newIdom = d.intersect(p.ID, newIdom)
				}
			}
			if newIdom >= 0 && d.idom[b.ID] != newIdom {
				d.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *Dominators) intersect(a, b int) int {
	for a != b {
		for d.order[a] > d.order[b] {
			a = d.idom[a]
		}
		for d.order[b] > d.order[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexive).
func (d *Dominators) Dominates(a, b *ir.Block) bool {
	for at := b.ID; ; {
		if at == a.ID {
			return true
		}
		next := d.idom[at]
		if next < 0 || next == at {
			return false
		}
		at = next
	}
}

// ReversePostorder returns the blocks of f reachable from its entry in
// reverse postorder (call f.ComputeCFG first: visits are marked by Block.ID).
func ReversePostorder(f *ir.Func) []*ir.Block {
	post := make([]*ir.Block, 0, len(f.Blocks))
	seen := make([]bool, len(f.Blocks))
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, s := range b.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if f.Entry != nil {
		dfs(f.Entry)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// SolveBackward computes the least solution of the backward union problem
//
//	out[b] = ∪ in[s] over s in succs[b]
//	in[b]  = gen[b] ∪ (out[b] − kill[b])
//
// over blocks 0..len(succs)-1. gen and kill hold one row of
// len(gen)/len(succs) words per block; in and out come back in the same
// layout. The least fixpoint is unique, so the sweep order only affects how
// many sweeps it takes.
func SolveBackward(succs [][]int, gen, kill []uint64) (in, out []uint64) {
	in, out = make([]uint64, len(gen)), make([]uint64, len(gen))
	if len(succs) == 0 {
		return in, out
	}
	w := len(gen) / len(succs)
	for changed := true; changed; {
		changed = false
		for b := len(succs) - 1; b >= 0; b-- {
			row := out[b*w : (b+1)*w]
			for _, s := range succs[b] {
				for i, x := range in[s*w : (s+1)*w] {
					row[i] |= x
				}
			}
			for i, o := range row {
				if v := gen[b*w+i] | o&^kill[b*w+i]; v != in[b*w+i] {
					in[b*w+i] = v
					changed = true
				}
			}
		}
	}
	return in, out
}

// Liveness holds per-block live-in/live-out register sets, one row per
// Block.ID.
type Liveness struct {
	words   int
	in, out []uint64
}

// In returns the registers live on entry to b.
func (lv *Liveness) In(b *ir.Block) Bits { return lv.in[b.ID*lv.words : (b.ID+1)*lv.words] }

// Out returns the registers live on exit from b.
func (lv *Liveness) Out(b *ir.Block) Bits { return lv.out[b.ID*lv.words : (b.ID+1)*lv.words] }

// ComputeLiveness solves backward liveness over f (call f.ComputeCFG
// first: rows are indexed by Block.ID).
func ComputeLiveness(f *ir.Func) *Liveness {
	n, w := len(f.Blocks), (f.NumRegs+63)>>6
	gen, kill := make([]uint64, n*w), make([]uint64, n*w)
	succs := make([][]int, n)
	edges := 0
	for _, b := range f.Blocks {
		edges += len(b.Succs)
	}
	flat := make([]int, 0, edges)
	for _, b := range f.Blocks {
		g, k := Bits(gen[b.ID*w:(b.ID+1)*w]), Bits(kill[b.ID*w:(b.ID+1)*w])
		for _, in := range b.Instrs {
			for _, u := range in.Args {
				if u != ir.NoReg && !k.Has(int(u)) {
					g.Set(int(u))
				}
			}
			for _, d := range in.Dst {
				k.Set(int(d))
			}
		}
		first := len(flat)
		for _, s := range b.Succs {
			flat = append(flat, s.ID)
		}
		succs[b.ID] = flat[first:]
	}
	lv := &Liveness{words: w}
	lv.in, lv.out = SolveBackward(succs, gen, kill)
	return lv
}

// DefCounts returns, per register, how many instructions define it.
func DefCounts(f *ir.Func) []int {
	counts := make([]int, f.NumRegs)
	for _, p := range f.Params {
		counts[p]++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Dst {
				counts[d]++
			}
		}
	}
	return counts
}
