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
	}
	return false
}

// Bits is a dense set of small non-negative integers: the registers of one
// function (ir.Reg is dense per function) or the virtual registers of one
// CGIR program.
type Bits []uint64

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
// Block.ID, which ComputeCFG keeps dense. The zero value is ready for
// Compute, which reuses the storage of the call before it.
type Dominators struct {
	idom  []int // the entry's is itself; -1 marks a block no path reaches
	order []int // reverse postorder index
	walk  postorder
}

// Compute fills d with the dominators of f (call f.ComputeCFG first).
func (d *Dominators) Compute(f *ir.Func) {
	rpo := d.walk.reversed(f)
	d.idom, d.order = resize(d.idom, len(f.Blocks)), resize(d.order, len(f.Blocks))
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
	var w postorder
	return w.reversed(f)
}

// postorder is a depth-first walk's storage, kept by its owner across
// walks.
type postorder struct {
	post []*ir.Block
	seen []bool
}

// reversed returns the blocks reachable from f's entry in reverse
// postorder, in w's own storage.
func (w *postorder) reversed(f *ir.Func) []*ir.Block {
	w.post, w.seen = w.post[:0], resize(w.seen, len(f.Blocks))
	if f.Entry != nil {
		w.visit(f.Entry)
	}
	post := w.post
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

func (w *postorder) visit(b *ir.Block) {
	w.seen[b.ID] = true
	for _, s := range b.Succs {
		if !w.seen[s.ID] {
			w.visit(s)
		}
	}
	w.post = append(w.post, b)
}

// SolveBackward computes the least solution of the backward union problem
//
//	out[b] = ∪ in[s] over s in succs[b]
//	in[b]  = gen[b] ∪ (out[b] − kill[b])
//
// over blocks 0..len(succs)-1. gen and kill hold one row of
// len(gen)/len(succs) words per block; the solution is written to in and
// out, which the caller provides with len(gen) words each and whose
// contents are overwritten. The least fixpoint is unique, so the sweep
// order only affects how many sweeps it takes.
func SolveBackward(succs [][]int, gen, kill, in, out []uint64) {
	clear(in)
	clear(out)
	if len(succs) == 0 {
		return
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
}

// Liveness holds per-block live-in/live-out register sets, one row per
// Block.ID. The zero value is ready for Compute, which reuses the storage
// of the call before it.
type Liveness struct {
	words     int
	in, out   []uint64
	gen, kill []uint64
	succs     [][]int
	flat      []int // succs' backing array
}

// In returns the registers live on entry to b.
func (lv *Liveness) In(b *ir.Block) Bits { return lv.in[b.ID*lv.words : (b.ID+1)*lv.words] }

// Out returns the registers live on exit from b.
func (lv *Liveness) Out(b *ir.Block) Bits { return lv.out[b.ID*lv.words : (b.ID+1)*lv.words] }

// Compute solves backward liveness over f into lv (call f.ComputeCFG
// first: rows are indexed by Block.ID).
func (lv *Liveness) Compute(f *ir.Func) {
	n, w := len(f.Blocks), (f.NumRegs+63)>>6
	lv.words = w
	lv.gen, lv.kill = resize(lv.gen, n*w), resize(lv.kill, n*w)
	lv.in, lv.out = resize(lv.in, n*w), resize(lv.out, n*w)
	lv.succs = resize(lv.succs, n)
	lv.flat = lv.flat[:0]
	for _, b := range f.Blocks {
		g, k := Bits(lv.gen[b.ID*w:(b.ID+1)*w]), Bits(lv.kill[b.ID*w:(b.ID+1)*w])
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
		for _, s := range b.Succs {
			lv.flat = append(lv.flat, s.ID)
		}
	}
	// Slice succs out of flat only once it has stopped growing.
	at := 0
	for _, b := range f.Blocks {
		lv.succs[b.ID] = lv.flat[at : at+len(b.Succs)]
		at += len(b.Succs)
	}
	SolveBackward(lv.succs, lv.gen, lv.kill, lv.in, lv.out)
}

// DefCounts returns, per register of f, how many instructions define it,
// parameters included. It counts into counts' storage when that is large
// enough.
func DefCounts(f *ir.Func, counts []int) []int {
	counts = resize(counts, f.NumRegs)
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

// resize returns s with length n and every element zero, reusing s's
// storage when its capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
