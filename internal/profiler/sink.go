package profiler

import (
	"math/bits"

	"shangrila/internal/ir"
)

// sinkOnly reports, by Global.ID, the globals whose values steer nothing:
// every value loaded from one reaches only arithmetic and the stored words
// of stores to sink-only globals — never a branch, an index, a packet or
// metadata write, a channel, a call or a return. The statistics
// counters (x += 1) are the common case. What a sink-only global holds
// cannot change which blocks a packet enters, which words it touches,
// whether it fails or what it transmits, so an Incremental leaves these
// words out of its logs.
//
// The analysis is flow-insensitive over registers: a register carries every
// global whose loaded value reaches any definition of it, through any chain
// of arithmetic, in any function. A use that may steer disqualifies every
// global the register carries; a store disqualifies the globals its words
// carry once the stored-to global is disqualified, to a fixpoint.
func sinkOnly(prog *ir.Program) []bool {
	n := len(prog.Types.Globals)
	words := (n + 63) / 64
	sink := make([]bool, n)
	for i := range sink {
		sink[i] = true
	}
	// into[h] lists the carried sets of the words stored to global h.
	into := make([][][]uint64, n)
	steer := make([]uint64, words)
	for _, fn := range prog.Funcs {
		carried := carriedSets(fn, words)
		of := func(r ir.Reg) []uint64 {
			if r < 0 || int(r) >= fn.NumRegs {
				return nil
			}
			return carried[int(r)*words : int(r+1)*words]
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch {
				case arithmetic(in.Op):
					// What its operands carry reaches its result (carriedSets).
				case in.Op == ir.OpStore && in.Global != nil:
					or(steer, of(in.Args[0]))
					for _, a := range in.Args[1:] {
						if s := of(a); nonzero(s) {
							into[in.Global.ID] = append(into[in.Global.ID], s)
						}
					}
				default:
					for _, a := range in.Args {
						or(steer, of(a))
					}
				}
			}
		}
	}
	var work []int
	disqualify := func(set []uint64) {
		for wi, w := range set {
			for ; w != 0; w &= w - 1 {
				g := wi*64 + bits.TrailingZeros64(w)
				if sink[g] {
					sink[g] = false
					work = append(work, g)
				}
			}
		}
	}
	disqualify(steer)
	for len(work) > 0 {
		h := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range into[h] {
			disqualify(s)
		}
	}
	return sink
}

// carriedSets computes, for every register of fn, the set of globals whose
// loaded values reach it, as a NumRegs × words bitset.
func carriedSets(fn *ir.Func, words int) []uint64 {
	carried := make([]uint64, fn.NumRegs*words)
	reg := func(r ir.Reg) []uint64 {
		if r < 0 || int(r) >= fn.NumRegs {
			return nil
		}
		return carried[int(r)*words : int(r+1)*words]
	}
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpLoad && in.Global != nil:
					id := in.Global.ID
					for _, d := range in.Dst {
						if dst := reg(d); dst != nil && dst[id/64]&(1<<(id%64)) == 0 {
							dst[id/64] |= 1 << (id % 64)
							changed = true
						}
					}
				case arithmetic(in.Op):
					dst := reg(in.Dst0())
					for _, a := range in.Args {
						if or(dst, reg(a)) {
							changed = true
						}
					}
				}
			}
		}
	}
	return carried
}

// arithmetic reports whether op computes a word from words and nothing
// else: what its result carries is what its operands carry.
func arithmetic(op ir.Op) bool {
	switch op {
	case ir.OpMov, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDivU, ir.OpRemU, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShrU, ir.OpShrS, ir.OpNot, ir.OpNeg,
		ir.OpEq, ir.OpNe, ir.OpLtU, ir.OpLeU, ir.OpLtS, ir.OpLeS:
		return true
	}
	return false
}

// or sets dst |= src and reports whether dst changed; either may be nil.
func or(dst, src []uint64) bool {
	if dst == nil || src == nil {
		return false
	}
	changed := false
	for i, w := range src {
		if dst[i]|w != dst[i] {
			dst[i] |= w
			changed = true
		}
	}
	return changed
}

func nonzero(set []uint64) bool {
	for _, w := range set {
		if w != 0 {
			return true
		}
	}
	return false
}
