// Package opt implements the scalar optimizer applied to ME-bound code in
// the paper's Code Generator stage ("SSA-based optimizations like dead code
// elimination, copy propagation and redundancy elimination", §4.1), plus
// function inlining (-O2). The specialized packet optimizations live in the
// pac, soar, phr and swc subpackages.
package opt

import (
	"shangrila/internal/analysis"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// Options selects which optimization groups run; the zero value is the
// paper's BASE configuration.
type Options struct {
	Scalar bool // -O1: folding, propagation, CSE, DCE, branch folding
	Inline bool // -O2: aggressive inlining of helpers into PPFs
}

// Stats reports how hard the fixpoint iteration worked, so a pass that
// stops at the round cap is visible as data instead of silently accepted.
type Stats struct {
	RoundsMax   int // most rounds any one function needed
	Unconverged int // functions still changing when the round cap stopped them
}

// Optimize runs the scalar pipeline on every function of p according to
// opts. Inlining runs first so scalar passes clean up the residue. The
// scalar pipeline rewrites in place, so each function it runs on is taken
// for writing (ir.Program.Edit).
func Optimize(p *ir.Program, opts Options) Stats {
	var st Stats
	if opts.Inline {
		InlineAll(p)
	}
	if !opts.Scalar {
		return st
	}
	for _, f := range p.Funcs {
		rounds, converged := OptimizeFunc(p.Edit(f.Name))
		if rounds > st.RoundsMax {
			st.RoundsMax = rounds
		}
		if !converged {
			st.Unconverged++
		}
	}
	return st
}

// maxRounds bounds OptimizeFunc's fixpoint iteration.
const maxRounds = 8

// OptimizeFunc iterates the scalar passes on one function until a round
// leaves it as it found it. It returns the rounds run and whether that
// fixpoint was reached within maxRounds.
//
// A round is a function of the body alone (the CSE table's entries from
// earlier rounds can only be rejected), so a round that reproduces its input
// would do so forever. Two ways to reach one: no pass reports a change, or
// only propagate and localCSE do and they cancel (propagate folds "mov
// const-register" to a constant, localCSE turns the duplicate constant back
// into the mov). The second is caught by fingerprinting the body after each
// such round and comparing with the round before; deadCode, foldBranches
// and mergeBlocks changes are never undone, so a round they changed is
// never an identity and needs no fingerprint.
func OptimizeFunc(f *ir.Func) (rounds int, converged bool) {
	defs, cse := make([]regDef, f.NumRegs), newCSETable(f)
	var h ir.Hasher
	var last uint64 // fingerprint after the previous round, when it was a rewrite-only round
	rewroteLast := false
	for rounds < maxRounds {
		rounds++
		// One table per round serves both passes: propagation rewrites
		// operands and opcodes but never a destination, so definition
		// counts and sites stay valid through foldBranches.
		singleDefs(f, defs)
		rewrote := propagate(f, defs)
		reshaped := foldBranches(f, defs)
		rewrote = localCSE(f, cse) || rewrote
		reshaped = deadCode(f) || reshaped
		reshaped = mergeBlocks(f) || reshaped
		switch {
		case reshaped:
			rewroteLast = false
		case !rewrote:
			return rounds, true
		default:
			h.Reset()
			h.Func(f)
			if rewroteLast && h.Sum64() == last {
				return rounds, true
			}
			last, rewroteLast = h.Sum64(), true
		}
	}
	return rounds, false
}

// regDef is what one round knows about a register, indexed by ir.Reg.
type regDef struct {
	// For a register whose only definition is an instruction: its block
	// and position there. A single-definition register with a nil block is
	// a parameter.
	block *ir.Block
	index int32
	count int32 // definitions, parameters included (analysis.DefCounts)
	// The definition as it read when the round began. Propagation folds
	// against this snapshot, so an instruction it rewrites feeds later
	// folds in the next round only.
	kind defKind
	val  uint64 // defConst: the value; defCopy: the source register
}

type defKind uint8

const (
	defOther defKind = iota
	defConst
	defCopy
)

// singleDefs fills defs (one entry per register of f) for a new round.
func singleDefs(f *ir.Func, defs []regDef) {
	clear(defs)
	for r, n := range analysis.DefCounts(f) {
		defs[r].count = int32(n)
	}
	for _, b := range f.Blocks {
		for idx, in := range b.Instrs {
			for _, d := range in.Dst {
				if defs[d].count == 1 {
					defs[d].block, defs[d].index = b, int32(idx)
				}
			}
			if len(in.Dst) == 1 && defs[in.Dst[0]].count == 1 {
				switch d := &defs[in.Dst[0]]; in.Op {
				case ir.OpConst:
					d.kind, d.val = defConst, in.Imm
				case ir.OpMov:
					d.kind, d.val = defCopy, uint64(in.Args[0])
				}
			}
		}
	}
}

// propagate performs constant folding and copy/constant propagation.
// Within a block it runs a forward scan; across blocks it propagates only
// via single-def registers whose definition dominates the use.
func propagate(f *ir.Func, defs []regDef) bool {
	changed := false
	dom := analysis.ComputeDominators(f)
	// reaches reports whether single-def register r's definition executes
	// before instruction idx of block b on every path.
	reaches := func(r ir.Reg, b *ir.Block, idx int) bool {
		switch db := defs[r].block; {
		case db == nil:
			return false
		case db == b:
			return int(defs[r].index) < idx
		default:
			return dom.Dominates(db, b)
		}
	}
	// resolveCopy follows single-def copy chains r := s while the source
	// is itself single-def (so the value cannot change between def and
	// use).
	resolveCopy := func(r ir.Reg) ir.Reg {
		for i := 0; i < 8; i++ {
			if defs[r].kind != defCopy || defs[ir.Reg(defs[r].val)].count != 1 {
				return r
			}
			r = ir.Reg(defs[r].val)
		}
		return r
	}

	for _, b := range f.Blocks {
		for idx, in := range b.Instrs {
			for ai, a := range in.Args {
				if a == ir.NoReg || defs[a].kind != defCopy || !reaches(a, b, idx) {
					continue
				}
				// The source must also dominate this use; a parameter
				// always does.
				if s := resolveCopy(a); s != a && (defs[s].block == nil || reaches(s, b, idx)) {
					in.Args[ai] = s
					changed = true
				}
			}
			// Constant folding when all inputs are known single-def consts
			// dominating this instruction.
			if tryFold(in, defs) {
				changed = true
			}
		}
	}
	return changed
}

// tryFold rewrites pure ALU ops with constant operands into OpConst, and
// applies simple algebraic identities.
func tryFold(in *ir.Instr, defs []regDef) bool {
	isConst := func(r ir.Reg) (uint32, bool) {
		if r == ir.NoReg || defs[r].kind != defConst {
			return 0, false
		}
		return uint32(defs[r].val), true
	}
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShrU, ir.OpShrS, ir.OpEq, ir.OpNe,
		ir.OpLtU, ir.OpLeU, ir.OpLtS, ir.OpLeS:
		a, okA := isConst(in.Args[0])
		bv, okB := isConst(in.Args[1])
		if okA && okB {
			in.Op, in.Imm, in.Args = ir.OpConst, uint64(foldALU(in.Op, a, bv)), nil
			return true
		}
		// Identities: x+0, x-0, x|0, x^0, x<<0, x>>0, x*1, x&~0.
		if okB {
			switch {
			case bv == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpOr ||
				in.Op == ir.OpXor || in.Op == ir.OpShl || in.Op == ir.OpShrU || in.Op == ir.OpShrS):
				in.Op, in.Args = ir.OpMov, in.Args[:1]
				return true
			case bv == 1 && in.Op == ir.OpMul:
				in.Op, in.Args = ir.OpMov, in.Args[:1]
				return true
			case bv == 0 && in.Op == ir.OpMul:
				in.Op, in.Imm, in.Args = ir.OpConst, 0, nil
				return true
			}
		}
	case ir.OpNot:
		if a, ok := isConst(in.Args[0]); ok {
			in.Op, in.Imm, in.Args = ir.OpConst, uint64(^a), nil
			return true
		}
	case ir.OpNeg:
		if a, ok := isConst(in.Args[0]); ok {
			in.Op, in.Imm, in.Args = ir.OpConst, uint64(-a), nil
			return true
		}
	case ir.OpMov:
		if a, ok := isConst(in.Args[0]); ok {
			in.Op, in.Imm, in.Args = ir.OpConst, uint64(a), nil
			return true
		}
	}
	return false
}

func foldALU(op ir.Op, a, b uint32) uint32 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << (b & 31)
	case ir.OpShrU:
		return a >> (b & 31)
	case ir.OpShrS:
		return uint32(int32(a) >> (b & 31))
	case ir.OpEq:
		return b2i(a == b)
	case ir.OpNe:
		return b2i(a != b)
	case ir.OpLtU:
		return b2i(a < b)
	case ir.OpLeU:
		return b2i(a <= b)
	case ir.OpLtS:
		return b2i(int32(a) < int32(b))
	case ir.OpLeS:
		return b2i(int32(a) <= int32(b))
	}
	return 0
}

func b2i(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// foldBranches converts conditional branches on single-def constants into
// unconditional ones. It reads each condition's defining instruction as
// propagation just left it.
func foldBranches(f *ir.Func, defs []regDef) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		c := defs[t.Args[0]]
		if c.block == nil {
			continue
		}
		def := c.block.Instrs[c.index]
		if def.Op != ir.OpConst {
			continue
		}
		target := t.Blocks[1]
		if def.Imm != 0 {
			target = t.Blocks[0]
		}
		t.Op, t.Args, t.Blocks = ir.OpBr, nil, []*ir.Block{target}
		changed = true
	}
	if changed {
		f.ComputeCFG()
	}
	return changed
}

// cseKey names a pure computation or a global load. Unused operand slots
// keep Reg's zero value, so every expression without a second operand also
// "mentions" register 0.
type cseKey struct {
	op   ir.Op
	a, b ir.Reg
	imm  uint64
	gl   *types.Global
	off  int32
}

// cseTable is localCSE's state. One table serves every round of an
// OptimizeFunc call: its clock only moves forward, so nothing recorded in
// an earlier round can look fresh in a later one and nothing needs a reset.
type cseTable struct {
	now       int                   // timestamp of the current instruction
	lastDef   []int                 // by register: its latest redefinition
	lastStore map[*types.Global]int // latest store to the global
	barrier   int                   // latest call or lock boundary: may write any global
	avail     map[cseKey]cseValue   // this block's recorded values
}

type cseValue struct {
	reg ir.Reg
	at  int // timestamp of the instruction that computed it
}

func newCSETable(f *ir.Func) *cseTable {
	return &cseTable{lastDef: make([]int, f.NumRegs), lastStore: map[*types.Global]int{}, avail: map[cseKey]cseValue{}}
}

// lookup returns the register holding k's value, if still available: a
// recorded value stays so until one of the registers it mentions is
// redefined or, for a load, until its global may have been written.
// Nothing is ever swept out of a block's table; a lookup rejects an entry
// older than the last such event.
func (t *cseTable) lookup(k cseKey) (ir.Reg, bool) {
	v, ok := t.avail[k]
	if !ok || t.lastDef[v.reg] > v.at || t.lastDef[k.b] > v.at || k.a != ir.NoReg && t.lastDef[k.a] > v.at {
		return ir.NoReg, false
	}
	if k.op == ir.OpLoad && (t.barrier > v.at || t.lastStore[k.gl] > v.at) {
		return ir.NoReg, false
	}
	return v.reg, true
}

// localCSE removes duplicate pure computations and redundant global loads
// within each block (the paper's redundancy elimination, block-local).
func localCSE(f *ir.Func, t *cseTable) bool {
	changed := false
	for _, blk := range f.Blocks {
		clear(t.avail)
		for _, in := range blk.Instrs {
			t.now++
			// 1. Rewrite this instruction using available expressions.
			var k cseKey
			switch in.Op {
			case ir.OpConst:
				k = cseKey{op: in.Op, imm: in.Imm}
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
				ir.OpShl, ir.OpShrU, ir.OpShrS, ir.OpEq, ir.OpNe,
				ir.OpLtU, ir.OpLeU, ir.OpLtS, ir.OpLeS, ir.OpNot, ir.OpNeg:
				k = cseKey{op: in.Op, a: in.Args[0]}
				if len(in.Args) > 1 {
					k.b = in.Args[1]
				}
			case ir.OpLoad:
				if len(in.Dst) == 1 {
					k = cseKey{op: in.Op, a: ir.NoReg, gl: in.Global, off: in.Off}
					if len(in.Args) > 0 {
						k.a = in.Args[0]
					}
				}
			case ir.OpStore:
				// Conservative: a store to global G kills available loads
				// of G (any offset).
				t.lastStore[in.Global] = t.now
			case ir.OpCall, ir.OpLockAcquire, ir.OpLockRelease,
				ir.OpCacheFlush:
				// Calls and lock boundaries may write any global.
				t.barrier = t.now
			}
			fresh := k.op != ir.OpInvalid // computes a value not yet available
			if fresh {
				if prev, ok := t.lookup(k); ok {
					in.Op, in.Args, in.Imm, in.Global = ir.OpMov, []ir.Reg{prev}, 0, nil
					changed, fresh = true, false
				}
			}
			// 2. Redefinition of a register invalidates facts mentioning it.
			for _, d := range in.Dst {
				t.lastDef[d] = t.now
			}
			// 3. Record the value this instruction makes available.
			if fresh {
				t.avail[k] = cseValue{in.Dst[0], t.now}
			}
		}
	}
	return changed
}

// deadCode removes pure instructions whose results are never used.
func deadCode(f *ir.Func) bool {
	lv := analysis.ComputeLiveness(f)
	changed := false
	live := analysis.NewBits(f.NumRegs)
	for _, b := range f.Blocks {
		copy(live, lv.Out(b))
		// Walk backward, packing the instructions kept toward the end.
		w := len(b.Instrs)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			needed := analysis.HasSideEffects(in)
			for _, d := range in.Dst {
				needed = needed || live.Has(int(d))
			}
			if !needed {
				changed = true
				continue
			}
			for _, d := range in.Dst {
				live.Clear(int(d))
			}
			for _, u := range in.Args {
				if u != ir.NoReg {
					live.Set(int(u))
				}
			}
			w--
			b.Instrs[w] = in
		}
		if w > 0 {
			b.Instrs = b.Instrs[:copy(b.Instrs, b.Instrs[w:])]
		}
	}
	return changed
}

// mergeBlocks threads jumps through empty forwarding blocks and merges
// single-pred/single-succ straight lines.
func mergeBlocks(f *ir.Func) bool {
	changed := false
	// Jump threading: a block containing only "br X" can be bypassed.
	forward := map[*ir.Block]*ir.Block{}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpBr && b.Instrs[0].Blocks[0] != b {
			forward[b] = b.Instrs[0].Blocks[0]
		}
	}
	resolve := func(b *ir.Block) *ir.Block {
		seen := map[*ir.Block]bool{}
		for forward[b] != nil && !seen[b] {
			seen[b] = true
			b = forward[b]
		}
		return b
	}
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for i, tgt := range t.Blocks {
			if r := resolve(tgt); r != tgt {
				t.Blocks[i] = r
				changed = true
			}
		}
	}
	if f.Entry != nil {
		if r := resolve(f.Entry); r != f.Entry {
			f.Entry = r
			changed = true
		}
	}
	if changed {
		f.ComputeCFG()
	}
	// Merge b -> s when b ends in an unconditional branch to s and s has
	// exactly one predecessor.
	merged := false
	for _, b := range f.Blocks {
		for {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				break
			}
			s := t.Blocks[0]
			if s == b || len(s.Preds) != 1 || s == f.Entry {
				break
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			s.Instrs = nil
			merged = true
			changed = true
		}
	}
	if merged {
		f.ComputeCFG()
	}
	return changed
}
