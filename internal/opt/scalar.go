// Package opt implements the scalar optimizer applied to ME-bound code in
// the paper's Code Generator stage ("SSA-based optimizations like dead code
// elimination, copy propagation and redundancy elimination", §4.1), plus
// function inlining (-O2). The specialized packet optimizations live in the
// pac, soar, phr and swc subpackages.
package opt

import (
	"slices"

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
	Rounds      int // rounds run, summed over the functions optimized
	RoundsMax   int // most rounds any one function needed
	Unconverged int // functions still changing when the round cap stopped them
}

// Optimize runs the scalar pipeline on every function of p according to
// opts. Inlining runs first so scalar passes clean up the residue. The
// scalar pipeline rewrites in place, so each function it runs on is taken
// for writing (ir.Program.Edit). One scratch serves every round of every
// function.
func Optimize(p *ir.Program, opts Options) Stats {
	var st Stats
	if opts.Inline {
		InlineAll(p)
	}
	if !opts.Scalar {
		return st
	}
	var s scratch
	for _, f := range p.Funcs {
		rounds, converged := s.optimize(p.Edit(f.Name))
		st.Rounds += rounds
		st.RoundsMax = max(st.RoundsMax, rounds)
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
func OptimizeFunc(f *ir.Func) (rounds int, converged bool) {
	var s scratch
	return s.optimize(f)
}

// scratch is the storage one Optimize call keeps for all its rounds and
// functions. Every analysis in it is recomputed before it is read, so
// nothing carries from one round or function to the next except the CSE
// table's clock, which only rejects older entries.
type scratch struct {
	defs   []regDef
	counts []int
	dom    analysis.Dominators
	lv     analysis.Liveness
	live   analysis.Bits
	cse    cseTable
	log    changeLog
	// mergeBlocks' jump-threading map and the visit marks of one chain,
	// both by Block.ID.
	forward []*ir.Block
	visited []int
	chain   int // the current chain's visit mark
}

// optimize is OptimizeFunc in s's storage.
//
// A round is a function of the body alone (the CSE table's entries from
// earlier rounds can only be rejected), so a round that reproduces its input
// would do so forever. deadCode, foldBranches and mergeBlocks changes are
// never undone, so a round they changed is never an identity. Otherwise
// only propagate and localCSE rewrote, in place, and they can cancel
// (propagate folds "mov const-register" to a constant, localCSE turns the
// duplicate constant back into the mov): the round is an identity exactly
// when every instruction they logged is back in the form it began the
// round in.
func (s *scratch) optimize(f *ir.Func) (rounds int, converged bool) {
	s.begin(f)
	for rounds < maxRounds {
		rounds++
		if !s.round(f) && s.log.restored() {
			return rounds, true
		}
	}
	return rounds, false
}

// begin readies s for the rounds of f.
func (s *scratch) begin(f *ir.Func) {
	s.defs = resize(s.defs, f.NumRegs)
	s.cse.reset(f.NumRegs)
}

// round runs every scalar pass over f once, logging what propagate and
// localCSE rewrite, and reports whether deadCode, foldBranches or
// mergeBlocks changed anything.
func (s *scratch) round(f *ir.Func) (reshaped bool) {
	// One table per round serves both passes: propagation rewrites
	// operands and opcodes but never a destination, so definition counts
	// and sites stay valid through foldBranches.
	s.log.reset(s.singleDefs(f))
	s.propagate(f)
	reshaped = foldBranches(f, s.defs)
	localCSE(f, &s.cse, &s.log)
	reshaped = s.deadCode(f) || reshaped
	return s.mergeBlocks(f) || reshaped
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

// changeLog records, for one round, every instruction propagate and
// localCSE rewrite, as it read when the round began: the fields those
// passes write (Op, Args, Imm, Global), taken the first time one of them
// touches the instruction. Instructions are named by their position in the
// round's walk of the body, which no pass before localCSE moves.
type changeLog struct {
	entries []logEntry
	args    []ir.Reg // the entries' start operands, back to back
	at      []int32  // by walk position: index+1 of its entry, 0 if none
}

type logEntry struct {
	in       *ir.Instr
	op       ir.Op
	imm      uint64
	gl       *types.Global
	from, to int32 // start operands: args[from:to]
}

// reset empties the log for a round over n instructions.
func (l *changeLog) reset(n int) {
	l.entries, l.args, l.at = l.entries[:0], l.args[:0], resize(l.at, n)
}

// note logs in, at walk position pos, before a pass rewrites it, unless
// the round has logged it already. (A pass that reshaped the CFG may have
// shifted positions; the round is no identity then, and a second entry for
// one instruction does no harm.)
func (l *changeLog) note(pos int, in *ir.Instr) {
	if i := l.at[pos]; i > 0 && l.entries[i-1].in == in {
		return
	}
	from := len(l.args)
	l.args = append(l.args, in.Args...)
	l.entries = append(l.entries, logEntry{in: in, op: in.Op, imm: in.Imm, gl: in.Global,
		from: int32(from), to: int32(len(l.args))})
	l.at[pos] = int32(len(l.entries))
}

// restored reports whether every logged instruction is back in its start
// form; with nothing logged, it is.
func (l *changeLog) restored() bool {
	for _, e := range l.entries {
		in := e.in
		if in.Op != e.op || in.Imm != e.imm || in.Global != e.gl || !slices.Equal(in.Args, l.args[e.from:e.to]) {
			return false
		}
	}
	return true
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

// singleDefs fills s.defs (one entry per register of f) for a new round
// and returns the number of instructions in f.
func (s *scratch) singleDefs(f *ir.Func) int {
	defs := s.defs
	clear(defs)
	s.counts = analysis.DefCounts(f, s.counts)
	for r, n := range s.counts {
		defs[r].count = int32(n)
	}
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
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
	return n
}

// propagate performs constant folding and copy/constant propagation.
// Within a block it runs a forward scan; across blocks it propagates only
// via single-def registers whose definition dominates the use.
// Every instruction it rewrites goes into the round's change log first.
func (s *scratch) propagate(f *ir.Func) {
	defs, dom := s.defs, &s.dom
	dom.Compute(f)
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

	pos := 0
	for _, b := range f.Blocks {
		for idx, in := range b.Instrs {
			for ai, a := range in.Args {
				if a == ir.NoReg || defs[a].kind != defCopy || !reaches(a, b, idx) {
					continue
				}
				// The source must also dominate this use; a parameter
				// always does.
				if src := resolveCopy(a); src != a && (defs[src].block == nil || reaches(src, b, idx)) {
					s.log.note(pos, in)
					in.Args[ai] = src
				}
			}
			// Constant folding when all inputs are known single-def consts
			// dominating this instruction.
			if op, imm, args, ok := fold(in, defs); ok {
				s.log.note(pos, in)
				in.Op, in.Imm, in.Args = op, imm, args
			}
			pos++
		}
	}
}

// fold returns the form of a pure ALU op with constant operands as an
// OpConst, or of one matching a simple algebraic identity as an OpMov; ok
// is false when neither applies.
func fold(in *ir.Instr, defs []regDef) (op ir.Op, imm uint64, args []ir.Reg, ok bool) {
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
			return ir.OpConst, uint64(foldALU(in.Op, a, bv)), nil, true
		}
		// Identities: x+0, x-0, x|0, x^0, x<<0, x>>0, x*1, x&~0.
		if okB {
			switch {
			case bv == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpOr ||
				in.Op == ir.OpXor || in.Op == ir.OpShl || in.Op == ir.OpShrU || in.Op == ir.OpShrS),
				bv == 1 && in.Op == ir.OpMul:
				return ir.OpMov, in.Imm, in.Args[:1], true
			case bv == 0 && in.Op == ir.OpMul:
				return ir.OpConst, 0, nil, true
			}
		}
	case ir.OpNot:
		if a, ok := isConst(in.Args[0]); ok {
			return ir.OpConst, uint64(^a), nil, true
		}
	case ir.OpNeg:
		if a, ok := isConst(in.Args[0]); ok {
			return ir.OpConst, uint64(-a), nil, true
		}
	case ir.OpMov:
		if a, ok := isConst(in.Args[0]); ok {
			return ir.OpConst, uint64(a), nil, true
		}
	}
	return 0, 0, nil, false
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
//
// A load names its global by ID, so the key holds no pointer: the map is
// hashed as plain memory and never scanned by the collector.
type cseKey struct {
	op   ir.Op
	a, b ir.Reg
	imm  uint64
	gl   int // a load's global's ID
	off  int
}

// cseTable is localCSE's state. One table serves every round of every
// function of an Optimize call: its clock only moves forward, so nothing
// recorded in an earlier round or function can look fresh in a later one
// and nothing needs a reset.
type cseTable struct {
	now       int                 // timestamp of the current instruction
	lastDef   []int               // by register: its latest redefinition
	lastStore []int               // by global ID: its latest store
	barrier   int                 // latest call or lock boundary: may write any global
	avail     map[cseKey]cseValue // this block's recorded values
}

type cseValue struct {
	reg ir.Reg
	at  int // timestamp of the instruction that computed it
}

// reset readies t for a function of n registers. Timestamps left by an
// earlier function are older than anything the next one records.
func (t *cseTable) reset(n int) {
	if t.avail == nil {
		t.avail = map[cseKey]cseValue{}
	}
	if n > len(t.lastDef) {
		t.lastDef = append(t.lastDef, make([]int, n-len(t.lastDef))...)
	}
}

// global returns g's ID, with room for it in lastStore.
func (t *cseTable) global(g *types.Global) int {
	if g.ID >= len(t.lastStore) {
		t.lastStore = append(t.lastStore, make([]int, g.ID+1-len(t.lastStore))...)
	}
	return g.ID
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
// Every instruction it rewrites goes into log first.
func localCSE(f *ir.Func, t *cseTable, log *changeLog) {
	pos := -1
	for _, blk := range f.Blocks {
		clear(t.avail)
		for _, in := range blk.Instrs {
			t.now++
			pos++
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
					k = cseKey{op: in.Op, a: ir.NoReg, gl: t.global(in.Global), off: int(in.Off)}
					if len(in.Args) > 0 {
						k.a = in.Args[0]
					}
				}
			case ir.OpStore:
				// Conservative: a store to global G kills available loads
				// of G (any offset).
				t.lastStore[t.global(in.Global)] = t.now
			case ir.OpCall, ir.OpLockAcquire, ir.OpLockRelease,
				ir.OpCacheFlush:
				// Calls and lock boundaries may write any global.
				t.barrier = t.now
			}
			fresh := k.op != ir.OpInvalid // computes a value not yet available
			if fresh {
				if prev, ok := t.lookup(k); ok {
					log.note(pos, in)
					in.Op, in.Args, in.Imm, in.Global = ir.OpMov, append(in.Args[:0], prev), 0, nil
					fresh = false
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
}

// deadCode removes pure instructions whose results are never used.
func (s *scratch) deadCode(f *ir.Func) bool {
	lv := &s.lv
	lv.Compute(f)
	changed := false
	s.live = resize(s.live, (f.NumRegs+63)>>6)
	live := s.live
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
func (s *scratch) mergeBlocks(f *ir.Func) bool {
	changed := false
	// Jump threading: a block containing only "br X" can be bypassed.
	// Every block a terminator names is in f.Blocks (ComputeCFG keeps the
	// reachable ones), so the map is by Block.ID.
	forward := resize(s.forward, len(f.Blocks))
	s.forward = forward
	for _, b := range f.Blocks {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpBr && b.Instrs[0].Blocks[0] != b {
			forward[b.ID] = b.Instrs[0].Blocks[0]
		}
	}
	if len(s.visited) < len(f.Blocks) {
		s.visited = append(s.visited, make([]int, len(f.Blocks)-len(s.visited))...)
	}
	// resolve follows b's forwarding chain to its end, or to the first
	// block it revisits.
	resolve := func(b *ir.Block) *ir.Block {
		s.chain++
		for forward[b.ID] != nil && s.visited[b.ID] != s.chain {
			s.visited[b.ID] = s.chain
			b = forward[b.ID]
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
			succ := t.Blocks[0]
			if succ == b || len(succ.Preds) != 1 || succ == f.Entry {
				break
			}
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], succ.Instrs...)
			succ.Instrs = nil
			merged = true
			changed = true
		}
	}
	if merged {
		f.ComputeCFG()
	}
	return changed
}
