package ir

import (
	"fmt"

	"shangrila/internal/baker/token"
)

// VerifyError is one IR invariant violation, located as precisely as the
// instruction's source position allows.
type VerifyError struct {
	Func  string
	Block int // block ID, -1 for function-level errors
	Instr int // instruction index within the block, -1 when not applicable
	Pos   token.Pos
	Msg   string
}

func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block >= 0 {
		loc = fmt.Sprintf("%s b%d", loc, e.Block)
	}
	if e.Instr >= 0 {
		loc = fmt.Sprintf("%s[%d]", loc, e.Instr)
	}
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s: %s", e.Pos, loc, e.Msg)
	}
	return fmt.Sprintf("%s: %s", loc, e.Msg)
}

// Verify checks the structural invariants every pass must preserve. They
// are the one definition of well-formed IR: the executor runs a function
// only once it verifies (VerifyFunc), so what verifies can be executed and
// lowered without further checks.
//
//   - the function table: no nil entry, no two functions with one name;
//   - the signature: one class per parameter, each parameter a register of
//     the function with that class;
//   - the CFG: an entry block in the block list, every block ending in its
//     one terminator, the branch targets its op takes, each a block of the
//     same function;
//   - operands: a known op with the result and operand counts shapes gives
//     it, registers inside the function, NoReg only as the optional index
//     of a global or cache access, and each register written on every path
//     from entry before it is read (parameters are written at entry);
//   - classes: a mov between registers of one class, eq and ne comparing
//     two of one class into a word, call arguments of the callee's
//     ParamClasses, handles where shapes says so and words everywhere else
//     (ret returns either);
//   - payload: a known callee given one argument per parameter, a global on
//     global and cache accesses, a protocol on encap, decap and create, a
//     decap protocol ID inside Types.ProtoByID, a channel on chanput; field
//     accesses of a 1..32-bit field, raw (post-PAC) accesses of a positive
//     word-multiple width with one register per word, and raw metadata
//     offsets that are not negative.
//
// The first violation found is returned; nil means the program verifies.
func Verify(p *Program) error {
	// Size the scratch for the largest function up front, so verifying a
	// valid program allocates the block index and the bit rows once each.
	blocks, bits := 0, 0
	for i, fn := range p.Funcs {
		if fn == nil {
			return &VerifyError{Func: fmt.Sprintf("Funcs[%d]", i), Block: -1, Instr: -1,
				Msg: "nil function"}
		}
		if j := p.Index(fn.Name); j != i {
			return &VerifyError{Func: fn.Name, Block: -1, Instr: -1,
				Msg: fmt.Sprintf("two functions named %s, at Funcs[%d] and Funcs[%d]", fn.Name, j, i)}
		}
		blocks = max(blocks, len(fn.Blocks))
		bits = max(bits, bitWords(fn)*(len(fn.Blocks)+1))
	}
	v := verifier{prog: p, index: make(map[*Block]int, blocks), bits: make([]uint64, bits)}
	for _, fn := range p.Funcs {
		if err := v.verifyFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks one function by Verify's rules, resolving its callees
// through p. fn need not be one of p.Funcs: the XScale path runs an
// aggregate's functions against the whole program.
func VerifyFunc(p *Program, fn *Func) error {
	v := verifier{prog: p, index: make(map[*Block]int, len(fn.Blocks)),
		bits: make([]uint64, bitWords(fn)*(len(fn.Blocks)+1))}
	return v.verifyFunc(fn)
}

// shape is what an op takes and makes: the fewest and most results and
// operands, and which of them are handles.
type shape struct {
	minDst, maxDst, minArgs, maxArgs int8
	classes                          uint8
}

// A shape's classes: which operands are handles. Mov, eq, ne, ret and
// call have rules of their own; every other operand is a word.
const (
	handleIn  = 1 << iota // Args[0] is a handle
	handleOut             // Dst[0] is a handle
)

const many = 127

// shapes holds every op the IR has; any other is refused. Nothing writes it.
var shapes = [OpCacheFlush + 1]shape{
	OpConst: {1, 1, 0, 0, 0}, OpMov: {1, 1, 1, 1, 0}, OpNot: {1, 1, 1, 1, 0}, OpNeg: {1, 1, 1, 1, 0},
	OpAdd: {1, 1, 2, 2, 0}, OpSub: {1, 1, 2, 2, 0}, OpMul: {1, 1, 2, 2, 0}, OpDivU: {1, 1, 2, 2, 0},
	OpRemU: {1, 1, 2, 2, 0}, OpAnd: {1, 1, 2, 2, 0}, OpOr: {1, 1, 2, 2, 0}, OpXor: {1, 1, 2, 2, 0},
	OpShl: {1, 1, 2, 2, 0}, OpShrU: {1, 1, 2, 2, 0}, OpShrS: {1, 1, 2, 2, 0},
	OpEq: {1, 1, 2, 2, 0}, OpNe: {1, 1, 2, 2, 0}, OpLtU: {1, 1, 2, 2, 0}, OpLeU: {1, 1, 2, 2, 0},
	OpLtS: {1, 1, 2, 2, 0}, OpLeS: {1, 1, 2, 2, 0},
	OpBr: {0, 0, 0, 0, 0}, OpCondBr: {0, 0, 1, 1, 0}, OpRet: {0, 0, 0, 1, 0}, OpCall: {0, 1, 0, many, 0},
	OpLoad: {1, many, 0, 1, 0}, OpStore: {0, 0, 2, many, 0},
	OpPktLoad: {1, many, 1, 1, handleIn}, OpPktStore: {0, 0, 2, many, handleIn},
	OpMetaLoad: {1, many, 1, 1, handleIn}, OpMetaStore: {0, 0, 2, many, handleIn},
	OpEncap: {1, 1, 1, 1, handleIn | handleOut}, OpDecap: {1, 1, 1, 1, handleIn | handleOut},
	OpPktCopy: {1, 1, 1, 1, handleIn | handleOut}, OpPktCreate: {1, 1, 0, 0, handleOut},
	OpPktDrop: {0, 0, 1, 1, handleIn}, OpAddTail: {0, 0, 2, 2, handleIn}, OpRemoveTail: {0, 0, 2, 2, handleIn},
	OpPktLength: {1, 1, 1, 1, handleIn}, OpChanPut: {0, 0, 1, 1, handleIn},
	OpLockAcquire: {0, 0, 0, 0, 0}, OpLockRelease: {0, 0, 0, 0, 0},
	OpCacheLookup: {0, many, 0, many, 0}, OpCacheFill: {0, 0, 0, many, 0}, OpCacheFlush: {0, 0, 0, many, 0},
}

// verifier carries one Verify call's scratch from function to function, so
// a valid program costs a handful of allocations however many functions and
// blocks it has: the verifier runs after every pass of every compile under
// `go test`, on the success path every time.
type verifier struct {
	prog *Program
	fn   *Func
	// index maps each block of fn to its position in fn.Blocks: the
	// membership test for branch targets and the row of bits it owns.
	index map[*Block]int
	// bits holds one row of NumRegs bits per block (registers defined on
	// entry) plus one scratch row.
	bits []uint64
}

func (v *verifier) errf(b *Block, idx int, in *Instr, format string, args ...any) error {
	e := &VerifyError{Func: v.fn.Name, Block: -1, Instr: idx,
		Msg: fmt.Sprintf(format, args...)}
	if b != nil {
		e.Block = b.ID
	}
	if in != nil {
		e.Pos = in.Pos
	}
	return e
}

// bitWords is the length of one row of fn's register bits.
func bitWords(fn *Func) int { return max(1, (fn.NumRegs+63)/64) }

// verifyFunc checks one function.
func (v *verifier) verifyFunc(fn *Func) error {
	v.fn = fn
	if len(fn.Blocks) == 0 {
		return v.errf(nil, -1, nil, "function has no blocks")
	}
	if fn.Entry == nil {
		return v.errf(nil, -1, nil, "function has no entry block")
	}
	clear(v.index)
	for i, b := range fn.Blocks {
		v.index[b] = i
	}
	if _, ok := v.index[fn.Entry]; !ok {
		return v.errf(nil, -1, nil, "entry block b%d is not in the block list", fn.Entry.ID)
	}
	if len(fn.RegClasses) != fn.NumRegs {
		return v.errf(nil, -1, nil, "RegClasses has %d entries for %d registers",
			len(fn.RegClasses), fn.NumRegs)
	}
	if len(fn.ParamClasses) != len(fn.Params) {
		return v.errf(nil, -1, nil, "%d parameter classes for %d parameters",
			len(fn.ParamClasses), len(fn.Params))
	}
	for i, p := range fn.Params {
		if p < 0 || int(p) >= fn.NumRegs {
			return v.errf(nil, -1, nil, "parameter %d register %d out of range [0,%d)", i, int(p), fn.NumRegs)
		}
		if fn.RegClasses[p] != fn.ParamClasses[i] {
			return v.errf(nil, -1, nil, "parameter %d is %s %v, declared %s", i, fn.RegClasses[p], p,
				fn.ParamClasses[i])
		}
	}

	// Structural checks per block: single trailing terminator, well-formed
	// instructions and edges.
	for _, b := range fn.Blocks {
		if len(b.Instrs) == 0 {
			return v.errf(b, -1, nil, "empty block (no terminator)")
		}
		for idx, in := range b.Instrs {
			last := idx == len(b.Instrs)-1
			if in.Op.IsTerminator() != last {
				if last {
					return v.errf(b, idx, in, "block does not end in a terminator (got %v)", in.Op)
				}
				return v.errf(b, idx, in, "terminator %v in the middle of a block", in.Op)
			}
			if err := v.verifyInstr(b, idx, in); err != nil {
				return err
			}
		}
	}
	return v.verifyDefBeforeUse()
}

// verifyInstr checks one instruction's shape, register ranges, payload,
// register classes and branch targets, in that order.
func (v *verifier) verifyInstr(b *Block, idx int, in *Instr) error {
	fn := v.fn
	if in.Op <= OpInvalid || int(in.Op) >= len(shapes) {
		return v.errf(b, idx, in, "unhandled op %v", in.Op)
	}
	sh := shapes[in.Op]
	if nd, na := len(in.Dst), len(in.Args); nd < int(sh.minDst) || nd > int(sh.maxDst) ||
		na < int(sh.minArgs) || na > int(sh.maxArgs) {
		return v.errf(b, idx, in, "%v with %d results and %d operands", in.Op, nd, na)
	}

	// Register ranges. Args may use NoReg only in the optional index slot
	// of global and cache accesses (arg 0, except CacheFill whose arg 0
	// carries the CAM entry from its lookup and whose index is arg 1).
	optionalIndexSlot := -1
	switch in.Op {
	case OpLoad, OpStore, OpCacheLookup, OpCacheFlush:
		optionalIndexSlot = 0
	case OpCacheFill:
		optionalIndexSlot = 1
	}
	// role and i name the operand ("dst 0", "arg 1") and are formatted only
	// on the error path: every operand of every instruction passes here.
	checkReg := func(r Reg, role string, i int) error {
		if r == NoReg {
			if role != "arg" || i != optionalIndexSlot {
				return v.errf(b, idx, in, "%v: %s %d is NoReg", in.Op, role, i)
			}
			return nil
		}
		if r < 0 || int(r) >= fn.NumRegs {
			return v.errf(b, idx, in, "%v: %s %d register %d out of range [0,%d)",
				in.Op, role, i, int(r), fn.NumRegs)
		}
		return nil
	}
	for i, r := range in.Dst {
		if err := checkReg(r, "dst", i); err != nil {
			return err
		}
	}
	for i, r := range in.Args {
		if err := checkReg(r, "arg", i); err != nil {
			return err
		}
	}

	if err := v.verifyPayload(b, idx, in); err != nil {
		return err
	}

	// Register classes. handle says whether r's slot takes a handle.
	class := func(r Reg) RegClass { return fn.RegClasses[r] }
	want := func(r Reg, handle bool) error {
		switch {
		case r == NoReg || handle == (class(r) == ClassHandle):
			return nil
		case handle:
			return v.errf(b, idx, in, "%v: handle operand %v has class word", in.Op, r)
		}
		return v.errf(b, idx, in, "%v: operand %v is a handle, want a word", in.Op, r)
	}
	switch in.Op {
	case OpMov:
		if class(in.Dst[0]) != class(in.Args[0]) {
			return v.errf(b, idx, in, "mov of %s %v into %s %v", class(in.Args[0]), in.Args[0],
				class(in.Dst[0]), in.Dst[0])
		}
	case OpEq, OpNe:
		if class(in.Args[0]) != class(in.Args[1]) {
			return v.errf(b, idx, in, "%v compares %s %v with %s %v", in.Op, class(in.Args[0]), in.Args[0],
				class(in.Args[1]), in.Args[1])
		}
		return want(in.Dst[0], false)
	case OpCall, OpRet: // arguments are checked with the callee (verifyPayload); ret returns either
	default:
		for i, r := range in.Args {
			if err := want(r, i == 0 && sh.classes&handleIn != 0); err != nil {
				return err
			}
		}
		for i, r := range in.Dst {
			if err := want(r, i == 0 && sh.classes&handleOut != 0); err != nil {
				return err
			}
		}
	}

	// Branch targets: two for condbr, one for br, none for any other op,
	// each a block of fn.
	targets := 0
	switch in.Op {
	case OpBr:
		targets = 1
	case OpCondBr:
		targets = 2
	}
	if len(in.Blocks) != targets {
		return v.errf(b, idx, in, "%v with %d targets, want %d", in.Op, len(in.Blocks), targets)
	}
	for _, t := range in.Blocks {
		if t == nil {
			return v.errf(b, idx, in, "%v: nil branch target", in.Op)
		}
		if _, ok := v.index[t]; !ok {
			return v.errf(b, idx, in, "%v: edge to b%d, which is not a block of %s",
				in.Op, t.ID, fn.Name)
		}
	}
	return nil
}

// verifyPayload checks what an instruction names besides its registers:
// its callee (and the classes of the arguments it takes), global,
// protocol, channel, field or raw byte range.
func (v *verifier) verifyPayload(b *Block, idx int, in *Instr) error {
	switch in.Op {
	case OpCall:
		callee := v.prog.Func(in.Callee)
		if callee == nil {
			return v.errf(b, idx, in, "call: unknown callee %q", in.Callee)
		}
		if len(in.Args) != len(callee.Params) {
			return v.errf(b, idx, in, "call: %d arguments for %s, which takes %d",
				len(in.Args), in.Callee, len(callee.Params))
		}
		for i, a := range in.Args {
			if c := v.fn.RegClasses[a]; i < len(callee.ParamClasses) && c != callee.ParamClasses[i] {
				return v.errf(b, idx, in, "call passes %s %v for %s parameter %d of %s",
					c, a, callee.ParamClasses[i], i, in.Callee)
			}
		}
	case OpLoad, OpStore, OpCacheLookup, OpCacheFill, OpCacheFlush:
		if in.Global == nil {
			return v.errf(b, idx, in, "%v without a global", in.Op)
		}
		if (in.Op == OpLoad || in.Op == OpStore) && (in.Width < 0 || in.Width%4 != 0) {
			return v.errf(b, idx, in, "%v: width %d is not a word multiple", in.Op, in.Width)
		}
	case OpPktLoad, OpPktStore, OpMetaLoad, OpMetaStore:
		load := in.Op == OpPktLoad || in.Op == OpMetaLoad
		if in.Field != nil {
			if in.Field.Bits < 1 || in.Field.Bits > 32 {
				return v.errf(b, idx, in, "%v: field %s is %d bits, outside the 1..32 word range",
					in.Op, in.Field.Name, in.Field.Bits)
			}
			if load && len(in.Dst) != 1 {
				return v.errf(b, idx, in, "%v .%s: %d destinations, want 1",
					in.Op, in.Field.Name, len(in.Dst))
			}
			if !load && len(in.Args) != 2 {
				return v.errf(b, idx, in, "%v .%s: %d operands, want 2 (handle, value)",
					in.Op, in.Field.Name, len(in.Args))
			}
			return nil
		}
		// Raw byte-range access (post-PAC form, packet and metadata
		// alike). A packet offset may be negative: PAC aliases handles
		// through encap/decap, so a combined range can start before the
		// base handle's header. The metadata record has no such slack.
		if in.Width <= 0 || in.Width%4 != 0 {
			return v.errf(b, idx, in, "%v: raw width %d is not a positive word multiple",
				in.Op, in.Width)
		}
		if load && len(in.Dst) != in.Width/4 {
			return v.errf(b, idx, in, "%v raw[%d:%d]: %d destinations for width %d",
				in.Op, in.Off, int(in.Off)+in.Width, len(in.Dst), in.Width)
		}
		if !load && len(in.Args) != 1+in.Width/4 {
			return v.errf(b, idx, in, "%v raw[%d:%d]: %d operands for width %d",
				in.Op, in.Off, int(in.Off)+in.Width, len(in.Args), in.Width)
		}
		if in.Off < 0 && (in.Op == OpMetaLoad || in.Op == OpMetaStore) {
			return v.errf(b, idx, in, "%v raw[%d:%d]: metadata offset %d is negative",
				in.Op, in.Off, int(in.Off)+in.Width, in.Off)
		}
	case OpDecap:
		if tp := v.prog.Types; tp == nil || in.Imm >= uint64(len(tp.ProtoByID)) {
			return v.errf(b, idx, in, "decap of unknown protocol ID %d", in.Imm)
		}
		fallthrough
	case OpEncap, OpPktCreate:
		if in.Proto == nil {
			return v.errf(b, idx, in, "%v without a protocol", in.Op)
		}
	case OpChanPut:
		if in.Chan == nil {
			return v.errf(b, idx, in, "chanput without a channel")
		}
	}
	return nil
}

// verifyDefBeforeUse checks that every scalar register is written on every
// path from entry before it is read. The analysis is a forward dataflow
// over the CFG: a register is "defined at block entry" when it is defined
// at the exit of every predecessor (parameters are defined at the function
// entry). Blocks with no predecessors other than the entry are unreachable
// and start from the universal set, so they never raise false alarms.
func (v *verifier) verifyDefBeforeUse() error {
	fn := v.fn
	words, n := bitWords(fn), len(fn.Blocks)
	v.bits = v.bits[:words*(n+1)]
	for i := range v.bits {
		v.bits[i] = ^uint64(0)
	}
	// in(b) is the row of registers defined on entry to b; the row past the
	// last block is scratch.
	in := func(b *Block) []uint64 {
		i := v.index[b]
		return v.bits[i*words : (i+1)*words]
	}
	scratch := v.bits[n*words:]
	entry := in(fn.Entry)
	clear(entry)
	for _, p := range fn.Params {
		entry[int(p)/64] |= 1 << (uint(p) % 64)
	}
	define := func(set []uint64, i *Instr) {
		for _, d := range i.Dst {
			if d != NoReg {
				set[int(d)/64] |= 1 << (uint(d) % 64)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			// Succs may be stale between passes; take edges from the
			// terminator.
			t := b.Terminator()
			if t == nil {
				continue
			}
			out := scratch
			copy(out, in(b))
			for _, i := range b.Instrs {
				define(out, i)
			}
			for _, s := range t.Blocks {
				if s == fn.Entry {
					continue // entry keeps its parameter seed
				}
				cur := in(s)
				for w := range cur {
					if nv := cur[w] & out[w]; nv != cur[w] {
						cur[w] = nv
						changed = true
					}
				}
			}
		}
	}
	defined := scratch
	for _, b := range fn.Blocks {
		copy(defined, in(b))
		for idx, i := range b.Instrs {
			for _, a := range i.Args {
				if a == NoReg {
					continue
				}
				if defined[int(a)/64]&(1<<(uint(a)%64)) == 0 {
					return v.errf(b, idx, i, "%v reads %v before any definition reaches it",
						i.Op, a)
				}
			}
			define(defined, i)
		}
	}
	return nil
}
