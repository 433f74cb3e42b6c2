// Package ir defines Shangri-La's medium-level intermediate representation,
// the stand-in for ORC's WHIRL in the paper's Figure 5 pipeline.
//
// The IR is a conventional control-flow graph of three-address instructions
// over virtual registers, extended with the packet-processing primitives the
// specialized optimizations (PAC, SOAR, PHR, SWC) analyze and rewrite:
// packet field loads/stores, metadata accesses, encapsulation operations and
// channel puts. Memory instructions carry the global they touch so the
// IPA/global optimizer can map data to memory levels and pick caching
// candidates.
package ir

import (
	"strconv"

	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
)

// Reg is a virtual register, dense within a function.
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = -1

// RegClass distinguishes plain 32-bit words from packet handles.
type RegClass uint8

const (
	// ClassWord is a 32-bit integer value.
	ClassWord RegClass = iota
	// ClassHandle is an opaque packet handle.
	ClassHandle
)

func (c RegClass) String() string {
	if c == ClassHandle {
		return "handle"
	}
	return "word"
}

// Op enumerates IR operations.
type Op int

const (
	OpInvalid Op = iota

	// Data movement and arithmetic. Dst[0] = op(Args...).
	OpConst // Dst[0] = Imm
	OpMov   // Dst[0] = Args[0]
	OpAdd
	OpSub
	OpMul
	OpDivU
	OpRemU
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShrU // logical shift right
	OpShrS // arithmetic shift right
	OpNot
	OpNeg

	// Comparisons produce 0 or 1 in Dst[0].
	OpEq
	OpNe
	OpLtU
	OpLeU
	OpLtS
	OpLeS

	// Control flow (block terminators). Targets in Blocks.
	OpBr     // Blocks[0]
	OpCondBr // Args[0] nonzero -> Blocks[0], else Blocks[1]
	OpRet    // optional Args[0]

	// Calls. Dst[0] optional; Callee is the qualified function name.
	OpCall

	// Global data access. Global names the structure; the byte address
	// within it is Off plus Args[0] (optional index register, bytes).
	// Width is the access size in bytes (a multiple of 4 after PAC).
	// Dst/Args hold Width/4 registers for wide accesses.
	OpLoad  // Dst[0..n] = global[Off + Args[0]?]
	OpStore // global[Off + Args[0]?] = Args[1..] (Args[0] may be NoReg)

	// Packet data access through a handle (Args[0] = handle).
	// Pre-PAC: Field names one protocol bit field; Dst[0] receives the
	// zero-extended value (loads) or Args[1] supplies it (stores).
	// Post-PAC: Field == nil, Off/Width give a raw byte range relative to
	// the handle's current header, and Dst/Args carry Width/4 word regs.
	OpPktLoad
	OpPktStore

	// Packet metadata access (Args[0] = handle). Same Field conventions.
	OpMetaLoad
	OpMetaStore

	// Encapsulation primitives (§2.2). Dst[0] = new handle, Args[0] = old.
	// Proto is the protocol of the resulting handle's header.
	OpEncap
	OpDecap

	// Other packet primitives.
	OpPktCopy    // Dst[0] = copy(Args[0])
	OpPktCreate  // Dst[0] = fresh packet of Proto
	OpPktDrop    // drop(Args[0])
	OpAddTail    // add Args[1] bytes to tail of Args[0]
	OpRemoveTail // remove Args[1] bytes from tail of Args[0]
	OpPktLength  // Dst[0] = payload length of Args[0]

	// Channel output: place Args[0]'s packet on Chan.
	OpChanPut

	// Critical sections: Imm is the static lock ID.
	OpLockAcquire
	OpLockRelease

	// SWC-generated operations (emitted by the software-cache transform).
	OpCacheLookup // Dst[0] = hit(0/1), Dst[1] = CAM entry, Dst[2..] = cached words; Global, Off/Args[0] key
	OpCacheFill   // install line at entry Args[0]; Args[1] = index (or NoReg), Args[2..] = words; Global
	OpCacheFlush  // invalidate all cached lines of Global
)

var opNames = [...]string{
	OpConst: "const", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDivU: "divu", OpRemU: "remu", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShrU: "shru", OpShrS: "shrs", OpNot: "not", OpNeg: "neg",
	OpEq: "eq", OpNe: "ne", OpLtU: "ltu", OpLeU: "leu", OpLtS: "lts", OpLeS: "les",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpCall: "call",
	OpLoad: "load", OpStore: "store",
	OpPktLoad: "pktload", OpPktStore: "pktstore",
	OpMetaLoad: "metaload", OpMetaStore: "metastore",
	OpEncap: "encap", OpDecap: "decap",
	OpPktCopy: "pktcopy", OpPktCreate: "pktcreate", OpPktDrop: "pktdrop",
	OpAddTail: "addtail", OpRemoveTail: "removetail", OpPktLength: "pktlength",
	OpChanPut:     "chanput",
	OpLockAcquire: "lock", OpLockRelease: "unlock",
	OpCacheLookup: "cachelookup", OpCacheFill: "cachefill", OpCacheFlush: "cacheflush",
}

func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// IsTerminator reports whether o ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// UnknownOff marks an unresolved static packet offset (SOAR lattice bottom).
const UnknownOff int32 = -1 << 30

// Instr is one IR instruction. Fields beyond Op/Dst/Args carry op-specific
// payload; see the Op constants for each operation's conventions.
type Instr struct {
	Op   Op
	Pos  token.Pos
	Dst  []Reg
	Args []Reg
	Imm  uint64

	Global *types.Global
	Proto  *types.Protocol
	Field  *types.ProtoField
	Chan   *types.Channel
	Callee string
	Off    int32 // byte offset (global ops; raw packet ops)
	Width  int   // access width in bytes (raw packet ops, wide loads)

	// SOAR results: the handle's resolved header offset from the packet
	// start at this access, and its alignment guarantee in bytes.
	// StaticOff == UnknownOff means unresolved; StaticAlign 0 means unknown.
	StaticOff   int32
	StaticAlign int
	// StaticMin is SOAR's proven lower bound on the handle's offset (0
	// when nothing is known). PAC uses it to alias handles through
	// packet_encap safely: an encap at offset >= header size never grows
	// the buffer front.
	StaticMin int32

	Blocks []*Block // branch targets
}

// Dst0 returns the sole destination or NoReg.
func (i *Instr) Dst0() Reg {
	if len(i.Dst) == 0 {
		return NoReg
	}
	return i.Dst[0]
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
}

// Terminator returns the block's final instruction, or nil if the block is
// not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// Func is an IR function: the lowered body of a Baker PPF or function.
type Func struct {
	Name   string // qualified "module.name"
	Kind   FuncKind
	Params []Reg
	// ParamClasses mirrors Params.
	ParamClasses []RegClass
	Blocks       []*Block
	Entry        *Block
	NumRegs      int
	RegClasses   []RegClass // indexed by Reg
	// InProto is the input packet protocol for PPFs.
	InProto *types.Protocol
	// Source is the originating semantic function.
	Source *types.Func

	store funcStore
}

// FuncKind mirrors ast.FuncKind without importing ast here.
type FuncKind int

// Function kinds.
const (
	FuncPPF FuncKind = iota
	FuncHelper
	FuncControl
	FuncInit
)

func (k FuncKind) String() string {
	switch k {
	case FuncPPF:
		return "ppf"
	case FuncHelper:
		return "func"
	case FuncControl:
		return "control"
	case FuncInit:
		return "init"
	}
	return "?"
}

// NewReg allocates a fresh virtual register of the given class.
func (f *Func) NewReg(c RegClass) Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	f.RegClasses = append(f.RegClasses, c)
	return r
}

// NewBlock appends a fresh empty block.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Positioned reports whether b is f's block at position b.ID, as
// ComputeCFG leaves every block; false for nil and for a block f does not
// list.
func (f *Func) Positioned(b *Block) bool {
	return b != nil && b.ID >= 0 && b.ID < len(f.Blocks) && f.Blocks[b.ID] == b
}

// ComputeCFG rebuilds Preds/Succs from terminators, prunes the blocks
// unreachable from the entry and numbers the rest by position.
//
// Only f's own blocks are walked: a branch target that is not in f.Blocks
// (ir.Verify reports it) reaches nothing, whatever its ID, and gets no
// Preds. The edge lists are carved out of one slab each, sized by
// counting the edges first; each has its capacity clipped, so a pass
// appending to one reallocates rather than running into its neighbour.
func (f *Func) ComputeCFG() {
	n := len(f.Blocks)
	for i, b := range f.Blocks {
		b.ID = i
	}
	// reach marks the blocks the walk from the entry finds; stack is its
	// worklist, and then each block's predecessor count.
	buf := make([]int32, 2*n)
	reach, stack := buf[:n:n], buf[n:n]
	if f.Positioned(f.Entry) {
		reach[f.Entry.ID] = 1
		stack = append(stack, int32(f.Entry.ID))
	}
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		if t := b.Terminator(); t != nil {
			for _, s := range t.Blocks {
				if f.Positioned(s) && reach[s.ID] == 0 {
					reach[s.ID] = 1
					stack = append(stack, int32(s.ID))
				}
			}
		}
	}
	npred := buf[n:]
	clear(npred)
	nSuccs, nPreds := 0, 0
	for i, b := range f.Blocks {
		if t := b.Terminator(); reach[i] != 0 && t != nil {
			nSuccs += len(t.Blocks)
			for _, s := range t.Blocks {
				if f.Positioned(s) {
					npred[s.ID]++
					nPreds++
				}
			}
		}
	}
	succs := make([]*Block, nSuccs)
	preds := make([]*Block, nPreds)
	for i, b := range f.Blocks {
		b.Preds, b.Succs = nil, nil
		if reach[i] == 0 {
			continue
		}
		np := int(npred[i])
		b.Preds, preds = preds[:0:np], preds[np:]
		if t := b.Terminator(); t != nil && len(t.Blocks) > 0 {
			ns := len(t.Blocks)
			b.Succs, succs = succs[:ns:ns], succs[ns:]
			copy(b.Succs, t.Blocks)
		}
	}
	for i, b := range f.Blocks {
		if reach[i] == 0 {
			continue
		}
		for _, s := range b.Succs {
			if f.Positioned(s) {
				s.Preds = append(s.Preds, b)
			}
		}
	}
	kept := f.Blocks[:0]
	for i, b := range f.Blocks {
		if reach[i] != 0 {
			b.ID = len(kept)
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}

// Program is the IR for a whole Baker application plus the semantic model it
// was lowered from.
type Program struct {
	Types *types.Program
	// Funcs holds the functions in declaration order: lowering order, with
	// functions a pass synthesizes appended.
	Funcs []*Func
	// NumLocks is the number of static critical-section locks.
	NumLocks int
}

// Func returns the named function or nil.
func (p *Program) Func(name string) *Func {
	if i := p.Index(name); i >= 0 {
		return p.Funcs[i]
	}
	return nil
}

// Index returns the position of the named function in Funcs, or -1. A
// program has about ten functions, so a scan costs no more than a map.
func (p *Program) Index(name string) int {
	for i, f := range p.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// PPFs returns the packet processing functions in declaration order.
func (p *Program) PPFs() []*Func {
	var out []*Func
	for _, f := range p.Funcs {
		if f.Kind == FuncPPF {
			out = append(out, f)
		}
	}
	return out
}
