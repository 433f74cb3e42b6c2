// Package types implements semantic analysis for Baker: symbol resolution,
// type checking, protocol/metadata bit-layout computation, constant
// evaluation, the dataflow (wiring) graph, and the language restrictions
// from §2.3 of the paper (no recursion within a PPF's call tree; packet
// handles are the only reference values, so aliasing stays analyzable).
package types

import (
	"fmt"

	"shangrila/internal/baker/ast"
	"shangrila/internal/baker/token"
)

// WordBytes is the machine word size of the target (the IXP is a 32-bit
// machine; all scalars occupy one 4-byte word).
const WordBytes = 4

// Type is the interface implemented by all Baker types.
type Type interface {
	String() string
	// SizeBytes is the storage footprint of a value of this type.
	SizeBytes() int
}

// BasicKind enumerates the scalar types.
type BasicKind int

const (
	Uint BasicKind = iota // 32-bit unsigned word (the native type)
	Int                   // 32-bit signed word
	Void
)

// Basic is a scalar type.
type Basic struct{ Kind BasicKind }

func (b *Basic) String() string {
	switch b.Kind {
	case Uint:
		return "uint"
	case Int:
		return "int"
	}
	return "void"
}

func (b *Basic) SizeBytes() int {
	if b.Kind == Void {
		return 0
	}
	return WordBytes
}

// Predeclared singleton types.
var (
	UintType = &Basic{Kind: Uint}
	IntType  = &Basic{Kind: Int}
	VoidType = &Basic{Kind: Void}
)

// IsScalar reports whether t is a 32-bit integer type.
func IsScalar(t Type) bool {
	b, ok := t.(*Basic)
	return ok && b.Kind != Void
}

// StructField is a field of a Struct with its byte offset.
type StructField struct {
	Name   string
	Type   Type
	Offset int // byte offset within the struct
}

// Struct is a programmer-declared aggregate used for global data.
type Struct struct {
	Name   string
	Fields []*StructField
	Size   int // total bytes, word aligned
}

func (s *Struct) String() string { return s.Name }
func (s *Struct) SizeBytes() int { return s.Size }

// Field returns the named field or nil.
func (s *Struct) Field(name string) *StructField {
	for _, f := range s.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Array is a fixed-length array type.
type Array struct {
	Elem Type
	Len  int
}

func (a *Array) String() string { return fmt.Sprintf("%s[%d]", a.Elem, a.Len) }
func (a *Array) SizeBytes() int { return a.Elem.SizeBytes() * a.Len }

// Handle is a packet handle typed by the protocol of the header it
// currently points at (ph in "ether ph").
type Handle struct{ Proto *Protocol }

func (h *Handle) String() string { return "handle<" + h.Proto.Name + ">" }

// SizeBytes of a handle is one word (it is an opaque reference).
func (h *Handle) SizeBytes() int { return WordBytes }

// ProtoField is one bit field of a protocol header.
type ProtoField struct {
	Name   string
	BitOff int // offset from the start of the header, in bits
	Bits   int // width in bits (1..64)
}

// ByteSpan returns the byte-aligned span [lo, hi) covering the field.
func (f *ProtoField) ByteSpan() (lo, hi int) {
	lo = f.BitOff / 8
	hi = (f.BitOff + f.Bits + 7) / 8
	return lo, hi
}

// Overlaps reports whether the field has a bit in the bytes [lo, hi).
func (f *ProtoField) Overlaps(lo, hi int) bool {
	flo, fhi := f.ByteSpan()
	return flo < hi && lo < fhi
}

// WordSpan returns the word-aligned byte range [wlo, whi) covering the
// bytes [lo, hi): the words a burst over them moves.
func WordSpan(lo, hi int) (wlo, whi int) {
	return lo &^ (WordBytes - 1), (hi + WordBytes - 1) &^ (WordBytes - 1)
}

// BitMask is the value mask of a bits-wide field: its low bits set.
func BitMask(bits int) uint32 { return uint32(uint64(1)<<bits - 1) }

// Part is the share of a field that one 32-bit word of a burst holds.
// Words are big-endian, so the upper bits of a field that crosses a word
// boundary sit in the earlier word.
type Part struct {
	Word  int // index of the word in the burst
	Shift int // bits from the word's least significant bit to the part's
	Bits  int // width of the part
	Low   int // bits of the field below the part: the part's shift in the value
}

// Mask is the part's bits within its word.
func (p Part) Mask() uint32 { return BitMask(p.Bits) << p.Shift }

// Placement is where a field's bits sit in a burst of words: one part, or
// two, upper first, when the field crosses a word boundary.
type Placement struct {
	Parts [2]Part
	N     int
}

// Place is the one rule placing a field of 1..32 bits in the burst of
// words that starts at byte wlo of its header or metadata record. Field
// loads and stores in PAC and in codegen emit their shifts and masks
// from it.
func (f *ProtoField) Place(wlo int) Placement {
	rel := f.BitOff - wlo*8
	word, at := rel/32, rel%32 // at: bits from the word's most significant bit
	if at+f.Bits <= 32 {
		return Placement{Parts: [2]Part{{Word: word, Shift: 32 - at - f.Bits, Bits: f.Bits}}, N: 1}
	}
	hi := 32 - at
	lo := f.Bits - hi
	return Placement{Parts: [2]Part{
		{Word: word, Bits: hi, Low: lo},
		{Word: word + 1, Shift: 32 - lo, Bits: lo},
	}, N: 2}
}

// Fills reports whether the field fills every word it sits in, so a store
// of it overwrites them whole and need not read them first.
func (pl Placement) Fills() bool {
	for _, p := range pl.Parts[:pl.N] {
		if p.Mask() != ^uint32(0) {
			return false
		}
	}
	return true
}

// Protocol is a packet protocol layout (§2.2). Fields are laid out in
// declaration order, big-endian, bit-packed. The demux declaration gives
// the header size in bytes: the checker folds one that reads no field into
// FixedSize, and resolves one that does into Demux with FixedSize -1.
type Protocol struct {
	Name      string
	Fields    []*ProtoField
	HeaderMin int    // minimum header bytes = bit-packed field total
	FixedSize int    // demux value when constant, else -1
	Demux     *Demux // resolved demux when the size is dynamic, else nil
	ID        int    // dense index assigned by the checker
}

func (p *Protocol) String() string { return "protocol " + p.Name }

// Size is the header size known without reading a header: the fixed size,
// or the minimum for a dynamic demux. packet_encap and packet_create build
// headers of this size on every layer.
func (p *Protocol) Size() int {
	if p.FixedSize >= 0 {
		return p.FixedSize
	}
	return p.HeaderMin
}

// Demux is a node of a resolved demux expression: a field of the header
// (Field set), a constant (Field and X nil), or Op applied to X and, unless
// Op is unary, Y. Op is one of the operators every layer computes alike on
// 32-bit words, all total: binary + - * << >> & | ^ (shift counts masked
// with & 31) and unary - ~ (Y nil).
type Demux struct {
	Field *ProtoField
	Value uint32
	Op    token.Kind
	X, Y  *Demux
}

// Eval computes the expression over the header whose fields read returns.
func (d *Demux) Eval(read func(*ProtoField) (uint32, error)) (uint32, error) {
	switch {
	case d.Field != nil:
		return read(d.Field)
	case d.X == nil:
		return d.Value, nil
	}
	x, err := d.X.Eval(read)
	switch {
	case err != nil:
		return 0, err
	case d.Y == nil && d.Op == token.SUB:
		return -x, nil
	case d.Y == nil:
		return ^x, nil
	}
	y, err := d.Y.Eval(read)
	v, _ := binaryOp(d.Op, x, y) // total on every operator the checker admits
	return v, err
}

// Span is the byte offset just past the last header byte the expression
// reads (0 when it reads no field).
func (d *Demux) Span() int {
	switch {
	case d.Field != nil:
		_, hi := d.Field.ByteSpan()
		return hi
	case d.Y != nil:
		return max(d.X.Span(), d.Y.Span())
	case d.X != nil:
		return d.X.Span()
	}
	return 0
}

// Field returns the named field or nil.
func (p *Protocol) Field(name string) *ProtoField {
	for _, f := range p.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Metadata is the per-packet metadata layout. It reuses ProtoField for its
// bit-packed members; on the IXP the record lives in SRAM next to the
// buffer descriptor.
type Metadata struct {
	Fields []*ProtoField
	Bytes  int // total size, word aligned
}

// Field returns the named metadata field or nil.
func (m *Metadata) Field(name string) *ProtoField {
	for _, f := range m.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Symbols

// SymKind classifies program symbols.
type SymKind int

const (
	SymGlobal SymKind = iota
	SymLocal
	SymParam
	SymConst
	SymChannel
	SymFunc
)

// Symbol is a named program entity. Globals and channels carry their
// declaring module; locals/params belong to a function.
type Symbol struct {
	Kind   SymKind
	Name   string // qualified for globals/channels: "module.name"
	Type   Type
	Const  uint64   // value when Kind == SymConst
	Chan   *Channel // when Kind == SymChannel
	Func   *Func    // when Kind == SymFunc
	Global *Global  // when Kind == SymGlobal
}

// MemSpace is the physical memory level a global is mapped to. The
// IPA/global optimizer assigns it: most application data goes to SRAM,
// small hot structures to Scratch (§4.1); compiler-generated per-ME state
// (software-cache counters) goes to Local Memory.
type MemSpace uint8

// Memory levels of the IXP2400 (§3.2).
const (
	SpaceSRAM MemSpace = iota // default for application data
	SpaceScratch
	SpaceLocal // per-ME: only for compiler-generated private state
	SpaceDRAM  // packet data (globals never live here)
)

func (s MemSpace) String() string {
	switch s {
	case SpaceScratch:
		return "scratch"
	case SpaceLocal:
		return "local"
	case SpaceDRAM:
		return "dram"
	}
	return "sram"
}

// Global is a module-level shared data structure.
type Global struct {
	Name   string // qualified "module.name"
	Type   Type
	Module string
	// Space is the memory level chosen by the IPA/global optimizer.
	Space MemSpace
	// Synthetic marks compiler-generated globals (SWC flags/counters).
	Synthetic bool
	// ID is the global's dense index in Program.Globals: declaration order,
	// then synthetic globals in creation order.
	ID int
}

// Channel is a communication channel between PPFs.
type Channel struct {
	Name     string // qualified "module.name"
	Proto    *Protocol
	Module   string
	Consumer string // PPF qualified name, or "tx", or "" if unwired
	ID       int    // dense index
}

// Func is a checked function or PPF.
type Func struct {
	Name    string // qualified "module.name"
	Kind    ast.FuncKind
	Params  []*Symbol
	Result  Type
	Decl    *ast.FuncDecl
	Module  string
	InProto *Protocol // for PPFs: protocol of the input packet
	Calls   []string  // qualified callee names (for recursion check / call graph)
}

// ---------------------------------------------------------------------------
// Checked program

// Info carries the side tables produced by the checker that later phases
// (lowering) consume.
type Info struct {
	// ExprTypes maps every checked expression to its type.
	ExprTypes map[ast.Expr]Type
	// Uses maps identifier expressions to their resolved symbols.
	Uses map[*ast.Ident]*Symbol
	// CallResolved maps call expressions that target user functions to the
	// callee. Builtin calls are absent.
	CallResolved map[*ast.CallExpr]*Func
	// HandleProto maps packet-primitive calls (packet_decap, packet_encap,
	// packet_create, packet_copy) to the protocol of their result handle.
	HandleProto map[*ast.CallExpr]*Protocol
	// ChanArg maps channel_put calls to the channel they place packets on.
	ChanArg map[*ast.CallExpr]*Channel
	// LocalSyms maps declaration statements to their symbol.
	LocalSyms map[*ast.DeclStmt]*Symbol
	// ParamSyms maps parameters to their symbol.
	ParamSyms map[*ast.Param]*Symbol
}

// Program is the result of successful type checking.
type Program struct {
	AST       *ast.Program
	Protocols map[string]*Protocol
	ProtoByID []*Protocol
	Metadata  *Metadata
	Consts    map[string]uint64
	Structs   map[string]*Struct
	Globals   map[string]*Global  // qualified name
	Channels  map[string]*Channel // qualified name
	ChanByID  []*Channel
	Funcs     map[string]*Func // qualified name
	// Entry is the PPF wired to the builtin "rx" source.
	Entry *Func
	Info  *Info
}

// PPFs returns all packet processing functions in deterministic order
// (module order then declaration order).
func (p *Program) PPFs() []*Func {
	var out []*Func
	for _, m := range p.AST.Modules {
		for _, fd := range m.Funcs {
			if fd.Kind == ast.KindPPF {
				out = append(out, p.Funcs[m.Name+"."+fd.Name])
			}
		}
	}
	return out
}

// FuncsInOrder returns every function in deterministic declaration order.
func (p *Program) FuncsInOrder() []*Func {
	var out []*Func
	for _, m := range p.AST.Modules {
		for _, fd := range m.Funcs {
			out = append(out, p.Funcs[m.Name+"."+fd.Name])
		}
	}
	return out
}
