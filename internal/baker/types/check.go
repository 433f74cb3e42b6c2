package types

import (
	"fmt"
	"math"
	"sort"

	"shangrila/internal/baker/ast"
	"shangrila/internal/baker/token"
)

// CheckError is a semantic error at a source position.
type CheckError struct {
	Pos token.Pos
	Msg string
}

func (e *CheckError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects semantic errors; it implements error.
type ErrorList []*CheckError

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// MaxFieldBits is the widest protocol/metadata field that can be accessed
// directly; wider fields must be split by the programmer (the target is a
// 32-bit machine). Declaring a wider field is legal as long as no access
// reads it whole.
const MaxFieldBits = 32

type checker struct {
	prog *Program
	errs ErrorList

	// per-function state
	cur    *Func
	scopes []map[string]*Symbol
	module string
	loop   int
}

// Check type-checks a parsed program and returns the semantic model.
func Check(prog *ast.Program) (*Program, error) {
	c := &checker{prog: &Program{
		AST:       prog,
		Protocols: map[string]*Protocol{},
		Consts:    map[string]uint64{},
		Structs:   map[string]*Struct{},
		Globals:   map[string]*Global{},
		Channels:  map[string]*Channel{},
		Funcs:     map[string]*Func{},
		Info: &Info{
			ExprTypes:    map[ast.Expr]Type{},
			Uses:         map[*ast.Ident]*Symbol{},
			CallResolved: map[*ast.CallExpr]*Func{},
			HandleProto:  map[*ast.CallExpr]*Protocol{},
			ChanArg:      map[*ast.CallExpr]*Channel{},
			LocalSyms:    map[*ast.DeclStmt]*Symbol{},
			ParamSyms:    map[*ast.Param]*Symbol{},
		},
	}}
	c.collectConsts()
	c.collectProtocols()
	c.collectMetadata()
	c.collectModules()
	c.checkBodies()
	c.checkWiring()
	c.checkNoRecursion()
	if len(c.errs) > 0 {
		return c.prog, c.errs
	}
	return c.prog, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < 100 {
		c.errs = append(c.errs, &CheckError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (c *checker) collectConsts() {
	for _, d := range c.prog.AST.Consts {
		if _, dup := c.prog.Consts[d.Name]; dup {
			c.errorf(d.Pos(), "duplicate constant %q", d.Name)
			continue
		}
		errs := len(c.errs)
		v, ok := c.constEval(d.Value)
		if !ok && len(c.errs) == errs {
			c.errorf(d.Pos(), "constant %q is not a compile-time constant expression", d.Name)
			v = 0
		}
		c.prog.Consts[d.Name] = v
	}
}

// constEval evaluates e using only literals and previously declared
// constants. A zero divisor is refused at its operator, reported here; for
// any other expression that is no constant the caller reports why.
func (c *checker) constEval(e ast.Expr) (uint64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.Ident:
		v, ok := c.prog.Consts[e.Name]
		return v, ok
	case *ast.UnaryExpr:
		x, ok := c.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.SUB:
			return uint64(uint32(-int32(uint32(x)))), true
		case token.NOT:
			return uint64(^uint32(x)), true
		case token.LNOT:
			if x == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.BinaryExpr:
		x, okx := c.constEval(e.X)
		y, oky := c.constEval(e.Y)
		if okx && oky && uint32(y) == 0 && (e.Op == token.QUO || e.Op == token.REM) {
			c.errorf(e.OpPos, "division by zero in constant expression")
			return 0, false
		}
		v, ok := binaryOp(e.Op, uint32(x), uint32(y))
		return uint64(v), okx && oky && ok
	}
	return 0, false
}

// binaryOp computes a Baker binary operator on 32-bit words as ir.EvalALU
// computes its word op (ir imports this package, so the language keeps its
// own copy, held to EvalALU op by op by the harness's ALU differential):
// for the constant folder, which refuses a zero divisor before asking, and
// for demux evaluation. ok is false for an operator it does not compute.
func binaryOp(op token.Kind, a, b uint32) (v uint32, ok bool) {
	switch op {
	case token.ADD:
		return a + b, true
	case token.SUB:
		return a - b, true
	case token.MUL:
		return a * b, true
	case token.QUO, token.REM:
		if b == 0 {
			return 0, true
		}
		if op == token.QUO {
			return a / b, true
		}
		return a % b, true
	case token.AND:
		return a & b, true
	case token.OR:
		return a | b, true
	case token.XOR:
		return a ^ b, true
	case token.SHL:
		return a << (b & 31), true
	case token.SHR:
		return a >> (b & 31), true
	}
	return 0, false
}

func (c *checker) collectProtocols() {
	for _, pd := range c.prog.AST.Protocols {
		if _, dup := c.prog.Protocols[pd.Name]; dup {
			c.errorf(pd.Pos(), "duplicate protocol %q", pd.Name)
			continue
		}
		p := &Protocol{Name: pd.Name, ID: len(c.prog.ProtoByID)}
		bit := 0
		for _, f := range pd.Fields {
			if p.Field(f.Name) != nil {
				c.errorf(f.Pos(), "duplicate field %q in protocol %q", f.Name, pd.Name)
				continue
			}
			p.Fields = append(p.Fields, &ProtoField{Name: f.Name, BitOff: bit, Bits: f.Bits})
			bit += f.Bits
		}
		p.HeaderMin = (bit + 7) / 8
		p.FixedSize = p.HeaderMin // stands in for a demux in error
		if pd.Demux == nil {
			c.errorf(pd.Pos(), "protocol %q has no demux declaration", pd.Name)
		} else if d, dyn := c.resolveDemux(pd.Demux, p); dyn {
			p.FixedSize, p.Demux = -1, d
		} else if d != nil {
			v, _ := d.Eval(nil)
			if p.FixedSize = int(v); p.FixedSize < p.HeaderMin {
				c.errorf(pd.Pos(), "protocol %q demux size %d is smaller than its %d bytes of fields",
					pd.Name, p.FixedSize, p.HeaderMin)
			}
		}
		c.prog.Protocols[pd.Name] = p
		c.prog.ProtoByID = append(c.prog.ProtoByID, p)
	}
}

// resolveDemux resolves p's demux expression e, the one walk over it: a
// field of p binds to its *ProtoField, a named constant to its value, and
// an operator must be one every layer computes alike on 32-bit words.
// Anything else is an error at its position, and the result nil. dyn
// reports whether e reads a field.
func (c *checker) resolveDemux(e ast.Expr, p *Protocol) (d *Demux, dyn bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.demuxConst(e, p, e.Value)
	case *ast.Ident:
		if f := p.Field(e.Name); f != nil {
			if f.Bits <= MaxFieldBits {
				return &Demux{Field: f}, true
			}
		} else if v, ok := c.prog.Consts[e.Name]; ok {
			return c.demuxConst(e, p, v)
		}
	case *ast.UnaryExpr:
		if e.Op != token.SUB && e.Op != token.NOT {
			return c.demuxOpError(e.OpPos, p, e.Op)
		}
		if x, dyn := c.resolveDemux(e.X, p); x != nil {
			return &Demux{Op: e.Op, X: x}, dyn
		}
		return nil, false
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.SHL, token.SHR, token.AND, token.OR, token.XOR:
		default:
			return c.demuxOpError(e.OpPos, p, e.Op)
		}
		x, dx := c.resolveDemux(e.X, p)
		y, dy := c.resolveDemux(e.Y, p)
		if x == nil || y == nil {
			return nil, false
		}
		return &Demux{Op: e.Op, X: x, Y: y}, dx || dy
	}
	c.errorf(e.Pos(), "protocol %q demux must use only constants and fields of the protocol", p.Name)
	return nil, false
}

func (c *checker) demuxConst(e ast.Expr, p *Protocol, v uint64) (*Demux, bool) {
	if v > math.MaxUint32 {
		c.errorf(e.Pos(), "protocol %q demux constant %d exceeds 32 bits", p.Name, v)
		return nil, false
	}
	return &Demux{Value: uint32(v)}, false
}

// demuxOpError refuses an operator outside the closed set: / and % (a
// divisor read from a header can be zero, and no header size needs them),
// comparisons and the logical operators.
func (c *checker) demuxOpError(pos token.Pos, p *Protocol, op token.Kind) (*Demux, bool) {
	c.errorf(pos, "protocol %q demux operator %s is not allowed (a demux uses + - * << >> & | ^ and unary - ~)", p.Name, op)
	return nil, false
}

func (c *checker) collectMetadata() {
	md := &Metadata{}
	if c.prog.AST.Metadata != nil {
		bit := 0
		for _, f := range c.prog.AST.Metadata.Fields {
			if md.Field(f.Name) != nil {
				c.errorf(f.Pos(), "duplicate metadata field %q", f.Name)
				continue
			}
			if f.Bits > MaxFieldBits {
				c.errorf(f.Pos(), "metadata field %q is %d bits; max %d", f.Name, f.Bits, MaxFieldBits)
			}
			md.Fields = append(md.Fields, &ProtoField{Name: f.Name, BitOff: bit, Bits: f.Bits})
			bit += f.Bits
		}
		md.Bytes = (bit + 31) / 32 * 4
	}
	c.prog.Metadata = md
}

func (c *checker) collectModules() {
	for _, m := range c.prog.AST.Modules {
		c.module = m.Name
		for _, sd := range m.Structs {
			c.declareStruct(m, sd)
		}
		for _, g := range m.Globals {
			c.declareGlobal(m, g)
		}
		for _, ch := range m.Chans {
			c.declareChannel(m, ch)
		}
		for _, f := range m.Funcs {
			c.declareFunc(m, f)
		}
	}
}

func (c *checker) declareStruct(m *ast.ModuleDecl, sd *ast.StructDecl) {
	if _, dup := c.prog.Structs[sd.Name]; dup {
		c.errorf(sd.Pos(), "duplicate struct %q", sd.Name)
		return
	}
	s := &Struct{Name: sd.Name}
	off := 0
	for _, f := range sd.Fields {
		ft := c.resolveType(f.Type, false)
		if !IsScalar(ft) {
			c.errorf(f.Pos(), "struct field %q must be a scalar type, have %s", f.Name, ft)
			ft = UintType
		}
		if s.Field(f.Name) != nil {
			c.errorf(f.Pos(), "duplicate struct field %q", f.Name)
			continue
		}
		s.Fields = append(s.Fields, &StructField{Name: f.Name, Type: ft, Offset: off})
		off += ft.SizeBytes()
	}
	s.Size = off
	c.prog.Structs[sd.Name] = s
}

func (c *checker) declareGlobal(m *ast.ModuleDecl, g *ast.GlobalDecl) {
	qn := m.Name + "." + g.Name
	if _, dup := c.prog.Globals[qn]; dup {
		c.errorf(g.Pos(), "duplicate global %q", qn)
		return
	}
	t := c.resolveType(g.Type, true)
	if g.Type.ArrayN != nil {
		errs := len(c.errs)
		n, ok := c.constEval(g.Type.ArrayN)
		if !ok || n == 0 || n > 1<<24 {
			if len(c.errs) == errs {
				c.errorf(g.Pos(), "array length of %q must be a constant in 1..2^24", qn)
			}
			n = 1
		}
		t = &Array{Elem: t, Len: int(n)}
	}
	if _, isHandle := t.(*Handle); isHandle {
		c.errorf(g.Pos(), "global %q: packet handles cannot be stored in globals", qn)
		t = UintType
	}
	c.prog.Globals[qn] = &Global{Name: qn, Type: t, Module: m.Name, ID: len(c.prog.Globals)}
}

func (c *checker) declareChannel(m *ast.ModuleDecl, ch *ast.ChannelDecl) {
	qn := m.Name + "." + ch.Name
	if _, dup := c.prog.Channels[qn]; dup {
		c.errorf(ch.Pos(), "duplicate channel %q", qn)
		return
	}
	proto, ok := c.prog.Protocols[ch.Proto]
	if !ok {
		c.errorf(ch.Pos(), "channel %q: unknown protocol %q", qn, ch.Proto)
		return
	}
	cc := &Channel{Name: qn, Proto: proto, Module: m.Name, ID: len(c.prog.ChanByID)}
	c.prog.Channels[qn] = cc
	c.prog.ChanByID = append(c.prog.ChanByID, cc)
}

func (c *checker) declareFunc(m *ast.ModuleDecl, fd *ast.FuncDecl) {
	qn := m.Name + "." + fd.Name
	if _, dup := c.prog.Funcs[qn]; dup {
		c.errorf(fd.Pos(), "duplicate function %q", qn)
		return
	}
	f := &Func{Name: qn, Kind: fd.Kind, Decl: fd, Module: m.Name, Result: VoidType}
	if fd.Result != nil {
		f.Result = c.resolveType(fd.Result, false)
		if !IsScalar(f.Result) && f.Result != VoidType {
			c.errorf(fd.Pos(), "function %q: result must be scalar or void", qn)
			f.Result = UintType
		}
	}
	for _, p := range fd.Params {
		pt := c.resolveType(p.Type, true)
		sym := &Symbol{Kind: SymParam, Name: p.Name, Type: pt}
		c.prog.Info.ParamSyms[p] = sym
		f.Params = append(f.Params, sym)
	}
	switch fd.Kind {
	case ast.KindPPF:
		if len(f.Params) != 1 {
			c.errorf(fd.Pos(), "PPF %q must take exactly one packet-handle parameter", qn)
		} else if h, ok := f.Params[0].Type.(*Handle); ok {
			f.InProto = h.Proto
		} else {
			c.errorf(fd.Pos(), "PPF %q parameter must be a packet handle", qn)
		}
		if f.Result != VoidType {
			c.errorf(fd.Pos(), "PPF %q cannot return a value", qn)
		}
	case ast.KindControl, ast.KindInit:
		for _, p := range f.Params {
			if !IsScalar(p.Type) {
				c.errorf(fd.Pos(), "%s function %q: parameters must be scalar", fd.Kind, qn)
			}
		}
	}
	c.prog.Funcs[qn] = f
}

// resolveType maps a syntactic type to a semantic one. allowHandle permits
// protocol names (packet handles).
func (c *checker) resolveType(t *ast.TypeExpr, allowHandle bool) Type {
	switch t.Name {
	case "uint":
		return UintType
	case "int":
		return IntType
	case "void":
		return VoidType
	}
	if s, ok := c.prog.Structs[t.Name]; ok {
		return s
	}
	if p, ok := c.prog.Protocols[t.Name]; ok {
		if !allowHandle {
			c.errorf(t.Pos(), "packet handle type %q not allowed here", t.Name)
			return UintType
		}
		return &Handle{Proto: p}
	}
	c.errorf(t.Pos(), "unknown type %q", t.Name)
	return UintType
}

// ---------------------------------------------------------------------------
// Function bodies

func (c *checker) checkBodies() {
	for _, m := range c.prog.AST.Modules {
		c.module = m.Name
		for _, fd := range m.Funcs {
			f := c.prog.Funcs[m.Name+"."+fd.Name]
			if f == nil {
				continue
			}
			c.checkFuncBody(f)
		}
	}
}

func (c *checker) checkFuncBody(f *Func) {
	c.cur = f
	c.scopes = nil
	c.pushScope()
	for i, p := range f.Decl.Params {
		sym := c.prog.Info.ParamSyms[p]
		if prev := c.lookupLocal(p.Name); prev != nil {
			c.errorf(p.Pos(), "duplicate parameter %q", p.Name)
		}
		c.scopes[len(c.scopes)-1][p.Name] = sym
		_ = i
	}
	c.checkBlock(f.Decl.Body)
	c.popScope()
	c.cur = nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// lookup resolves name: locals/params, then constants, then module-scoped
// globals/channels/functions (current module first, then unique global
// match).
func (c *checker) lookup(name string) *Symbol {
	if s := c.lookupLocal(name); s != nil {
		return s
	}
	if v, ok := c.prog.Consts[name]; ok {
		return &Symbol{Kind: SymConst, Name: name, Type: UintType, Const: v}
	}
	if g, ok := c.prog.Globals[c.module+"."+name]; ok {
		return &Symbol{Kind: SymGlobal, Name: g.Name, Type: g.Type, Global: g}
	}
	if ch, ok := c.prog.Channels[c.module+"."+name]; ok {
		return &Symbol{Kind: SymChannel, Name: ch.Name, Chan: ch}
	}
	if f, ok := c.prog.Funcs[c.module+"."+name]; ok {
		return &Symbol{Kind: SymFunc, Name: f.Name, Func: f}
	}
	// Unique cross-module match.
	var found *Symbol
	count := 0
	for qn, g := range c.prog.Globals {
		if qn[len(g.Module)+1:] == name {
			found = &Symbol{Kind: SymGlobal, Name: g.Name, Type: g.Type, Global: g}
			count++
		}
	}
	for qn, ch := range c.prog.Channels {
		if qn[len(ch.Module)+1:] == name {
			found = &Symbol{Kind: SymChannel, Name: ch.Name, Chan: ch}
			count++
		}
	}
	for qn, f := range c.prog.Funcs {
		if qn[len(f.Module)+1:] == name {
			found = &Symbol{Kind: SymFunc, Name: f.Name, Func: f}
			count++
		}
	}
	if count == 1 {
		return found
	}
	return nil
}

func (c *checker) checkBlock(b *ast.BlockStmt) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(s)
	case *ast.DeclStmt:
		c.checkDecl(s)
	case *ast.AssignStmt:
		c.checkAssign(s)
	case *ast.ExprStmt:
		t := c.checkExpr(s.X, nil)
		if call, ok := s.X.(*ast.CallExpr); !ok || call == nil {
			if t != VoidType {
				// Expression statements other than calls are pointless but
				// harmless; accept them (C heritage).
				_ = t
			}
		}
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
	case *ast.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
		c.popScope()
	case *ast.ReturnStmt:
		want := c.cur.Result
		if s.Value == nil {
			if want != VoidType {
				c.errorf(s.Pos(), "missing return value (function returns %s)", want)
			}
			return
		}
		if want == VoidType {
			c.errorf(s.Pos(), "unexpected return value in void function")
			return
		}
		c.checkExpr(s.Value, want)
	case *ast.BreakStmt:
		if c.loop == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loop == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	case *ast.CriticalStmt:
		c.checkBlock(s.Body)
	}
}

func (c *checker) checkDecl(s *ast.DeclStmt) {
	t := c.resolveType(s.Type, true)
	if s.Type.ArrayN != nil {
		c.errorf(s.Pos(), "local %q: arrays are not allowed as locals", s.Name)
	}
	if _, isStruct := t.(*Struct); isStruct {
		c.errorf(s.Pos(), "local %q: struct locals are not supported; use scalars", s.Name)
		t = UintType
	}
	if c.lookupLocal(s.Name) != nil {
		c.errorf(s.Pos(), "redeclaration of %q", s.Name)
	}
	sym := &Symbol{Kind: SymLocal, Name: s.Name, Type: t}
	if s.Init != nil {
		c.checkExpr(s.Init, t)
	} else if _, isHandle := t.(*Handle); isHandle {
		c.errorf(s.Pos(), "packet handle %q must be initialized at declaration", s.Name)
	}
	c.scopes[len(c.scopes)-1][s.Name] = sym
	c.prog.Info.LocalSyms[s] = sym
}

func (c *checker) checkAssign(s *ast.AssignStmt) {
	lt := c.checkExpr(s.LHS, nil)
	if !c.assignable(s.LHS) {
		c.errorf(s.Pos(), "left side of assignment is not assignable")
	}
	if s.Op != token.ASSIGN {
		if !IsScalar(lt) {
			c.errorf(s.Pos(), "compound assignment requires a scalar left side, have %s", lt)
		}
		c.checkExpr(s.RHS, UintType)
		return
	}
	c.checkExpr(s.RHS, lt)
}

// assignable reports whether e denotes a storable location.
func (c *checker) assignable(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		sym := c.prog.Info.Uses[e]
		if sym == nil {
			return false
		}
		switch sym.Kind {
		case SymLocal, SymParam:
			return true
		case SymGlobal:
			return IsScalar(sym.Type)
		}
		return false
	case *ast.IndexExpr, *ast.FieldExpr, *ast.PacketFieldExpr, *ast.MetaFieldExpr:
		return true
	}
	return false
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e, nil)
	if !IsScalar(t) {
		c.errorf(e.Pos(), "condition must be scalar, have %s", t)
	}
}

// checkExpr type-checks e. want, when non-nil, provides assignment context
// used to infer the protocol of packet primitives; scalar mismatches
// between int and uint are permitted (C-style).
func (c *checker) checkExpr(e ast.Expr, want Type) Type {
	t := c.exprType(e, want)
	c.prog.Info.ExprTypes[e] = t
	if want != nil && !compatible(want, t) {
		c.errorf(e.Pos(), "cannot use %s value where %s is required", t, want)
	}
	return t
}

func compatible(want, have Type) bool {
	if want == have {
		return true
	}
	if IsScalar(want) && IsScalar(have) {
		return true
	}
	hw, okw := want.(*Handle)
	hh, okh := have.(*Handle)
	return okw && okh && hw.Proto == hh.Proto
}

func (c *checker) exprType(e ast.Expr, want Type) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return UintType
	case *ast.Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			c.errorf(e.Pos(), "undefined: %q", e.Name)
			return UintType
		}
		c.prog.Info.Uses[e] = sym
		switch sym.Kind {
		case SymChannel:
			c.errorf(e.Pos(), "channel %q can only be used as the first argument of channel_put", e.Name)
			return UintType
		case SymFunc:
			c.errorf(e.Pos(), "function %q must be called", e.Name)
			return UintType
		case SymGlobal:
			return sym.Type
		}
		return sym.Type
	case *ast.UnaryExpr:
		xt := c.checkExpr(e.X, nil)
		if !IsScalar(xt) {
			c.errorf(e.Pos(), "operator %s requires a scalar operand, have %s", e.Op, xt)
			return UintType
		}
		if e.Op == token.LNOT {
			return UintType
		}
		return xt
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X, nil)
		yt := c.checkExpr(e.Y, nil)
		xh, xIsH := xt.(*Handle)
		yh, yIsH := yt.(*Handle)
		if xIsH || yIsH {
			// Handles support only ==/!= against another handle of the
			// same protocol (identity comparison).
			if (e.Op == token.EQL || e.Op == token.NEQ) && xIsH && yIsH && xh.Proto == yh.Proto {
				return UintType
			}
			c.errorf(e.Pos(), "invalid operation %s on packet handle", e.Op)
			return UintType
		}
		if !IsScalar(xt) || !IsScalar(yt) {
			c.errorf(e.Pos(), "operator %s requires scalar operands, have %s and %s", e.Op, xt, yt)
			return UintType
		}
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.LAND, token.LOR:
			return UintType
		}
		if xt == IntType && yt == IntType {
			return IntType
		}
		return UintType
	case *ast.CondExpr:
		c.checkCond(e.Cond)
		tt := c.checkExpr(e.Then, want)
		c.checkExpr(e.Else, tt)
		return tt
	case *ast.IndexExpr:
		xt := c.checkExpr(e.X, nil)
		c.checkExpr(e.Index, UintType)
		arr, ok := xt.(*Array)
		if !ok {
			c.errorf(e.Pos(), "indexing requires an array, have %s", xt)
			return UintType
		}
		return arr.Elem
	case *ast.FieldExpr:
		xt := c.checkExpr(e.X, nil)
		st, ok := xt.(*Struct)
		if !ok {
			c.errorf(e.Pos(), "field selection requires a struct, have %s", xt)
			return UintType
		}
		f := st.Field(e.Name)
		if f == nil {
			c.errorf(e.Pos(), "struct %q has no field %q", st.Name, e.Name)
			return UintType
		}
		return f.Type
	case *ast.PacketFieldExpr:
		ht := c.checkExpr(e.Handle, nil)
		h, ok := ht.(*Handle)
		if !ok {
			c.errorf(e.Pos(), "-> requires a packet handle, have %s", ht)
			return UintType
		}
		f := h.Proto.Field(e.Name)
		if f == nil {
			c.errorf(e.Pos(), "protocol %q has no field %q", h.Proto.Name, e.Name)
			return UintType
		}
		if f.Bits > MaxFieldBits {
			c.errorf(e.Pos(), "field %q is %d bits wide; direct access is limited to %d bits (split the field)",
				e.Name, f.Bits, MaxFieldBits)
		}
		return UintType
	case *ast.MetaFieldExpr:
		ht := c.checkExpr(e.Handle, nil)
		if _, ok := ht.(*Handle); !ok {
			c.errorf(e.Pos(), "->meta requires a packet handle, have %s", ht)
			return UintType
		}
		f := c.prog.Metadata.Field(e.Name)
		if f == nil {
			c.errorf(e.Pos(), "no metadata field %q declared", e.Name)
			return UintType
		}
		return UintType
	case *ast.CallExpr:
		return c.checkCall(e, want)
	}
	c.errorf(e.Pos(), "internal: unknown expression")
	return UintType
}

// ---------------------------------------------------------------------------
// Calls and builtins

// Builtin names recognized by the checker; everything else resolves as a
// user function.
var builtinNames = map[string]bool{
	"channel_put": true, "packet_decap": true, "packet_encap": true,
	"packet_copy": true, "packet_create": true, "packet_drop": true,
	"packet_add_tail": true, "packet_remove_tail": true, "packet_length": true,
}

// IsBuiltin reports whether name is a Baker builtin.
func IsBuiltin(name string) bool { return builtinNames[name] }

func (c *checker) checkCall(e *ast.CallExpr, want Type) Type {
	if builtinNames[e.Fun] {
		return c.checkBuiltin(e, want)
	}
	sym := c.lookup(e.Fun)
	if sym == nil || sym.Kind != SymFunc {
		c.errorf(e.Pos(), "undefined function %q", e.Fun)
		return UintType
	}
	f := sym.Func
	if f.Kind == ast.KindPPF {
		c.errorf(e.Pos(), "PPF %q cannot be called directly; wire a channel to it", f.Name)
	}
	if len(e.Args) != len(f.Params) {
		c.errorf(e.Pos(), "call to %q has %d arguments, want %d", f.Name, len(e.Args), len(f.Params))
	}
	for i, a := range e.Args {
		if i < len(f.Params) {
			c.checkExpr(a, f.Params[i].Type)
		} else {
			c.checkExpr(a, nil)
		}
	}
	c.prog.Info.CallResolved[e] = f
	if c.cur != nil {
		c.cur.Calls = append(c.cur.Calls, f.Name)
	}
	return f.Result
}

func (c *checker) argCount(e *ast.CallExpr, n int) bool {
	if len(e.Args) != n {
		c.errorf(e.Pos(), "%s requires %d argument(s), have %d", e.Fun, n, len(e.Args))
		return false
	}
	return true
}

func (c *checker) handleArg(e ast.Expr) *Handle {
	t := c.checkExpr(e, nil)
	if h, ok := t.(*Handle); ok {
		return h
	}
	c.errorf(e.Pos(), "argument must be a packet handle, have %s", t)
	return nil
}

func (c *checker) checkBuiltin(e *ast.CallExpr, want Type) Type {
	switch e.Fun {
	case "channel_put":
		if !c.argCount(e, 2) {
			return VoidType
		}
		id, ok := e.Args[0].(*ast.Ident)
		if !ok {
			c.errorf(e.Args[0].Pos(), "first argument of channel_put must be a channel name")
			return VoidType
		}
		sym := c.lookup(id.Name)
		if sym == nil || sym.Kind != SymChannel {
			c.errorf(id.Pos(), "%q is not a channel", id.Name)
			return VoidType
		}
		c.prog.Info.Uses[id] = sym
		h := c.handleArg(e.Args[1])
		if h != nil && h.Proto != sym.Chan.Proto {
			c.errorf(e.Pos(), "channel %q carries %q packets but the handle is %q",
				sym.Chan.Name, sym.Chan.Proto.Name, h.Proto.Name)
		}
		c.prog.Info.ChanArg[e] = sym.Chan
		return VoidType
	case "packet_decap", "packet_encap", "packet_create":
		nargs := 1
		if e.Fun == "packet_create" {
			nargs = 0
		}
		if !c.argCount(e, nargs) {
			return UintType
		}
		if nargs == 1 {
			c.handleArg(e.Args[0])
		}
		h, ok := want.(*Handle)
		if !ok {
			c.errorf(e.Pos(), "%s result must be assigned to a packet-handle variable so its protocol can be inferred", e.Fun)
			return UintType
		}
		c.prog.Info.HandleProto[e] = h.Proto
		return &Handle{Proto: h.Proto}
	case "packet_copy":
		if !c.argCount(e, 1) {
			return UintType
		}
		h := c.handleArg(e.Args[0])
		if h == nil {
			return UintType
		}
		c.prog.Info.HandleProto[e] = h.Proto
		return &Handle{Proto: h.Proto}
	case "packet_drop":
		if c.argCount(e, 1) {
			c.handleArg(e.Args[0])
		}
		return VoidType
	case "packet_add_tail", "packet_remove_tail":
		if c.argCount(e, 2) {
			c.handleArg(e.Args[0])
			c.checkExpr(e.Args[1], UintType)
		}
		return VoidType
	case "packet_length":
		if c.argCount(e, 1) {
			c.handleArg(e.Args[0])
		}
		return UintType
	}
	c.errorf(e.Pos(), "internal: unhandled builtin %q", e.Fun)
	return UintType
}

// ---------------------------------------------------------------------------
// Wiring and the dataflow graph

func (c *checker) checkWiring() {
	rxCount := 0
	for _, m := range c.prog.AST.Modules {
		for _, w := range m.Wiring {
			from := c.resolveWireName(m.Name, w.From)
			to := c.resolveWireName(m.Name, w.To)
			if w.From == "rx" {
				rxCount++
				f := c.prog.Funcs[to]
				if f == nil || f.Kind != ast.KindPPF {
					c.errorf(w.Pos(), "rx must be wired to a PPF, %q is not one", w.To)
					continue
				}
				if c.prog.Entry != nil && c.prog.Entry != f {
					c.errorf(w.Pos(), "rx is already wired to %q", c.prog.Entry.Name)
					continue
				}
				c.prog.Entry = f
				continue
			}
			ch := c.prog.Channels[from]
			if ch == nil {
				c.errorf(w.Pos(), "unknown channel %q in wiring", w.From)
				continue
			}
			if ch.Consumer != "" {
				c.errorf(w.Pos(), "channel %q already wired to %q", ch.Name, ch.Consumer)
				continue
			}
			if w.To == "tx" {
				ch.Consumer = "tx"
				continue
			}
			f := c.prog.Funcs[to]
			if f == nil || f.Kind != ast.KindPPF {
				c.errorf(w.Pos(), "channel %q must be wired to a PPF or tx, %q is not one", ch.Name, w.To)
				continue
			}
			if f.InProto != nil && f.InProto != ch.Proto {
				c.errorf(w.Pos(), "channel %q carries %q but PPF %q consumes %q",
					ch.Name, ch.Proto.Name, f.Name, f.InProto.Name)
			}
			ch.Consumer = f.Name
		}
	}
	if rxCount == 0 && len(c.prog.Funcs) > 0 && c.hasPPF() {
		c.errorf(token.Pos{}, "no rx wiring: one PPF must be wired from rx")
	}
	var unwired []string
	for name, ch := range c.prog.Channels {
		if ch.Consumer == "" {
			unwired = append(unwired, name)
		}
	}
	sort.Strings(unwired)
	for _, name := range unwired {
		c.errorf(token.Pos{}, "channel %q has no consumer wiring", name)
	}
}

func (c *checker) hasPPF() bool {
	for _, f := range c.prog.Funcs {
		if f.Kind == ast.KindPPF {
			return true
		}
	}
	return false
}

// resolveWireName qualifies name with the module unless it is already
// qualified or a builtin endpoint.
func (c *checker) resolveWireName(module, name string) string {
	if name == "rx" || name == "tx" {
		return name
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name
		}
	}
	return module + "." + name
}

// ---------------------------------------------------------------------------
// Recursion check (§2.3: recursion within a PPF is not supported)

func (c *checker) checkNoRecursion() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string, path []string)
	visit = func(name string, path []string) {
		switch color[name] {
		case gray:
			c.errorf(c.prog.Funcs[name].Decl.Pos(),
				"recursion detected involving %q (Baker forbids recursion, §2.3)", name)
			return
		case black:
			return
		}
		color[name] = gray
		f := c.prog.Funcs[name]
		if f != nil {
			seen := map[string]bool{}
			for _, callee := range f.Calls {
				if !seen[callee] {
					seen[callee] = true
					visit(callee, append(path, name))
				}
			}
		}
		color[name] = black
	}
	var names []string
	for name := range c.prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		visit(name, nil)
	}
}
