// Package lower translates type-checked Baker ASTs into the Shangri-La IR
// (the "VHO WHIRL → MHO WHIRL" step of the paper's Figure 5).
package lower

import (
	"fmt"

	"shangrila/internal/baker/ast"
	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// Lower converts a checked program to IR.
func Lower(tp *types.Program) (*ir.Program, error) {
	p := &ir.Program{Types: tp}
	for _, tf := range tp.FuncsInOrder() {
		lf, err := lowerFunc(p, tp, tf)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, lf)
	}
	return p, nil
}

type lowerer struct {
	prog *ir.Program
	tp   *types.Program
	f    *ir.Func
	cur  *ir.Block
	vars map[*types.Symbol]ir.Reg
	// loop stack for break/continue targets
	breaks    []*ir.Block
	continues []*ir.Block
}

func lowerFunc(p *ir.Program, tp *types.Program, tf *types.Func) (f *ir.Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			if le, ok := r.(lowerError); ok {
				err = fmt.Errorf("%s: %s", le.pos, le.msg)
				return
			}
			panic(r)
		}
	}()
	kind := ir.FuncHelper
	switch tf.Kind {
	case ast.KindPPF:
		kind = ir.FuncPPF
	case ast.KindControl:
		kind = ir.FuncControl
	case ast.KindInit:
		kind = ir.FuncInit
	}
	f = &ir.Func{Name: tf.Name, Kind: kind, InProto: tf.InProto, Source: tf}
	l := &lowerer{prog: p, tp: tp, f: f, vars: map[*types.Symbol]ir.Reg{}}
	f.Entry = f.NewBlock()
	l.cur = f.Entry
	for _, ps := range tf.Params {
		class := ir.ClassWord
		if _, ok := ps.Type.(*types.Handle); ok {
			class = ir.ClassHandle
		}
		r := f.NewReg(class)
		f.Params = append(f.Params, r)
		f.ParamClasses = append(f.ParamClasses, class)
		l.vars[ps] = r
	}
	l.block(tf.Decl.Body)
	// Guarantee a terminator on the final block.
	if l.cur != nil && l.cur.Terminator() == nil {
		l.emit(&ir.Instr{Op: ir.OpRet})
	}
	f.ComputeCFG()
	return f, nil
}

type lowerError struct {
	pos token.Pos
	msg string
}

func (l *lowerer) failf(pos token.Pos, format string, args ...any) {
	panic(lowerError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (l *lowerer) emit(in *ir.Instr) *ir.Instr {
	if l.cur == nil {
		// Unreachable code after return/break: drop instructions.
		return in
	}
	if in.Op == ir.OpPktLoad || in.Op == ir.OpPktStore || in.Op == ir.OpEncap || in.Op == ir.OpDecap {
		in.StaticOff = ir.UnknownOff
	}
	l.cur.Instrs = append(l.cur.Instrs, in)
	if in.Op.IsTerminator() {
		l.cur = nil
	}
	return in
}

func (l *lowerer) startBlock(b *ir.Block) { l.cur = b }

// constReg materializes a constant.
func (l *lowerer) constReg(v uint64, pos token.Pos) ir.Reg {
	r := l.f.NewReg(ir.ClassWord)
	l.emit(&ir.Instr{Op: ir.OpConst, Pos: pos, Dst: []ir.Reg{r}, Imm: v & 0xffffffff})
	return r
}

// ---------------------------------------------------------------------------
// Statements

func (l *lowerer) block(b *ast.BlockStmt) {
	for _, s := range b.Stmts {
		if l.cur == nil {
			return // unreachable
		}
		l.stmt(s)
	}
}

func (l *lowerer) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		l.block(s)
	case *ast.DeclStmt:
		sym := l.tp.Info.LocalSyms[s]
		class := ir.ClassWord
		if _, ok := sym.Type.(*types.Handle); ok {
			class = ir.ClassHandle
		}
		r := l.f.NewReg(class)
		l.vars[sym] = r
		if s.Init != nil {
			v := l.expr(s.Init)
			l.emit(&ir.Instr{Op: ir.OpMov, Pos: s.Pos(), Dst: []ir.Reg{r}, Args: []ir.Reg{v}})
		} else {
			l.emit(&ir.Instr{Op: ir.OpConst, Pos: s.Pos(), Dst: []ir.Reg{r}})
		}
	case *ast.AssignStmt:
		l.assign(s)
	case *ast.ExprStmt:
		l.expr(s.X)
	case *ast.IfStmt:
		l.ifStmt(s)
	case *ast.WhileStmt:
		l.loop(s.Pos(), nil, s.Cond, nil, s.Body)
	case *ast.ForStmt:
		l.loop(s.Pos(), s.Init, s.Cond, s.Post, s.Body)
	case *ast.ReturnStmt:
		in := &ir.Instr{Op: ir.OpRet, Pos: s.Pos()}
		if s.Value != nil {
			in.Args = []ir.Reg{l.expr(s.Value)}
		}
		l.emit(in)
	case *ast.BreakStmt:
		l.emit(&ir.Instr{Op: ir.OpBr, Pos: s.Pos(), Blocks: []*ir.Block{l.breaks[len(l.breaks)-1]}})
	case *ast.ContinueStmt:
		l.emit(&ir.Instr{Op: ir.OpBr, Pos: s.Pos(), Blocks: []*ir.Block{l.continues[len(l.continues)-1]}})
	case *ast.CriticalStmt:
		id := uint64(l.prog.NumLocks)
		l.prog.NumLocks++
		l.emit(&ir.Instr{Op: ir.OpLockAcquire, Pos: s.Pos(), Imm: id})
		l.block(s.Body)
		if l.cur != nil {
			l.emit(&ir.Instr{Op: ir.OpLockRelease, Pos: s.Pos(), Imm: id})
		}
	default:
		l.failf(s.Pos(), "internal: unknown statement %T", s)
	}
}

func (l *lowerer) ifStmt(s *ast.IfStmt) {
	thenB := l.f.NewBlock()
	var elseB *ir.Block
	done := l.f.NewBlock()
	if s.Else != nil {
		elseB = l.f.NewBlock()
	} else {
		elseB = done
	}
	l.cond(s.Cond, thenB, elseB)
	l.startBlock(thenB)
	l.block(s.Then)
	if l.cur != nil {
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
	}
	if s.Else != nil {
		l.startBlock(elseB)
		l.stmt(s.Else)
		if l.cur != nil {
			l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
		}
	}
	l.startBlock(done)
}

func (l *lowerer) loop(pos token.Pos, init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt) {
	if init != nil {
		l.stmt(init)
	}
	head := l.f.NewBlock()
	bodyB := l.f.NewBlock()
	postB := l.f.NewBlock()
	done := l.f.NewBlock()
	l.emit(&ir.Instr{Op: ir.OpBr, Pos: pos, Blocks: []*ir.Block{head}})
	l.startBlock(head)
	if cond != nil {
		l.cond(cond, bodyB, done)
	} else {
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{bodyB}})
	}
	l.breaks = append(l.breaks, done)
	l.continues = append(l.continues, postB)
	l.startBlock(bodyB)
	l.block(body)
	if l.cur != nil {
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{postB}})
	}
	l.breaks = l.breaks[:len(l.breaks)-1]
	l.continues = l.continues[:len(l.continues)-1]
	l.startBlock(postB)
	if post != nil {
		l.stmt(post)
	}
	l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{head}})
	l.startBlock(done)
}

// cond lowers a boolean expression as control flow with short-circuiting.
func (l *lowerer) cond(e ast.Expr, thenB, elseB *ir.Block) {
	switch e := e.(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := l.f.NewBlock()
			l.cond(e.X, mid, elseB)
			l.startBlock(mid)
			l.cond(e.Y, thenB, elseB)
			return
		case token.LOR:
			mid := l.f.NewBlock()
			l.cond(e.X, thenB, mid)
			l.startBlock(mid)
			l.cond(e.Y, thenB, elseB)
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.LNOT {
			l.cond(e.X, elseB, thenB)
			return
		}
	}
	v := l.expr(e)
	l.emit(&ir.Instr{Op: ir.OpCondBr, Pos: e.Pos(), Args: []ir.Reg{v},
		Blocks: []*ir.Block{thenB, elseB}})
}

// ---------------------------------------------------------------------------
// Assignment

func (l *lowerer) assign(s *ast.AssignStmt) {
	// Compound assignment: read-modify-write.
	rhs := func() ir.Reg {
		v := l.expr(s.RHS)
		if s.Op == token.ASSIGN {
			return v
		}
		old := l.expr(s.LHS)
		r := l.f.NewReg(ir.ClassWord)
		op, ok := ir.TokenOp(s.Op.AssignOp(), false, l.exprIsSigned(s.LHS))
		if !ok {
			l.failf(s.Pos(), "internal: compound assignment %v", s.Op)
		}
		l.emit(&ir.Instr{Op: op, Pos: s.Pos(), Dst: []ir.Reg{r}, Args: []ir.Reg{old, v}})
		return r
	}

	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		sym := l.tp.Info.Uses[lhs]
		switch sym.Kind {
		case types.SymLocal, types.SymParam:
			v := rhs()
			l.emit(&ir.Instr{Op: ir.OpMov, Pos: s.Pos(), Dst: []ir.Reg{l.varReg(sym, lhs.Pos())}, Args: []ir.Reg{v}})
		case types.SymGlobal:
			v := rhs()
			l.emit(&ir.Instr{Op: ir.OpStore, Pos: s.Pos(), Global: sym.Global,
				Width: 4, Args: []ir.Reg{ir.NoReg, v}})
		default:
			l.failf(lhs.Pos(), "cannot assign to %q", lhs.Name)
		}
	case *ast.IndexExpr, *ast.FieldExpr:
		g, idxReg, off := l.addr(s.LHS)
		v := rhs()
		l.emit(&ir.Instr{Op: ir.OpStore, Pos: s.Pos(), Global: g, Off: off,
			Width: 4, Args: []ir.Reg{idxReg, v}})
	case *ast.PacketFieldExpr:
		h := l.expr(lhs.Handle)
		proto := l.handleProto(lhs.Handle)
		v := rhs()
		l.emit(&ir.Instr{Op: ir.OpPktStore, Pos: s.Pos(), Proto: proto,
			Field: proto.Field(lhs.Name), Args: []ir.Reg{h, v}})
	case *ast.MetaFieldExpr:
		h := l.expr(lhs.Handle)
		v := rhs()
		l.emit(&ir.Instr{Op: ir.OpMetaStore, Pos: s.Pos(),
			Field: l.tp.Metadata.Field(lhs.Name), Args: []ir.Reg{h, v}})
	default:
		l.failf(s.Pos(), "internal: unsupported assignment target %T", s.LHS)
	}
}

func (l *lowerer) varReg(sym *types.Symbol, pos token.Pos) ir.Reg {
	r, ok := l.vars[sym]
	if !ok {
		l.failf(pos, "internal: no register for %q", sym.Name)
	}
	return r
}

// addr resolves an array/struct element reference into (global, index
// register or NoReg, constant byte offset).
func (l *lowerer) addr(e ast.Expr) (*types.Global, ir.Reg, int32) {
	switch e := e.(type) {
	case *ast.Ident:
		sym := l.tp.Info.Uses[e]
		if sym == nil || sym.Kind != types.SymGlobal {
			l.failf(e.Pos(), "internal: %q is not a global", e.Name)
		}
		return sym.Global, ir.NoReg, 0
	case *ast.IndexExpr:
		g, idxReg, off := l.addr(e.X)
		arr, ok := l.tp.Info.ExprTypes[e.X].(*types.Array)
		if !ok {
			l.failf(e.Pos(), "internal: indexing non-array")
		}
		elemSize := arr.Elem.SizeBytes()
		if lit, isLit := e.Index.(*ast.IntLit); isLit {
			return g, idxReg, off + int32(lit.Value)*int32(elemSize)
		}
		idx := l.expr(e.Index)
		scaled := l.scale(idx, elemSize, e.Pos())
		if idxReg != ir.NoReg {
			sum := l.f.NewReg(ir.ClassWord)
			l.emit(&ir.Instr{Op: ir.OpAdd, Pos: e.Pos(), Dst: []ir.Reg{sum}, Args: []ir.Reg{idxReg, scaled}})
			scaled = sum
		}
		return g, scaled, off
	case *ast.FieldExpr:
		g, idxReg, off := l.addr(e.X)
		st, ok := l.tp.Info.ExprTypes[e.X].(*types.Struct)
		if !ok {
			l.failf(e.Pos(), "internal: selecting field of non-struct")
		}
		return g, idxReg, off + int32(st.Field(e.Name).Offset)
	}
	l.failf(e.Pos(), "internal: cannot take address of %T", e)
	return nil, ir.NoReg, 0
}

// scale multiplies idx by size, using shifts for powers of two.
func (l *lowerer) scale(idx ir.Reg, size int, pos token.Pos) ir.Reg {
	if size == 1 {
		return idx
	}
	r := l.f.NewReg(ir.ClassWord)
	if size&(size-1) == 0 {
		sh := 0
		for s := size; s > 1; s >>= 1 {
			sh++
		}
		c := l.constReg(uint64(sh), pos)
		l.emit(&ir.Instr{Op: ir.OpShl, Pos: pos, Dst: []ir.Reg{r}, Args: []ir.Reg{idx, c}})
		return r
	}
	c := l.constReg(uint64(size), pos)
	l.emit(&ir.Instr{Op: ir.OpMul, Pos: pos, Dst: []ir.Reg{r}, Args: []ir.Reg{idx, c}})
	return r
}

// ---------------------------------------------------------------------------
// Expressions

func (l *lowerer) exprIsSigned(e ast.Expr) bool {
	t := l.tp.Info.ExprTypes[e]
	b, ok := t.(*types.Basic)
	return ok && b.Kind == types.Int
}

func (l *lowerer) expr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		return l.constReg(e.Value, e.Pos())
	case *ast.Ident:
		sym := l.tp.Info.Uses[e]
		switch sym.Kind {
		case types.SymLocal, types.SymParam:
			return l.varReg(sym, e.Pos())
		case types.SymConst:
			return l.constReg(sym.Const, e.Pos())
		case types.SymGlobal:
			if !types.IsScalar(sym.Type) {
				l.failf(e.Pos(), "global %q used as a value but is %s", sym.Name, sym.Type)
			}
			r := l.f.NewReg(ir.ClassWord)
			l.emit(&ir.Instr{Op: ir.OpLoad, Pos: e.Pos(), Global: sym.Global,
				Width: 4, Dst: []ir.Reg{r}, Args: []ir.Reg{ir.NoReg}})
			return r
		}
		l.failf(e.Pos(), "internal: identifier %q kind %v in expression", e.Name, sym.Kind)
	case *ast.UnaryExpr:
		x := l.expr(e.X)
		r := l.f.NewReg(ir.ClassWord)
		if e.Op == token.LNOT {
			z := l.constReg(0, e.Pos())
			l.emit(&ir.Instr{Op: ir.OpEq, Pos: e.Pos(), Dst: []ir.Reg{r}, Args: []ir.Reg{x, z}})
			return r
		}
		op, ok := ir.TokenOp(e.Op, true, false)
		if !ok {
			l.failf(e.Pos(), "internal: unary %v", e.Op)
		}
		l.emit(&ir.Instr{Op: op, Pos: e.Pos(), Dst: []ir.Reg{r}, Args: []ir.Reg{x}})
		return r
	case *ast.BinaryExpr:
		return l.binary(e)
	case *ast.CondExpr:
		r := l.f.NewReg(ir.ClassWord)
		thenB := l.f.NewBlock()
		elseB := l.f.NewBlock()
		done := l.f.NewBlock()
		l.cond(e.Cond, thenB, elseB)
		l.startBlock(thenB)
		tv := l.expr(e.Then)
		l.emit(&ir.Instr{Op: ir.OpMov, Dst: []ir.Reg{r}, Args: []ir.Reg{tv}})
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
		l.startBlock(elseB)
		ev := l.expr(e.Else)
		l.emit(&ir.Instr{Op: ir.OpMov, Dst: []ir.Reg{r}, Args: []ir.Reg{ev}})
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
		l.startBlock(done)
		return r
	case *ast.IndexExpr, *ast.FieldExpr:
		g, idxReg, off := l.addr(e)
		t := l.tp.Info.ExprTypes[e]
		if !types.IsScalar(t) {
			l.failf(e.Pos(), "aggregate value %s cannot be loaded whole", t)
		}
		r := l.f.NewReg(ir.ClassWord)
		l.emit(&ir.Instr{Op: ir.OpLoad, Pos: e.Pos(), Global: g, Off: off,
			Width: 4, Dst: []ir.Reg{r}, Args: []ir.Reg{idxReg}})
		return r
	case *ast.PacketFieldExpr:
		h := l.expr(e.Handle)
		proto := l.handleProto(e.Handle)
		r := l.f.NewReg(ir.ClassWord)
		l.emit(&ir.Instr{Op: ir.OpPktLoad, Pos: e.Pos(), Proto: proto,
			Field: proto.Field(e.Name), Dst: []ir.Reg{r}, Args: []ir.Reg{h}})
		return r
	case *ast.MetaFieldExpr:
		h := l.expr(e.Handle)
		r := l.f.NewReg(ir.ClassWord)
		l.emit(&ir.Instr{Op: ir.OpMetaLoad, Pos: e.Pos(),
			Field: l.tp.Metadata.Field(e.Name), Dst: []ir.Reg{r}, Args: []ir.Reg{h}})
		return r
	case *ast.CallExpr:
		return l.call(e)
	}
	l.failf(e.Pos(), "internal: unknown expression %T", e)
	return ir.NoReg
}

func (l *lowerer) binary(e *ast.BinaryExpr) ir.Reg {
	switch e.Op {
	case token.LAND, token.LOR:
		// Materialize short-circuit evaluation into a 0/1 register.
		r := l.f.NewReg(ir.ClassWord)
		thenB := l.f.NewBlock()
		elseB := l.f.NewBlock()
		done := l.f.NewBlock()
		l.cond(e, thenB, elseB)
		l.startBlock(thenB)
		one := l.constReg(1, e.Pos())
		l.emit(&ir.Instr{Op: ir.OpMov, Dst: []ir.Reg{r}, Args: []ir.Reg{one}})
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
		l.startBlock(elseB)
		zero := l.constReg(0, e.Pos())
		l.emit(&ir.Instr{Op: ir.OpMov, Dst: []ir.Reg{r}, Args: []ir.Reg{zero}})
		l.emit(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{done}})
		l.startBlock(done)
		return r
	}
	x := l.expr(e.X)
	y := l.expr(e.Y)
	r := l.f.NewReg(ir.ClassWord)
	signed := l.exprIsSigned(e.X) && l.exprIsSigned(e.Y)
	var op ir.Op
	var swap bool
	switch e.Op {
	case token.EQL:
		op = ir.OpEq
	case token.NEQ:
		op = ir.OpNe
	case token.LSS:
		op = pick(signed, ir.OpLtS, ir.OpLtU)
	case token.LEQ:
		op = pick(signed, ir.OpLeS, ir.OpLeU)
	case token.GTR:
		op = pick(signed, ir.OpLtS, ir.OpLtU)
		swap = true
	case token.GEQ:
		op = pick(signed, ir.OpLeS, ir.OpLeU)
		swap = true
	default:
		var ok bool
		if op, ok = ir.TokenOp(e.Op, false, l.exprIsSigned(e.X)); !ok {
			l.failf(e.Pos(), "internal: binary %v", e.Op)
		}
	}
	args := []ir.Reg{x, y}
	if swap {
		args = []ir.Reg{y, x}
	}
	l.emit(&ir.Instr{Op: op, Pos: e.Pos(), Dst: []ir.Reg{r}, Args: args})
	return r
}

func pick(cond bool, a, b ir.Op) ir.Op {
	if cond {
		return a
	}
	return b
}

// handleProto returns the protocol a handle-typed expression carries.
func (l *lowerer) handleProto(e ast.Expr) *types.Protocol {
	h, ok := l.tp.Info.ExprTypes[e].(*types.Handle)
	if !ok {
		l.failf(e.Pos(), "internal: expected handle expression")
	}
	return h.Proto
}

func (l *lowerer) call(e *ast.CallExpr) ir.Reg {
	if types.IsBuiltin(e.Fun) {
		return l.builtin(e)
	}
	callee := l.tp.Info.CallResolved[e]
	in := &ir.Instr{Op: ir.OpCall, Pos: e.Pos(), Callee: callee.Name}
	for _, a := range e.Args {
		in.Args = append(in.Args, l.expr(a))
	}
	var r ir.Reg = ir.NoReg
	if callee.Result != types.VoidType {
		r = l.f.NewReg(ir.ClassWord)
		in.Dst = []ir.Reg{r}
	}
	l.emit(in)
	return r
}

func (l *lowerer) builtin(e *ast.CallExpr) ir.Reg {
	switch e.Fun {
	case "channel_put":
		h := l.expr(e.Args[1])
		l.emit(&ir.Instr{Op: ir.OpChanPut, Pos: e.Pos(),
			Chan: l.tp.Info.ChanArg[e], Args: []ir.Reg{h}})
		return ir.NoReg
	case "packet_decap", "packet_encap":
		h := l.expr(e.Args[0])
		r := l.f.NewReg(ir.ClassHandle)
		op := ir.OpDecap
		var proto *types.Protocol
		if e.Fun == "packet_encap" {
			op = ir.OpEncap
			proto = l.tp.Info.HandleProto[e] // outer protocol
		} else {
			proto = l.tp.Info.HandleProto[e] // inner protocol
		}
		in := &ir.Instr{Op: op, Pos: e.Pos(), Proto: proto,
			Dst: []ir.Reg{r}, Args: []ir.Reg{h}}
		// Decap needs the protocol being *left* to compute the demux size.
		if op == ir.OpDecap {
			in.Field = nil
			srcProto := l.handleProto(e.Args[0])
			in.Global = nil
			in.Width = 0
			in.Imm = uint64(srcProto.ID)
		} else {
			in.Imm = uint64(l.handleProto(e.Args[0]).ID)
		}
		l.emit(in)
		return r
	case "packet_copy":
		h := l.expr(e.Args[0])
		r := l.f.NewReg(ir.ClassHandle)
		l.emit(&ir.Instr{Op: ir.OpPktCopy, Pos: e.Pos(),
			Proto: l.tp.Info.HandleProto[e], Dst: []ir.Reg{r}, Args: []ir.Reg{h}})
		return r
	case "packet_create":
		r := l.f.NewReg(ir.ClassHandle)
		l.emit(&ir.Instr{Op: ir.OpPktCreate, Pos: e.Pos(),
			Proto: l.tp.Info.HandleProto[e], Dst: []ir.Reg{r}})
		return r
	case "packet_drop":
		h := l.expr(e.Args[0])
		l.emit(&ir.Instr{Op: ir.OpPktDrop, Pos: e.Pos(), Args: []ir.Reg{h}})
		return ir.NoReg
	case "packet_add_tail", "packet_remove_tail":
		h := l.expr(e.Args[0])
		n := l.expr(e.Args[1])
		op := ir.OpAddTail
		if e.Fun == "packet_remove_tail" {
			op = ir.OpRemoveTail
		}
		l.emit(&ir.Instr{Op: op, Pos: e.Pos(), Args: []ir.Reg{h, n}})
		return ir.NoReg
	case "packet_length":
		h := l.expr(e.Args[0])
		r := l.f.NewReg(ir.ClassWord)
		l.emit(&ir.Instr{Op: ir.OpPktLength, Pos: e.Pos(), Dst: []ir.Reg{r}, Args: []ir.Reg{h}})
		return r
	}
	l.failf(e.Pos(), "internal: unhandled builtin %q", e.Fun)
	return ir.NoReg
}
