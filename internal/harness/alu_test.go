package harness

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

// aluEdges are the operands where shift masking, signedness, overflow and
// division by zero show.
var aluEdges = []uint32{0, 1, 31, 32, 33, 0x7fffffff, 0x80000000, 0xffffffff}

// aluCase is one Baker operator and the word op it must compute: x tok y
// is op(x, y), or op(y, x) when swap; operands are int when signed.
type aluCase struct {
	op     ir.Op
	tok    string
	signed bool
	swap   bool
}

// aluCases drives every word op through the operators that reach it.
var aluCases = []aluCase{
	{op: ir.OpAdd, tok: "+"}, {op: ir.OpSub, tok: "-"}, {op: ir.OpMul, tok: "*"},
	{op: ir.OpDivU, tok: "/"}, {op: ir.OpRemU, tok: "%"},
	{op: ir.OpAnd, tok: "&"}, {op: ir.OpOr, tok: "|"}, {op: ir.OpXor, tok: "^"},
	{op: ir.OpShl, tok: "<<"}, {op: ir.OpShrU, tok: ">>"}, {op: ir.OpShrS, tok: ">>", signed: true},
	{op: ir.OpNot, tok: "~"}, {op: ir.OpNeg, tok: "-"},
	{op: ir.OpEq, tok: "=="}, {op: ir.OpNe, tok: "!="},
	{op: ir.OpLtU, tok: "<"}, {op: ir.OpLeU, tok: "<="},
	{op: ir.OpLtU, tok: ">", swap: true}, {op: ir.OpLeU, tok: ">=", swap: true},
	{op: ir.OpLtS, tok: "<", signed: true}, {op: ir.OpLeS, tok: "<=", signed: true},
	{op: ir.OpLtS, tok: ">", signed: true, swap: true}, {op: ir.OpLeS, tok: ">=", signed: true, swap: true},
}

func (c aluCase) unary() bool { return c.op == ir.OpNot || c.op == ir.OpNeg }

func (c aluCase) String() string {
	s := c.op.String() + "(" + c.tok + ")"
	if c.signed {
		s += "int"
	}
	return s
}

// want is what x tok y must give.
func (c aluCase) want(x, y uint32) uint32 {
	if c.swap {
		x, y = y, x
	}
	v, ok := ir.EvalALU(c.op, x, y)
	if !ok {
		panic(fmt.Sprintf("EvalALU does not compute %v", c.op))
	}
	return v
}

// aluPairs is every pair of edge words and 64 seeded random pairs.
func aluPairs() [][2]uint32 {
	var ps [][2]uint32
	for _, a := range aluEdges {
		for _, b := range aluEdges {
			ps = append(ps, [2]uint32{a, b})
		}
	}
	r := rand.New(rand.NewPCG(59, 1))
	for range 64 {
		ps = append(ps, [2]uint32{r.Uint32(), r.Uint32()})
	}
	return ps
}

// TestALUDifferential holds every evaluator of the IR's word ops to
// ir.EvalALU, one operation at a time: every binary, unary and compare op,
// signed and unsigned, over every pair of edge words and seeded random
// pairs, through the checker's constant arithmetic and Demux.Eval (the
// operators they admit), opt's folding and the identities it applies, the
// executor's register, constant-operand and compare-and-branch forms, and
// a Baker PPF per operator, lowered and run on the host session and
// compiled and run on one simulated ME.
func TestALUDifferential(t *testing.T) {
	pairs := aluPairs()
	t.Run("classify", func(t *testing.T) { aluClassify(t, pairs) })
	t.Run("checker", func(t *testing.T) { aluChecker(t, pairs) })
	t.Run("demux", func(t *testing.T) { aluDemux(t, pairs) })
	t.Run("fold", func(t *testing.T) { aluFold(t, pairs) })
	t.Run("identity", func(t *testing.T) { aluIdentity(t, pairs) })
	t.Run("executor", func(t *testing.T) { aluExecutor(t, pairs) })
	for _, c := range aluCases {
		t.Run("source/"+c.String(), func(t *testing.T) { aluSource(t, c, pairs) })
	}
}

// aluClassify checks ir's classification of the ops against EvalALU:
// EvalALU computes exactly the word ops, the test drives every one, a
// comparison gives 0 or 1, and an op commutes exactly when its value is
// symmetric over the pairs.
func aluClassify(t *testing.T, pairs [][2]uint32) {
	driven := map[ir.Op]bool{}
	for _, c := range aluCases {
		driven[c.op] = true
	}
	for op := ir.OpInvalid; op <= ir.OpCacheFlush; op++ {
		if _, ok := ir.EvalALU(op, 0, 0); ok != op.IsWord() || op.IsWord() != driven[op] {
			t.Errorf("%v: EvalALU computes it %v, IsWord %v, driven %v", op, ok, op.IsWord(), driven[op])
		}
	}
	for _, c := range wordCases() {
		symmetric := !c.unary()
		for _, p := range pairs {
			v := c.want(p[0], p[1])
			symmetric = symmetric && v == c.want(p[1], p[0])
			if c.op.IsCompare() && v > 1 {
				t.Errorf("%v(%#x, %#x) = %#x, not 0 or 1", c.op, p[0], p[1], v)
			}
		}
		if symmetric != c.op.Commutes() {
			t.Errorf("%v: Commutes %v, symmetric over the pairs %v", c.op, c.op.Commutes(), symmetric)
		}
	}
}

// constOps are the operators a constant expression computes: unsigned,
// unswapped arithmetic.
func constOps() []aluCase {
	var cs []aluCase
	for _, c := range aluCases {
		if !c.signed && !c.swap && !c.op.IsCompare() {
			cs = append(cs, c)
		}
	}
	return cs
}

// aluChecker evaluates x tok y as a named constant. A zero divisor is a
// language rule, refused by the checker (TestConstantDivisionByZero).
func aluChecker(t *testing.T, pairs [][2]uint32) {
	var src strings.Builder
	var want []uint32
	var what []string
	for _, c := range constOps() {
		for _, p := range pairs {
			e := fmt.Sprintf("%#x %s %#x", p[0], c.tok, p[1])
			if c.unary() {
				e = fmt.Sprintf("%s%#x", c.tok, p[0])
			} else if p[1] == 0 && (c.op == ir.OpDivU || c.op == ir.OpRemU) {
				continue
			}
			fmt.Fprintf(&src, "const C%d = %s;\n", len(want), e)
			want = append(want, c.want(p[0], p[1]))
			what = append(what, e)
		}
	}
	src.WriteString(aluProtocol(1) + `module m { ppf f(ops ph) { packet_drop(ph); } wiring { rx -> f; } }`)
	ast, err := parser.Parse("alu.baker", src.String())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := tp.Consts[fmt.Sprintf("C%d", i)]; got != uint64(w) {
			aluErrorf(t, "%s = %#x, want %#x", what[i], got, w)
		}
	}
}

// aluDemux evaluates x tok y as a resolved demux tree, for the operators a
// demux admits.
func aluDemux(t *testing.T, pairs [][2]uint32) {
	kinds := map[string]token.Kind{"+": token.ADD, "-": token.SUB, "*": token.MUL, "<<": token.SHL,
		">>": token.SHR, "&": token.AND, "|": token.OR, "^": token.XOR, "~": token.NOT}
	for _, c := range constOps() {
		k, ok := kinds[c.tok]
		if !ok {
			continue // / and %: refused in a demux (TestDemuxRefusedOperators)
		}
		for _, p := range pairs {
			d := &types.Demux{Op: k, X: &types.Demux{Value: p[0]}}
			if !c.unary() {
				d.Y = &types.Demux{Value: p[1]}
			}
			if got, err := d.Eval(nil); err != nil || got != c.want(p[0], p[1]) {
				aluErrorf(t, "%v(%#x, %#x) = %#x, %v; want %#x", c, p[0], p[1], got, err, c.want(p[0], p[1]))
			}
		}
	}
}

// wordCases are the word ops as the IR has them: one per op.
func wordCases() []aluCase {
	var cs []aluCase
	done := map[ir.Op]bool{}
	for _, c := range aluCases {
		if !c.swap && !done[c.op] {
			done[c.op] = true
			cs = append(cs, c)
		}
	}
	return cs
}

// irFunc builds a function of the word parameters a and b whose entry
// block body builds from them and returns what body returns: through a
// condbr to blocks returning 1 and 0 when branch.
func irFunc(body func(f *ir.Func, b *ir.Block, a, x ir.Reg) ir.Reg, branch bool) *ir.Func {
	f := &ir.Func{Name: "alu.f", Kind: ir.FuncHelper}
	a, x := f.NewReg(ir.ClassWord), f.NewReg(ir.ClassWord)
	f.Params, f.ParamClasses = []ir.Reg{a, x}, []ir.RegClass{ir.ClassWord, ir.ClassWord}
	f.Entry = f.NewBlock()
	r := body(f, f.Entry, a, x)
	ret := func(b *ir.Block, r ir.Reg) {
		b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpRet, Args: []ir.Reg{r}})
	}
	if !branch {
		ret(f.Entry, r)
	} else {
		yes, no := f.NewBlock(), f.NewBlock()
		f.Entry.Instrs = append(f.Entry.Instrs, &ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{r}, Blocks: []*ir.Block{yes, no}})
		ret(yes, irConst(f, yes, 1))
		ret(no, irConst(f, no, 0))
	}
	f.ComputeCFG()
	return f
}

func irConst(f *ir.Func, b *ir.Block, v uint32) ir.Reg {
	r := f.NewReg(ir.ClassWord)
	b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{r}, Imm: uint64(v)})
	return r
}

// irOp appends r = op args... to b.
func irOp(f *ir.Func, b *ir.Block, op ir.Op, args ...ir.Reg) ir.Reg {
	r := f.NewReg(ir.ClassWord)
	if op == ir.OpNot || op == ir.OpNeg {
		args = args[:1]
	}
	b.Instrs = append(b.Instrs, &ir.Instr{Op: op, Dst: []ir.Reg{r}, Args: args})
	return r
}

// runFunc runs f on a fresh executor.
func runFunc(t *testing.T, f *ir.Func, a, b uint32) uint32 {
	it := &profiler.Interp{Prog: &ir.Program{}}
	v, err := it.Run(f, []profiler.Value{{W: a}, {W: b}})
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return v.W
}

// hasWordOp reports whether f still computes a word op.
func hasWordOp(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsWord() {
				return true
			}
		}
	}
	return false
}

// aluFold optimizes op(const a, const b): fold must leave a constant, and
// the constant must be op's value.
func aluFold(t *testing.T, pairs [][2]uint32) {
	for _, c := range wordCases() {
		for _, p := range pairs {
			f := irFunc(func(f *ir.Func, b *ir.Block, _, _ ir.Reg) ir.Reg {
				return irOp(f, b, c.op, irConst(f, b, p[0]), irConst(f, b, p[1]))
			}, false)
			opt.OptimizeFunc(f)
			if hasWordOp(f) {
				aluErrorf(t, "%v(%#x, %#x) not folded", c.op, p[0], p[1])
			} else if got := runFunc(t, f, 0, 0); got != c.want(p[0], p[1]) {
				aluErrorf(t, "%v(%#x, %#x) folds to %#x, want %#x", c.op, p[0], p[1], got, c.want(p[0], p[1]))
			}
		}
	}
}

// foldIdentities are the ops and constant second operands opt's fold
// rewrites for any first operand: x+0, x-0, x|0, x^0, x<<0, x>>0 and x*1
// to x, x*0 to 0.
var foldIdentities = map[foldIdentity]bool{
	{ir.OpAdd, 0}: true, {ir.OpSub, 0}: true, {ir.OpOr, 0}: true, {ir.OpXor, 0}: true,
	{ir.OpShl, 0}: true, {ir.OpShrU, 0}: true, {ir.OpShrS, 0}: true,
	{ir.OpMul, 1}: true, {ir.OpMul, 0}: true,
}

type foldIdentity struct {
	op ir.Op
	k  uint32
}

// aluIdentity optimizes op(x, const k) for every binary op and edge k: the
// op must go exactly for foldIdentities, and what is left must compute
// op's value for every x.
func aluIdentity(t *testing.T, pairs [][2]uint32) {
	for _, c := range wordCases() {
		if c.unary() {
			continue
		}
		for _, k := range aluEdges {
			f := irFunc(func(f *ir.Func, b *ir.Block, a, _ ir.Reg) ir.Reg {
				return irOp(f, b, c.op, a, irConst(f, b, k))
			}, false)
			opt.OptimizeFunc(f)
			id := foldIdentities[foldIdentity{c.op, k}]
			if kept := hasWordOp(f); kept == id {
				aluErrorf(t, "%v(x, %#x): fold removed the op %v, want %v", c.op, k, !kept, id)
			}
			for _, p := range pairs {
				if got := runFunc(t, f, p[0], 0); got != c.want(p[0], k) {
					aluErrorf(t, "%v(%#x, %#x) optimized gives %#x, want %#x", c.op, p[0], k, got, c.want(p[0], k))
				}
			}
		}
	}
}

// aluExecutor runs each op on the executor in every form its decode
// makes: both operands in registers; a constant second operand, or a first
// one for the ops that commute (decode fuses the const into the op); and a
// comparison feeding a condbr (fused into compare-and-branch), with
// registers and with a constant.
func aluExecutor(t *testing.T, pairs [][2]uint32) {
	for _, c := range wordCases() {
		type form struct {
			name   string
			branch bool
			body   func(f *ir.Func, b *ir.Block, a, x ir.Reg) ir.Reg
			want   func(a, b uint32) uint32
		}
		reg := func(f *ir.Func, b *ir.Block, a, x ir.Reg) ir.Reg { return irOp(f, b, c.op, a, x) }
		forms := []form{{name: "reg", body: reg, want: c.want}}
		if c.op.IsCompare() {
			forms = append(forms, form{name: "branch", branch: true, body: reg, want: c.want})
		}
		for _, k := range aluEdges {
			constB := func(f *ir.Func, b *ir.Block, a, _ ir.Reg) ir.Reg { return irOp(f, b, c.op, a, irConst(f, b, k)) }
			constA := func(f *ir.Func, b *ir.Block, _, x ir.Reg) ir.Reg { return irOp(f, b, c.op, irConst(f, b, k), x) }
			forms = append(forms,
				form{name: fmt.Sprintf("const-b %#x", k), body: constB, want: func(a, _ uint32) uint32 { return c.want(a, k) }},
				form{name: fmt.Sprintf("const-a %#x", k), body: constA, want: func(_, b uint32) uint32 { return c.want(k, b) }})
			if c.op.IsCompare() {
				forms = append(forms, form{name: fmt.Sprintf("branch const-b %#x", k), branch: true, body: constB,
					want: func(a, _ uint32) uint32 { return c.want(a, k) }})
			}
		}
		for _, fm := range forms {
			f := irFunc(fm.body, fm.branch)
			it := &profiler.Interp{Prog: &ir.Program{}}
			for _, p := range pairs {
				v, err := it.Run(f, []profiler.Value{{W: p[0]}, {W: p[1]}})
				if want := fm.want(p[0], p[1]); err != nil || v.W != want {
					aluErrorf(t, "%v %s on (%#x, %#x) = %#x, %v; want %#x",
						c.op, fm.name, p[0], p[1], v.W, err, want)
				}
			}
		}
	}
}

// aluOperands is how many words of aluProtocol precede the results: a, b.
const aluOperands = 2

// aluProtocol declares the packet aluSource's PPF reads its operands from
// and writes its results to: a, b, then n result words.
func aluProtocol(n int) string {
	var b strings.Builder
	b.WriteString("protocol ops {\n    a : 32;\n    b : 32;\n")
	for i := range n {
		fmt.Fprintf(&b, "    r%d : 32;\n", i)
	}
	fmt.Fprintf(&b, "    demux { %d };\n}\n", 4*(aluOperands+n))
	return b.String() + "metadata { rx_port : 8; tx_port : 8; }\n"
}

// aluSource is c as a Baker PPF that writes into the packet a tok b, a tok
// K and K tok b for each edge word K (tok a and tok K when unary), then
// whether an if takes a tok b: lowered and run on the host session, and
// compiled at BASE and run on one ME, every result must be c's value.
func aluSource(t *testing.T, c aluCase, pairs [][2]uint32) {
	typ := "uint"
	if c.signed {
		typ = "int"
	}
	var body strings.Builder
	var want []func(a, b uint32) uint32
	emit := func(e string, w func(a, b uint32) uint32) {
		fmt.Fprintf(&body, "        ph->r%d = %s;\n", len(want), e)
		want = append(want, w)
	}
	fmt.Fprintf(&body, "        %s a = ph->a;\n        %s b = ph->b;\n", typ, typ)
	for i, k := range aluEdges {
		// An int constant needs an int variable: a literal is uint.
		fmt.Fprintf(&body, "        %s k%d = %#x;\n", typ, i, k)
	}
	expr := func(x, y string) string {
		if c.unary() {
			return c.tok + x
		}
		return x + " " + c.tok + " " + y
	}
	konst := func(i int) string {
		if c.signed {
			return fmt.Sprintf("k%d", i)
		}
		return fmt.Sprintf("%#x", aluEdges[i])
	}
	emit(expr("a", "b"), c.want)
	for i, k := range aluEdges {
		if c.unary() {
			emit(expr(konst(i), ""), func(uint32, uint32) uint32 { return c.want(k, 0) })
			continue
		}
		emit(expr("a", konst(i)), func(a, _ uint32) uint32 { return c.want(a, k) })
		emit(expr(konst(i), "b"), func(_, b uint32) uint32 { return c.want(k, b) })
	}
	fmt.Fprintf(&body, "        uint t = 0;\n        if (%s) { t = 1; }\n", expr("a", "b"))
	emit("t", func(a, b uint32) uint32 { return min(c.want(a, b), 1) })
	src := aluProtocol(len(want)) + "module m {\n    channel out_cc : ops;\n    ppf f(ops ph) {\n" +
		body.String() + "        channel_put(out_cc, ph);\n    }\n    wiring { rx -> f; out_cc -> tx; }\n}\n"

	prog, err := driver.LowerSource("alu.baker", src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	frameLen := 4 * (aluOperands + len(want))
	var trc []*packet.Packet
	for _, p := range pairs {
		wire := make([]byte, frameLen)
		binary.BigEndian.PutUint32(wire, p[0])
		binary.BigEndian.PutUint32(wire[4:], p[1])
		trc = append(trc, packet.New(wire, prog.Types.Metadata.Bytes))
	}
	// check compares one transmitted frame with c's values for its operands.
	check := func(side string, f []byte) {
		if len(f) != frameLen {
			t.Fatalf("%s transmitted a %d-byte frame, want %d", side, len(f), frameLen)
		}
		a, b := binary.BigEndian.Uint32(f), binary.BigEndian.Uint32(f[4:])
		for i, w := range want {
			if got := binary.BigEndian.Uint32(f[4*(aluOperands+i):]); got != w(a, b) {
				aluErrorf(t, "%s: %s with a=%#x b=%#x: r%d = %#x, want %#x (source line %q)",
					side, c, a, b, i, got, w(a, b), aluLine(src, i))
			}
		}
	}

	sess, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trc {
		if err := sess.Inject(p.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if len(sess.Out) != len(trc) {
		t.Fatalf("host transmitted %d frames for %d packets", len(sess.Out), len(trc))
	}
	for _, o := range sess.Out {
		check("host", o.P.Bytes()[o.Head:])
	}

	res, err := driver.CompileIR(prog, driver.Config{Level: driver.LevelBase, ProfileTrace: trc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.XScale) != 0 {
		t.Fatal("the PPF was aggregated to the XScale, not an ME")
	}
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: 1, CaptureLimit: 4 * len(trc)})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]uint32]bool{}
	checked := 0
	for cycles := 0; len(seen) < len(pairs) && cycles < 4_000_000; cycles += 100_000 {
		if err := rt.Run(100_000); err != nil {
			t.Fatal(err)
		}
		for ; checked < len(rt.TxCapture); checked++ {
			f := rt.TxCapture[checked].Frame
			check("ME", f)
			seen[[2]uint32{binary.BigEndian.Uint32(f), binary.BigEndian.Uint32(f[4:])}] = true
		}
	}
	if len(seen) < len(pairs) {
		t.Fatalf("the ME transmitted %d of %d operand pairs", len(seen), len(pairs))
	}
}

// aluLine is the source line that writes result i.
func aluLine(src string, i int) string {
	for _, l := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), fmt.Sprintf("ph->r%d ", i)) {
			return strings.TrimSpace(l)
		}
	}
	return ""
}

// aluErrorf reports a disagreement, the first ten of a leg in full.
func aluErrorf(t *testing.T, format string, args ...any) {
	t.Helper()
	if aluErrors[t.Name()]++; aluErrors[t.Name()] <= 10 {
		t.Errorf(format, args...)
	} else {
		t.Fail()
	}
}

var aluErrors = map[string]int{}
