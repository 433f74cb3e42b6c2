package profiler

import (
	"strings"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/packet"
)

func lowerSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	ast, err := parser.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(tp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestExecutorErrors: a failing program fails with a positioned error that
// names what went wrong, and a passing one passes.
func TestExecutorErrors(t *testing.T) {
	const head = `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint tbl[8];
	channel out : p;
`
	cases := []struct {
		name, body string
		breakIt    func(*ir.Program)
		wantErr    string
	}{
		{name: "ok", body: `ppf f(p ph) { tbl[ph->x & 7] = ph->y / 3; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "division by zero", wantErr: "t:6:47: division by zero",
			body: `ppf f(p ph) { uint d = ph->x - ph->x; ph->y = 7 / d; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "modulo by zero", wantErr: "modulo by zero",
			body: `ppf f(p ph) { uint d = ph->x - ph->x; ph->y = 7 % d; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "global index out of range", wantErr: "global m.tbl access at byte 36 out of range (size 32)",
			body: `ppf f(p ph) { ph->y = tbl[ph->x + 9]; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "wrapping global offset", wantErr: "global m.tbl access at byte 4294967292 out of range (size 32)",
			body: `ppf f(p ph) { ph->y = tbl[ph->x + 0x3fffffff]; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "infinite loop", wantErr: "exceeded 10000000 steps",
			body: `ppf f(p ph) { while (1) { } channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "missing consumer", wantErr: `channel m.mid consumer "m.gone" missing`,
			body: `channel mid : p;
			ppf f(p ph) { channel_put(mid, ph); }
			ppf g(p ph) { channel_put(out, ph); }
			wiring { rx -> f; mid -> g; out -> tx; }`,
			breakIt: func(prog *ir.Program) { prog.Types.Channels["m.mid"].Consumer = "m.gone" }},
	}
	for _, c := range cases {
		prog := lowerSrc(t, head+c.body+"\n}")
		if c.breakIt != nil {
			c.breakIt(prog)
		}
		_, err := Profile(prog, []*packet.Packet{packet.New(make([]byte, 64), 4)})
		if (err == nil) != (c.wantErr == "") || err != nil && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}

// handProg is a checked program to hang hand-built functions on: protocol
// IDs, a channel, a global and a helper to call.
func handProg(t *testing.T) *ir.Program {
	return lowerSrc(t, `
protocol p { x:32; demux { 4 }; }
metadata { tag:16; }
module m {
	uint tbl[4];
	channel out : p;
	func help(uint a) uint { return a + 1; }
	ppf f(p ph) { ph->meta.tag = help(tbl[1]); channel_put(out, ph); }
	wiring { rx -> f; out -> tx; }
}`)
}

var handPos = token.Pos{File: "hand", Line: 3, Col: 7}

// handFunc wraps instrs, positioned at handPos, in a one-block function of
// four registers whose parameter %v0 is a packet handle and whose other
// registers are words.
func handFunc(instrs ...*ir.Instr) *ir.Func {
	b := &ir.Block{}
	for _, in := range instrs {
		in.Pos = handPos
		b.Instrs = append(b.Instrs, in)
	}
	return &ir.Func{Name: "m.hand", Params: []ir.Reg{0}, ParamClasses: []ir.RegClass{ir.ClassHandle},
		Blocks: []*ir.Block{b}, Entry: b, NumRegs: 4,
		RegClasses: []ir.RegClass{ir.ClassHandle, ir.ClassWord, ir.ClassWord, ir.ClassWord}}
}

func ret() *ir.Instr { return &ir.Instr{Op: ir.OpRet} }

// mustFailAt runs fn on arg and requires a handPos-positioned error whose
// text contains want — in particular, no panic.
func mustFailAt(t *testing.T, name string, prog *ir.Program, fn *ir.Func, arg Value, want string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panicked: %v", name, r)
		}
	}()
	s, err := NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.env.it.Run(fn, []Value{arg})
	if err == nil || !strings.HasPrefix(err.Error(), "hand:3:7: ") || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: got error %v, want hand:3:7: ... %s ...", name, err, want)
	}
}

// TestNilHandleIsAnError: every handle-consuming op returns a positioned
// error when its handle register holds no packet.
func TestNilHandleIsAnError(t *testing.T) {
	prog := handProg(t)
	tp := prog.Types
	p := tp.Protocols["p"]
	x, tag := p.Field("x"), tp.Metadata.Field("tag")
	h, w, d := []ir.Reg{0}, []ir.Reg{0, 1}, []ir.Reg{2}
	cases := []*ir.Instr{
		{Op: ir.OpPktLoad, Dst: d, Args: h, Field: x},
		{Op: ir.OpPktLoad, Dst: d, Args: h, Width: 4},
		{Op: ir.OpPktStore, Args: w, Field: x},
		{Op: ir.OpPktStore, Args: w, Width: 4},
		{Op: ir.OpMetaLoad, Dst: d, Args: h, Field: tag},
		{Op: ir.OpMetaLoad, Dst: d, Args: h, Width: 4},
		{Op: ir.OpMetaStore, Args: w, Field: tag},
		{Op: ir.OpMetaStore, Args: w, Width: 4},
		{Op: ir.OpDecap, Dst: h, Args: h, Imm: uint64(p.ID), Proto: p},
		{Op: ir.OpEncap, Dst: h, Args: h, Proto: p},
		{Op: ir.OpPktCopy, Dst: h, Args: h},
		{Op: ir.OpAddTail, Args: w},
		{Op: ir.OpRemoveTail, Args: w},
		{Op: ir.OpPktLength, Dst: d, Args: h},
		{Op: ir.OpChanPut, Args: h, Chan: tp.Channels["m.out"]},
	}
	seen := map[ir.Op]bool{}
	for _, in := range cases {
		seen[in.Op] = true
		mustFailAt(t, in.Op.String(), prog, handFunc(in, ret()), Value{}, "nil handle")
	}
	if len(seen) != 11 {
		t.Errorf("%d handle-consuming ops covered, want 11", len(seen))
	}
	// packet_drop of a nil handle stays a counted no-op, as before.
	s, _ := NewSession(prog)
	if _, err := s.env.it.Run(handFunc(&ir.Instr{Op: ir.OpPktDrop, Args: h}, ret()), []Value{{}}); err != nil || s.Stats.Dropped != 1 {
		t.Errorf("pktdrop of nil handle: err %v, dropped %d", err, s.Stats.Dropped)
	}
}

// TestDecodeRejectsMalformedIR: what the executor would index or
// dereference blindly is refused when the function is first activated,
// with the instruction's position.
func TestDecodeRejectsMalformedIR(t *testing.T) {
	prog := handProg(t)
	tp := prog.Types
	p, tbl := tp.Protocols["p"], tp.Globals["m.tbl"]
	x := p.Field("x")
	h, d := []ir.Reg{0}, []ir.Reg{2}
	stray := &ir.Block{Instrs: []*ir.Instr{ret()}}
	cases := []struct {
		name, want string
		in         *ir.Instr
	}{
		{"unknown op", "unhandled op", &ir.Instr{Op: ir.OpCacheFlush + 1}},
		{"invalid op", "unhandled op", &ir.Instr{}},
		{"const without result", "0 results", &ir.Instr{Op: ir.OpConst}},
		{"add with one operand", "1 operands", &ir.Instr{Op: ir.OpAdd, Dst: d, Args: h}},
		{"mov with two results", "2 results", &ir.Instr{Op: ir.OpMov, Dst: []ir.Reg{1, 2}, Args: h}},
		{"read past the window", "reads register %v4", &ir.Instr{Op: ir.OpMov, Dst: d, Args: []ir.Reg{4}}},
		{"write past the window", "writes register %v9", &ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{9}}},
		{"absent operand", "reads register _", &ir.Instr{Op: ir.OpNot, Dst: d, Args: []ir.Reg{ir.NoReg}}},
		{"absent stored word", "reads register _", &ir.Instr{Op: ir.OpStore, Args: []ir.Reg{ir.NoReg, ir.NoReg}, Global: tbl}},
		{"absent result", "writes register _", &ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{ir.NoReg}}},
		{"load without global", "no global", &ir.Instr{Op: ir.OpLoad, Dst: d}},
		{"load without result", "0 results", &ir.Instr{Op: ir.OpLoad, Global: tbl}},
		{"load with two indices", "2 operands", &ir.Instr{Op: ir.OpLoad, Dst: d, Args: []ir.Reg{1, 1}, Global: tbl}},
		{"store without global", "no global", &ir.Instr{Op: ir.OpStore, Args: []ir.Reg{ir.NoReg, 1}}},
		{"store without words", "1 operands", &ir.Instr{Op: ir.OpStore, Args: h, Global: tbl}},
		{"store without operands", "0 operands", &ir.Instr{Op: ir.OpStore, Global: tbl}},
		{"field load with two results", "2 values", &ir.Instr{Op: ir.OpPktLoad, Dst: []ir.Reg{1, 2}, Args: h, Field: x}},
		{"field store without value", "1 operands", &ir.Instr{Op: ir.OpPktStore, Args: h, Field: x}},
		{"store without handle", "0 operands", &ir.Instr{Op: ir.OpMetaStore, Field: x}},
		{"raw load wider than its width", "2 words in a raw access of 4 bytes", &ir.Instr{Op: ir.OpPktLoad, Dst: []ir.Reg{1, 2}, Args: h, Width: 4}},
		{"raw store wider than its width", "1 words in a raw access of 0 bytes", &ir.Instr{Op: ir.OpPktStore, Args: []ir.Reg{0, 1}}},
		{"raw metadata before the record", "at -4", &ir.Instr{Op: ir.OpMetaLoad, Dst: d, Args: h, Width: 4, Off: -4}},
		{"decap of unknown protocol", "unknown protocol ID 99", &ir.Instr{Op: ir.OpDecap, Dst: d, Args: h, Imm: 99}},
		{"encap without protocol", "no channel or protocol", &ir.Instr{Op: ir.OpEncap, Dst: d, Args: h}},
		{"create without protocol", "no channel or protocol", &ir.Instr{Op: ir.OpPktCreate, Dst: d}},
		{"put without channel", "no channel or protocol", &ir.Instr{Op: ir.OpChanPut, Args: h}},
		{"unknown callee", `unknown callee "m.nosuch"`, &ir.Instr{Op: ir.OpCall, Callee: "m.nosuch"}},
		{"call with too few arguments", "0 arguments", &ir.Instr{Op: ir.OpCall, Dst: d, Callee: "m.help"}},
		{"call with two results", "2 results", &ir.Instr{Op: ir.OpCall, Dst: []ir.Reg{1, 2}, Args: []ir.Reg{1}, Callee: "m.help"}},
		{"terminator inside a block", "br inside block", &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{stray}}},
		{"word register as a handle", "pktload takes its handle from word register %v1", &ir.Instr{Op: ir.OpPktLoad, Dst: d, Args: []ir.Reg{1}, Field: x}},
		{"handle result in a word register", "pktcopy writes its handle to word register %v2", &ir.Instr{Op: ir.OpPktCopy, Dst: d, Args: h}},
		{"handle register as a word", "add reads handle register %v0", &ir.Instr{Op: ir.OpAdd, Dst: d, Args: []ir.Reg{1, 0}}},
		{"mixed-class mov", "mov mixes the classes of %v2 and %v0", &ir.Instr{Op: ir.OpMov, Dst: d, Args: h}},
		{"mixed-class eq", "eq mixes the classes of %v0 and %v1", &ir.Instr{Op: ir.OpEq, Dst: d, Args: []ir.Reg{0, 1}}},
		{"handle call argument for a word parameter", "call passes %v0 for parameter", &ir.Instr{Op: ir.OpCall, Dst: d, Args: h, Callee: "m.help"}},
	}
	for _, c := range cases {
		mustFailAt(t, c.name, prog, handFunc(c.in, ret()), Value{P: packet.New(make([]byte, 8), 4)}, c.want)
	}

	// Terminators: only the last instruction differs, so these build the
	// block themselves.
	terms := []struct {
		name, want string
		in         *ir.Instr
	}{
		{"branch without target", "0 branch targets", &ir.Instr{Op: ir.OpBr}},
		{"condbr with one target", "1 branch targets", &ir.Instr{Op: ir.OpCondBr, Args: h, Blocks: []*ir.Block{stray}}},
		{"branch out of the function", "branch target outside", &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{stray}}},
		{"ret with two results", "2 operands", &ir.Instr{Op: ir.OpRet, Args: []ir.Reg{1, 2}}},
	}
	for _, c := range terms {
		mustFailAt(t, c.name, prog, handFunc(c.in), Value{}, c.want)
	}

	// Function-level shape: these have no instruction to blame. A block
	// without a terminator fails only when execution runs off its end.
	open := handFunc(&ir.Instr{Op: ir.OpMov, Dst: d, Args: []ir.Reg{1}})
	dead := handFunc(ret())
	dead.Blocks = append(dead.Blocks, &ir.Block{ID: 1})
	empty := handFunc(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{{ID: 1}}})
	empty.Blocks = append(empty.Blocks, empty.Blocks[0].Instrs[0].Blocks[0])
	noEntry := handFunc(ret())
	noEntry.Entry = stray
	badParam := handFunc(ret())
	badParam.Params = []ir.Reg{7}
	shortClasses := handFunc(ret())
	shortClasses.RegClasses = shortClasses.RegClasses[:2]
	for _, c := range []struct {
		name, want string
		fn         *ir.Func
	}{{"unterminated block", "m.hand block b0 fell through", open}, {"unreachable empty block", "", dead},
		{"branch to an empty block", "m.hand block b1 fell through", empty},
		{"entry outside the function", "m.hand has no entry", noEntry}, {"parameter past the window", "m.hand parameter", badParam},
		{"short class table", "m.hand has 2 register classes for 4 registers", shortClasses},
		{"ignored cache operand past the window", "", handFunc(&ir.Instr{Op: ir.OpCacheFlush, Args: []ir.Reg{9}}, ret())}} {
		s, _ := NewSession(prog)
		_, err := s.env.it.Run(c.fn, []Value{{}})
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}

	// A callee that fails to decode fails its caller's call, not the
	// caller's own decode: the error surfaces when the call executes.
	badHelp := prog.Func("m.help")
	badHelp.Blocks[0].Instrs = append([]*ir.Instr{{Op: ir.OpConst, Pos: handPos}}, badHelp.Blocks[0].Instrs...)
	if _, err := Profile(prog, []*packet.Packet{packet.New(make([]byte, 8), 4)}); err == nil ||
		!strings.Contains(err.Error(), "hand:3:7: interp: const with 0 results") {
		t.Errorf("call of a malformed callee: got %v", err)
	}
}

// TestWideGlobalAccessBounds: a global access is in range only when all of
// its words are, so a two-word load whose first word is the global's last
// fails at its own position with the executor's bound, whether the global
// is read in place or through the Env.
func TestWideGlobalAccessBounds(t *testing.T) {
	prog := handProg(t)
	tbl := prog.Types.Globals["m.tbl"]
	wide := handFunc(&ir.Instr{Op: ir.OpLoad, Dst: []ir.Reg{1, 2}, Global: tbl, Off: 12, Width: 8}, ret())
	const want = "hand:3:7: global m.tbl access at byte 12 out of range (size 16)"
	s, err := NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []*Interp{s.env.it, {Prog: prog, Env: s.env}} {
		if _, err := it.Run(wide, []Value{{}}); err == nil || err.Error() != want {
			t.Errorf("host %v: got %v, want %q", it.host != nil, err, want)
		}
	}
}
