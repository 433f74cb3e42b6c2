package profiler

import (
	"encoding/binary"
	"errors"
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
// names what went wrong, and a passing one passes and transmits the packet
// with the y it computes.
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
		wantY      uint32 // ph->y of the transmitted packet, when wantErr is ""
	}{
		{name: "ok", wantY: 9, body: `ppf f(p ph) { tbl[ph->x & 7] = ph->y / 3; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		// A zero divisor gives 0, as the ME's ALU does, for / and % alike.
		{name: "division by zero", wantY: 0,
			body: `ppf f(p ph) { uint d = ph->x - ph->x; ph->y = 7 / d; channel_put(out, ph); }
			wiring { rx -> f; out -> tx; }`},
		{name: "modulo by zero", wantY: 0,
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
		wire := make([]byte, 64)
		wire[7] = 9 // y
		_, err := Profile(prog, []*packet.Packet{packet.New(wire, 4)})
		if (err == nil) != (c.wantErr == "") || err != nil && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.wantErr)
		}
		if err != nil {
			continue
		}
		s, err := NewSession(prog)
		if err == nil {
			err = s.Inject(packet.New(wire, 4))
		}
		if err != nil || len(s.Out) != 1 {
			t.Errorf("%s: session: %v", c.name, err)
			continue
		}
		if o := s.Out[0]; binary.BigEndian.Uint32(o.P.Bytes()[o.Head+4:]) != c.wantY {
			t.Errorf("%s: y = %d, want %d", c.name, binary.BigEndian.Uint32(o.P.Bytes()[o.Head+4:]), c.wantY)
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
// registers are words. Three leading consts define the words, so a case
// reaches the rule it is about rather than def-before-use.
func handFunc(instrs ...*ir.Instr) *ir.Func {
	b := &ir.Block{}
	for _, in := range append([]*ir.Instr{
		{Op: ir.OpConst, Dst: []ir.Reg{1}}, {Op: ir.OpConst, Dst: []ir.Reg{2}}, {Op: ir.OpConst, Dst: []ir.Reg{3}},
	}, instrs...) {
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

// mustRefuse requires ir.VerifyFunc to refuse fn with a *ir.VerifyError
// whose text contains want, positioned at handPos when positioned, and
// Interp.Run to return that same error: the executor runs only functions
// that verify.
func mustRefuse(t *testing.T, name string, prog *ir.Program, fn *ir.Func, arg Value, want string, positioned bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panicked: %v", name, r)
		}
	}()
	err := ir.VerifyFunc(prog, fn)
	ve, ok := err.(*ir.VerifyError)
	if !ok || !strings.Contains(err.Error(), want) || positioned != strings.HasPrefix(err.Error(), "hand:3:7: ") {
		t.Errorf("%s: ir.VerifyFunc: got %v, want a *ir.VerifyError containing %q (positioned %v)", name, err, want, positioned)
		return
	}
	s, err := NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.env.it.Run(fn, []Value{arg})
	if got, ok := err.(*ir.VerifyError); !ok || *got != *ve {
		t.Errorf("%s: Run returned %v, want the verify error %v", name, err, ve)
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
// dereference blindly is refused by ir.VerifyFunc, and so by the executor
// when the function is first activated, with the instruction's position.
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
		{"read past the window", "mov: arg 0 register 4 out of range", &ir.Instr{Op: ir.OpMov, Dst: d, Args: []ir.Reg{4}}},
		{"write past the window", "const: dst 0 register 9 out of range", &ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{9}}},
		{"absent operand", "not: arg 0 is NoReg", &ir.Instr{Op: ir.OpNot, Dst: d, Args: []ir.Reg{ir.NoReg}}},
		{"absent stored word", "store: arg 1 is NoReg", &ir.Instr{Op: ir.OpStore, Args: []ir.Reg{ir.NoReg, ir.NoReg}, Global: tbl}},
		{"absent result", "const: dst 0 is NoReg", &ir.Instr{Op: ir.OpConst, Dst: []ir.Reg{ir.NoReg}}},
		{"load without global", "load without a global", &ir.Instr{Op: ir.OpLoad, Dst: d}},
		{"load without result", "0 results", &ir.Instr{Op: ir.OpLoad, Global: tbl}},
		{"load with two indices", "2 operands", &ir.Instr{Op: ir.OpLoad, Dst: d, Args: []ir.Reg{1, 1}, Global: tbl}},
		{"store without global", "store without a global", &ir.Instr{Op: ir.OpStore, Args: []ir.Reg{ir.NoReg, 1}}},
		{"store without words", "1 operands", &ir.Instr{Op: ir.OpStore, Args: h, Global: tbl}},
		{"store without operands", "0 operands", &ir.Instr{Op: ir.OpStore, Global: tbl}},
		{"field load with two results", "pktload .x: 2 destinations, want 1", &ir.Instr{Op: ir.OpPktLoad, Dst: []ir.Reg{1, 2}, Args: h, Field: x}},
		{"field store without value", "1 operands", &ir.Instr{Op: ir.OpPktStore, Args: h, Field: x}},
		{"store without handle", "0 operands", &ir.Instr{Op: ir.OpMetaStore, Field: x}},
		{"raw load wider than its width", "pktload raw[0:4]: 2 destinations for width 4", &ir.Instr{Op: ir.OpPktLoad, Dst: []ir.Reg{1, 2}, Args: h, Width: 4}},
		{"raw store wider than its width", "pktstore: raw width 0 is not a positive word multiple", &ir.Instr{Op: ir.OpPktStore, Args: []ir.Reg{0, 1}}},
		{"raw metadata before the record", "metaload raw[-4:0]: metadata offset -4 is negative", &ir.Instr{Op: ir.OpMetaLoad, Dst: d, Args: h, Width: 4, Off: -4}},
		{"decap of unknown protocol", "unknown protocol ID 99", &ir.Instr{Op: ir.OpDecap, Dst: d, Args: h, Imm: 99}},
		{"encap without protocol", "encap without a protocol", &ir.Instr{Op: ir.OpEncap, Dst: d, Args: h}},
		{"create without protocol", "pktcreate without a protocol", &ir.Instr{Op: ir.OpPktCreate, Dst: d}},
		{"put without channel", "chanput without a channel", &ir.Instr{Op: ir.OpChanPut, Args: h}},
		{"unknown callee", `unknown callee "m.nosuch"`, &ir.Instr{Op: ir.OpCall, Callee: "m.nosuch"}},
		{"call with too few arguments", "0 arguments", &ir.Instr{Op: ir.OpCall, Dst: d, Callee: "m.help"}},
		{"call with two results", "2 results", &ir.Instr{Op: ir.OpCall, Dst: []ir.Reg{1, 2}, Args: []ir.Reg{1}, Callee: "m.help"}},
		{"terminator inside a block", "terminator br in the middle of a block", &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{stray}}},
		{"word register as a handle", "pktload: handle operand %v1 has class word", &ir.Instr{Op: ir.OpPktLoad, Dst: d, Args: []ir.Reg{1}, Field: x}},
		{"handle result in a word register", "pktcopy: handle operand %v2 has class word", &ir.Instr{Op: ir.OpPktCopy, Dst: d, Args: h}},
		{"handle register as a word", "add: operand %v0 is a handle, want a word", &ir.Instr{Op: ir.OpAdd, Dst: d, Args: []ir.Reg{1, 0}}},
		{"mixed-class mov", "mov of handle %v0 into word %v2", &ir.Instr{Op: ir.OpMov, Dst: d, Args: h}},
		{"mixed-class eq", "eq compares handle %v0 with word %v1", &ir.Instr{Op: ir.OpEq, Dst: d, Args: []ir.Reg{0, 1}}},
		{"handle call argument for a word parameter", "call passes handle %v0 for word parameter 0 of m.help", &ir.Instr{Op: ir.OpCall, Dst: d, Args: h, Callee: "m.help"}},
	}
	for _, c := range cases {
		mustRefuse(t, c.name, prog, handFunc(c.in, ret()), Value{P: packet.New(make([]byte, 8), 4)}, c.want, true)
	}

	// Terminators: only the last instruction differs, so these build the
	// block themselves.
	terms := []struct {
		name, want string
		in         *ir.Instr
	}{
		{"branch without target", "br with 0 targets, want 1", &ir.Instr{Op: ir.OpBr}},
		{"condbr with one target", "condbr with 1 targets, want 2", &ir.Instr{Op: ir.OpCondBr, Args: []ir.Reg{1}, Blocks: []*ir.Block{stray}}},
		{"branch out of the function", "br: edge to b0, which is not a block of m.hand", &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{stray}}},
		{"ret with two results", "2 operands", &ir.Instr{Op: ir.OpRet, Args: []ir.Reg{1, 2}}},
	}
	for _, c := range terms {
		mustRefuse(t, c.name, prog, handFunc(c.in), Value{}, c.want, true)
	}

	// Function-level shape: these have no instruction to blame, except the
	// block whose last instruction is not a terminator.
	open := handFunc(&ir.Instr{Op: ir.OpMov, Dst: d, Args: []ir.Reg{1}})
	dead := handFunc(ret())
	dead.Blocks = append(dead.Blocks, &ir.Block{ID: 1})
	empty := handFunc(&ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{{ID: 1}}})
	empty.Blocks = append(empty.Blocks, empty.Blocks[0].Instrs[3].Blocks[0])
	noEntry := handFunc(ret())
	noEntry.Entry = stray
	badParam := handFunc(ret())
	badParam.Params = []ir.Reg{7}
	shortClasses := handFunc(ret())
	shortClasses.RegClasses = shortClasses.RegClasses[:2]
	for _, c := range []struct {
		name, want string
		fn         *ir.Func
		positioned bool
	}{{"unterminated block", "block does not end in a terminator (got mov)", open, true},
		{"unreachable empty block", "m.hand b1: empty block", dead, false},
		{"branch to an empty block", "m.hand b1: empty block", empty, false},
		{"entry outside the function", "m.hand: entry block b0 is not in the block list", noEntry, false},
		{"parameter past the window", "m.hand: parameter 0 register 7 out of range", badParam, false},
		{"short class table", "m.hand: RegClasses has 2 entries for 4 registers", shortClasses, false},
		{"ignored cache operand past the window", "cacheflush: arg 0 register 9 out of range",
			handFunc(&ir.Instr{Op: ir.OpCacheFlush, Args: []ir.Reg{9}}, ret()), true}} {
		mustRefuse(t, c.name, prog, c.fn, Value{}, c.want, c.positioned)
	}

	// A callee that fails to verify fails its caller's call, not the
	// caller's own decode: the error surfaces when the call executes.
	badHelp := prog.Func("m.help")
	badHelp.Blocks[0].Instrs = append([]*ir.Instr{{Op: ir.OpConst, Pos: handPos}}, badHelp.Blocks[0].Instrs...)
	var ve *ir.VerifyError
	if _, err := Profile(prog, []*packet.Packet{packet.New(make([]byte, 8), 4)}); !errors.As(err, &ve) ||
		!strings.Contains(err.Error(), "hand:3:7: m.help b0[0]: const with 0 results") {
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
