package ir

import (
	"strings"
	"testing"

	"shangrila/internal/baker/types"
)

// newTestFunc builds a minimal well-formed function: one entry block ending
// in ret, one word parameter. Tests then perturb it into each invalid shape.
func newTestFunc() (*Program, *Func) {
	fn := &Func{Name: "t.f", Kind: FuncPPF}
	p0 := fn.NewReg(ClassHandle)
	fn.Params = []Reg{p0}
	fn.ParamClasses = []RegClass{ClassHandle}
	b := fn.NewBlock()
	fn.Entry = b
	b.Instrs = append(b.Instrs, &Instr{Op: OpRet})
	return &Program{Funcs: []*Func{fn}}, fn
}

func wantVerifyError(t *testing.T, prog *Program, substr string) *VerifyError {
	t.Helper()
	err := Verify(prog)
	if err == nil {
		t.Fatalf("Verify passed, want error containing %q", substr)
	}
	ve, ok := err.(*VerifyError)
	if !ok {
		t.Fatalf("Verify returned %T, want *VerifyError: %v", err, err)
	}
	if !strings.Contains(ve.Error(), substr) {
		t.Fatalf("Verify error %q does not mention %q", ve.Error(), substr)
	}
	return ve
}

func TestVerifyMinimalOK(t *testing.T) {
	prog, _ := newTestFunc()
	if err := Verify(prog); err != nil {
		t.Fatalf("minimal function should verify: %v", err)
	}
}

func TestVerifyDanglingEdge(t *testing.T) {
	prog, fn := newTestFunc()
	orphan := &Block{ID: 99} // never added to fn.Blocks
	fn.Entry.Instrs = []*Instr{{Op: OpBr, Blocks: []*Block{orphan}}}
	ve := wantVerifyError(t, prog, "edge to b99, which is not a block of t.f")
	if ve.Func != "t.f" || ve.Block != 0 || ve.Instr != 0 {
		t.Errorf("error position = %s b%d[%d], want t.f b0[0]", ve.Func, ve.Block, ve.Instr)
	}
}

func TestVerifyUseBeforeDef(t *testing.T) {
	prog, fn := newTestFunc()
	x := fn.NewReg(ClassWord)
	y := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpMov, Dst: []Reg{y}, Args: []Reg{x}}, // x never defined
		{Op: OpRet},
	}
	ve := wantVerifyError(t, prog, "mov reads %v1 before any definition reaches it")
	if ve.Block != 0 || ve.Instr != 0 {
		t.Errorf("error position = b%d[%d], want b0[0]", ve.Block, ve.Instr)
	}
}

// A register defined on only one branch arm must not count as defined at the
// join point: the meet is intersection, not union.
func TestVerifyUseBeforeDefOnOnePath(t *testing.T) {
	prog, fn := newTestFunc()
	c := fn.NewReg(ClassWord)
	x := fn.NewReg(ClassWord)
	thn, els, join := fn.NewBlock(), fn.NewBlock(), fn.NewBlock()
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{c}, Imm: 1},
		{Op: OpCondBr, Args: []Reg{c}, Blocks: []*Block{thn, els}},
	}
	thn.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{x}, Imm: 7}, // defined here only
		{Op: OpBr, Blocks: []*Block{join}},
	}
	els.Instrs = []*Instr{{Op: OpBr, Blocks: []*Block{join}}}
	join.Instrs = []*Instr{
		{Op: OpMov, Dst: []Reg{fn.NewReg(ClassWord)}, Args: []Reg{x}},
		{Op: OpRet},
	}
	ve := wantVerifyError(t, prog, "before any definition reaches it")
	if ve.Block != join.ID {
		t.Errorf("error in b%d, want join block b%d", ve.Block, join.ID)
	}
}

func TestVerifyFieldWidthOutOfRange(t *testing.T) {
	prog, fn := newTestFunc()
	d := fn.NewReg(ClassWord)
	wide := &types.ProtoField{Name: "wide", Bits: 48}
	fn.Entry.Instrs = []*Instr{
		{Op: OpPktLoad, Dst: []Reg{d}, Args: []Reg{fn.Params[0]}, Field: wide},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "field wide is 48 bits, outside the 1..32 word range")
}

func TestVerifyTerminatorInMiddle(t *testing.T) {
	prog, fn := newTestFunc()
	fn.Entry.Instrs = []*Instr{{Op: OpRet}, {Op: OpRet}}
	wantVerifyError(t, prog, "terminator ret in the middle of a block")
}

func TestVerifyMissingTerminator(t *testing.T) {
	prog, fn := newTestFunc()
	d := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{{Op: OpConst, Dst: []Reg{d}, Imm: 1}}
	wantVerifyError(t, prog, "block does not end in a terminator")
}

func TestVerifyEmptyBlock(t *testing.T) {
	prog, fn := newTestFunc()
	fn.Entry.Instrs = nil
	wantVerifyError(t, prog, "empty block (no terminator)")
}

func TestVerifyCondBrArity(t *testing.T) {
	prog, fn := newTestFunc()
	c := fn.NewReg(ClassWord)
	b2 := fn.NewBlock()
	b2.Instrs = []*Instr{{Op: OpRet}}
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{c}, Imm: 1},
		{Op: OpCondBr, Args: []Reg{c}, Blocks: []*Block{b2}}, // one target, want 2
	}
	wantVerifyError(t, prog, "condbr with 1 targets, want 2")
}

func TestVerifyRegisterOutOfRange(t *testing.T) {
	prog, fn := newTestFunc()
	fn.Entry.Instrs = []*Instr{
		{Op: OpMov, Dst: []Reg{Reg(1000)}, Args: []Reg{fn.Params[0]}},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "register 1000 out of range")
}

func TestVerifyHandleClass(t *testing.T) {
	prog, fn := newTestFunc()
	w := fn.NewReg(ClassWord)
	d := fn.NewReg(ClassWord)
	f := &types.ProtoField{Name: "x", Bits: 8}
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{w}, Imm: 0},
		{Op: OpPktLoad, Dst: []Reg{d}, Args: []Reg{w}, Field: f}, // word as handle
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "handle operand %v1 has class word")
}

// TestVerifyMovClass: a mov copies a register into one of its own class.
func TestVerifyMovClass(t *testing.T) {
	prog, fn := newTestFunc()
	w := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpMov, Dst: []Reg{w}, Args: []Reg{fn.Params[0]}},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "mov of handle %v0 into word %v1")
}

// TestVerifyEqClass: eq and ne compare two registers of one class, handles
// by identity, and write a word.
func TestVerifyEqClass(t *testing.T) {
	prog, fn := newTestFunc()
	w := fn.NewReg(ClassWord)
	d := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{w}},
		{Op: OpNe, Dst: []Reg{d}, Args: []Reg{fn.Params[0], w}},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "ne compares handle %v0 with word %v1")

	prog, fn = newTestFunc()
	h := fn.NewReg(ClassHandle)
	fn.Entry.Instrs = []*Instr{
		{Op: OpEq, Dst: []Reg{h}, Args: []Reg{fn.Params[0], fn.Params[0]}},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "eq: operand %v1 is a handle, want a word")
}

// TestVerifyArithmeticWords: arithmetic takes words.
func TestVerifyArithmeticWords(t *testing.T) {
	prog, fn := newTestFunc()
	w := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{w}, Imm: 1},
		{Op: OpAdd, Dst: []Reg{w}, Args: []Reg{w, fn.Params[0]}},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "add: operand %v0 is a handle, want a word")
}

// TestVerifyCondBrWord: a conditional branch tests a word.
func TestVerifyCondBrWord(t *testing.T) {
	prog, fn := newTestFunc()
	thn, els := fn.NewBlock(), fn.NewBlock()
	thn.Instrs = []*Instr{{Op: OpRet}}
	els.Instrs = []*Instr{{Op: OpRet}}
	fn.Entry.Instrs = []*Instr{{Op: OpCondBr, Args: []Reg{fn.Params[0]}, Blocks: []*Block{thn, els}}}
	wantVerifyError(t, prog, "condbr: operand %v0 is a handle, want a word")
}

// TestVerifyCallArgClasses: a call's arguments match the classes of its
// callee's parameters.
func TestVerifyCallArgClasses(t *testing.T) {
	prog, fn := newTestFunc()
	callee := &Func{Name: "t.g", Kind: FuncHelper}
	callee.Params = []Reg{callee.NewReg(ClassWord)}
	callee.ParamClasses = []RegClass{ClassWord}
	callee.Entry = callee.NewBlock()
	callee.Entry.Instrs = []*Instr{{Op: OpRet}}
	prog.Funcs = append(prog.Funcs, callee)
	fn.Entry.Instrs = []*Instr{
		{Op: OpCall, Args: []Reg{fn.Params[0]}, Callee: "t.g"},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "call passes handle %v0 for word parameter 0 of t.g")
}

func TestVerifyRawWidthMismatch(t *testing.T) {
	prog, fn := newTestFunc()
	d := fn.NewReg(ClassWord)
	// Raw 8-byte load should carry two destination words, not one.
	fn.Entry.Instrs = []*Instr{
		{Op: OpPktLoad, Dst: []Reg{d}, Args: []Reg{fn.Params[0]}, Off: 0, Width: 8},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "1 destinations for width 8")
}

func TestVerifyRawWidthNotWordMultiple(t *testing.T) {
	prog, fn := newTestFunc()
	d := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpPktLoad, Dst: []Reg{d}, Args: []Reg{fn.Params[0]}, Off: 0, Width: 3},
		{Op: OpRet},
	}
	wantVerifyError(t, prog, "raw width 3 is not a positive word multiple")
}

// TestVerifyOrderMissingFunc: the function table a slice can break, by a
// second function with one name or by a nil entry, is a *VerifyError.
func TestVerifyOrderMissingFunc(t *testing.T) {
	prog, fn := newTestFunc()
	_, g := newTestFunc()
	g.Name = "t.g"
	prog.Funcs = append(prog.Funcs, g, fn.Clone())
	ve := wantVerifyError(t, prog, "two functions named t.f, at Funcs[0] and Funcs[2]")
	if ve.Func != "t.f" {
		t.Errorf("duplicate-name error names function %q, want t.f", ve.Func)
	}
	prog.Funcs[2] = nil
	wantVerifyError(t, prog, "Funcs[2]: nil function")
}

func TestVerifyErrorPositional(t *testing.T) {
	// Errors carry the function, block and instruction index so a failing
	// pass can be pinpointed without re-dumping the whole program.
	prog, fn := newTestFunc()
	orphan := &Block{ID: 42}
	extra := fn.NewBlock()
	extra.Instrs = []*Instr{
		{Op: OpBr, Blocks: []*Block{orphan}},
	}
	fn.Entry.Instrs = []*Instr{{Op: OpBr, Blocks: []*Block{extra}}}
	ve := wantVerifyError(t, prog, "edge to b42")
	if got := ve.Error(); !strings.Contains(got, "t.f b1[0]") {
		t.Errorf("error %q lacks positional prefix t.f b1[0]", got)
	}
}

// TestComputeCFGForeignSuccessor: a branch to a block the function does not
// list reaches nothing, even when that block's ID is the position of one of
// the function's unreachable blocks and it branches there; ComputeCFG
// neither panics nor keeps that block, gives the foreign block no Preds,
// and Verify still reports the edge.
func TestComputeCFGForeignSuccessor(t *testing.T) {
	prog, fn := newTestFunc()
	live := fn.NewBlock()
	live.Instrs = []*Instr{{Op: OpRet}}
	dead := fn.NewBlock()
	dead.Instrs = []*Instr{{Op: OpRet}}
	orphan := &Block{ID: dead.ID, Instrs: []*Instr{{Op: OpBr, Blocks: []*Block{dead}}}}
	c := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{
		{Op: OpConst, Dst: []Reg{c}, Imm: 1},
		{Op: OpCondBr, Args: []Reg{c}, Blocks: []*Block{live, orphan}},
	}
	fn.ComputeCFG()
	if len(fn.Blocks) != 2 || fn.Blocks[0] != fn.Entry || fn.Blocks[1] != live {
		t.Fatalf("blocks after ComputeCFG = %d, want entry and live only", len(fn.Blocks))
	}
	if len(orphan.Preds) != 0 {
		t.Errorf("foreign block got %d preds", len(orphan.Preds))
	}
	if len(fn.Entry.Succs) != 2 || len(live.Preds) != 1 || live.Preds[0] != fn.Entry {
		t.Errorf("entry succs %d, live preds %d; want 2 and 1", len(fn.Entry.Succs), len(live.Preds))
	}
	wantVerifyError(t, prog, "which is not a block of t.f")

	// A nil target is skipped the same way.
	fn.Entry.Instrs[1].Blocks = []*Block{live, nil}
	fn.ComputeCFG()
	if len(fn.Blocks) != 2 {
		t.Fatalf("blocks after ComputeCFG = %d, want 2", len(fn.Blocks))
	}
	wantVerifyError(t, prog, "nil branch target")
}

// TestVerifyExecutorRules: the rules the executor relies on, one
// malformed instruction or signature each, in a function whose word
// registers are all defined. Each is a *VerifyError and none panics.
func TestVerifyExecutorRules(t *testing.T) {
	p := &types.Protocol{Name: "p"}
	g := &types.Global{Name: "t.tbl"}
	cases := []struct {
		name, want string
		edit       func(fn *Func, h, w, out Reg) []*Instr
	}{
		{"add with one operand", "add with 1 results and 1 operands", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpAdd, Dst: []Reg{out}, Args: []Reg{w}}}
		}},
		{"load with two indices", "load with 1 results and 2 operands", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpLoad, Dst: []Reg{out}, Args: []Reg{w, w}, Global: g}}
		}},
		{"op past the table", "unhandled op op(", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpCacheFlush + 1}}
		}},
		{"invalid op", "unhandled op", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{}}
		}},
		{"unknown callee", `call: unknown callee "t.nosuch"`, func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpCall, Callee: "t.nosuch"}}
		}},
		{"call with too few arguments", "call: 0 arguments for t.g, which takes 1", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpCall, Dst: []Reg{out}, Callee: "t.g"}}
		}},
		{"decap of an unknown protocol ID", "decap of unknown protocol ID 99", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpDecap, Dst: []Reg{h}, Args: []Reg{h}, Imm: 99, Proto: p}}
		}},
		{"pktcreate without a protocol", "pktcreate without a protocol", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpPktCreate, Dst: []Reg{h}}}
		}},
		{"chanput without a channel", "chanput without a channel", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpChanPut, Args: []Reg{h}}}
		}},
		{"raw metadata before the record", "metaload raw[-4:0]: metadata offset -4 is negative", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpMetaLoad, Dst: []Reg{out}, Args: []Reg{h}, Off: -4, Width: 4}}
		}},
		{"cache op without a global", "cacheflush without a global", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpCacheFlush, Args: []Reg{NoReg}}}
		}},
		{"word as a dropped packet", "pktdrop: handle operand %v1 has class word", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpPktDrop, Args: []Reg{w}}}
		}},
		{"copy into a word", "pktcopy: handle operand %v2 has class word", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpPktCopy, Dst: []Reg{out}, Args: []Reg{h}}}
		}},
		{"handle as a tail length", "addtail: operand %v0 is a handle, want a word", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpAddTail, Args: []Reg{h, h}}}
		}},
		{"global load into a handle", "load: operand %v3 is a handle, want a word", func(fn *Func, h, w, out Reg) []*Instr {
			return []*Instr{{Op: OpLoad, Dst: []Reg{fn.NewReg(ClassHandle)}, Args: []Reg{NoReg}, Global: g}}
		}},
		{"parameter out of range", "parameter 0 register 15 out of range [0,3)", func(fn *Func, h, w, out Reg) []*Instr {
			fn.Params = []Reg{15}
			return nil
		}},
		{"parameter of the other class", "parameter 0 is handle %v0, declared word", func(fn *Func, h, w, out Reg) []*Instr {
			fn.ParamClasses = []RegClass{ClassWord}
			return nil
		}},
		{"parameter without a class", "0 parameter classes for 1 parameters", func(fn *Func, h, w, out Reg) []*Instr {
			fn.ParamClasses = nil
			return nil
		}},
	}
	for _, c := range cases {
		prog, fn := newTestFunc()
		prog.Types = &types.Program{ProtoByID: []*types.Protocol{p}}
		callee := &Func{Name: "t.g", Kind: FuncHelper}
		callee.Params = []Reg{callee.NewReg(ClassWord)}
		callee.ParamClasses = []RegClass{ClassWord}
		callee.Entry = callee.NewBlock()
		callee.Entry.Instrs = []*Instr{{Op: OpRet, Args: callee.Params}}
		prog.Funcs = append(prog.Funcs, callee)
		h, w, out := fn.Params[0], fn.NewReg(ClassWord), fn.NewReg(ClassWord)
		body := append([]*Instr{{Op: OpConst, Dst: []Reg{w}}}, c.edit(fn, h, w, out)...)
		fn.Entry.Instrs = append(body, &Instr{Op: OpRet})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Verify panicked: %v", c.name, r)
				}
			}()
			ve := wantVerifyError(t, prog, c.want)
			if err := VerifyFunc(prog, fn); err == nil || *err.(*VerifyError) != *ve {
				t.Errorf("%s: VerifyFunc returned %v, Verify %v", c.name, err, ve)
			}
		}()
	}
}

// TestVerifyFuncOutsideProgram: VerifyFunc checks a function that is not one
// of p.Funcs, as the XScale path runs an aggregate's functions, and
// resolves its callees through p.
func TestVerifyFuncOutsideProgram(t *testing.T) {
	prog, fn := newTestFunc()
	prog.Funcs = nil
	w := fn.NewReg(ClassWord)
	fn.Entry.Instrs = []*Instr{{Op: OpConst, Dst: []Reg{w}}, {Op: OpCall, Args: []Reg{w}, Callee: "t.g"}, {Op: OpRet}}
	if err := VerifyFunc(prog, fn); err == nil || !strings.Contains(err.Error(), `unknown callee "t.g"`) {
		t.Fatalf("call of a function p lacks: got %v", err)
	}
	callee := &Func{Name: "t.g", Kind: FuncHelper}
	callee.Params = []Reg{callee.NewReg(ClassWord)}
	callee.ParamClasses = []RegClass{ClassWord}
	callee.Entry = callee.NewBlock()
	callee.Entry.Instrs = []*Instr{{Op: OpRet}}
	prog.Funcs = []*Func{callee}
	if err := VerifyFunc(prog, fn); err != nil {
		t.Fatalf("function outside p calling one of p.Funcs: %v", err)
	}
}
