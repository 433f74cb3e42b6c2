package ir

import (
	"reflect"
	"testing"

	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
)

// What the identity fingerprint (Hasher) leaves out, and why. Every other
// field of Instr, Block and Func must have a flip below that changes the
// fingerprint; TestIdentityCoversEveryField fails for a field that is in
// neither list, so a field added to the IR cannot silently stay outside
// the incremental compiler's notion of "the same IR".
var identityExcludes = map[string]string{
	"Instr.Pos":   "source position: diagnostics only, no pass branches on it",
	"Block.Preds": "derived from the terminators by ComputeCFG",
	"Block.Succs": "derived from the terminators by ComputeCFG",
	"Func.Source": "the semantic function the body was lowered from; fixed for the life of a program",
	"Func.store":  "copy-on-write bookkeeping (frozen, cached fingerprint), not IR",
}

// identityFunc builds a two-block function with one instruction of every
// payload shape.
func identityFunc() *Func {
	f := &Func{Name: "m.f", Kind: FuncPPF, InProto: &types.Protocol{Name: "ether"}}
	entry, exit := f.NewBlock(), f.NewBlock()
	f.Entry = entry
	h := f.NewReg(ClassHandle)
	v := f.NewReg(ClassWord)
	f.Params, f.ParamClasses = []Reg{h}, []RegClass{ClassHandle}
	entry.Instrs = []*Instr{
		{Op: OpDecap, Dst: []Reg{h}, Args: []Reg{h}, Imm: 1, Proto: &types.Protocol{Name: "ipv4"}},
		{Op: OpPktLoad, Dst: []Reg{v}, Args: []Reg{h}, Field: &types.ProtoField{Name: "ttl"}},
		{Op: OpLoad, Dst: []Reg{v}, Args: []Reg{NoReg}, Global: &types.Global{Name: "m.tbl"}, Off: 4, Width: 4},
		{Op: OpChanPut, Args: []Reg{h}, Chan: &types.Channel{Name: "m.out"}},
		{Op: OpCall, Callee: "m.g", Args: []Reg{v}},
		{Op: OpBr, Blocks: []*Block{exit}},
	}
	exit.Instrs = []*Instr{{Op: OpRet}}
	f.ComputeCFG()
	return f
}

func fingerprint(f *Func) uint64 {
	var h Hasher
	h.Reset()
	h.Func(f)
	return h.Sum64()
}

// identityFlips changes one field each on a fresh identityFunc.
var identityFlips = map[string]func(f *Func){
	"Instr.Op":          func(f *Func) { f.Blocks[0].Instrs[4].Op = OpMov },
	"Instr.Dst":         func(f *Func) { f.Blocks[0].Instrs[1].Dst[0] = 0 },
	"Instr.Args":        func(f *Func) { f.Blocks[0].Instrs[2].Args[0] = 1 },
	"Instr.Imm":         func(f *Func) { f.Blocks[0].Instrs[0].Imm = 2 },
	"Instr.Global":      func(f *Func) { f.Blocks[0].Instrs[2].Global = &types.Global{Name: "m.other"} },
	"Instr.Proto":       func(f *Func) { f.Blocks[0].Instrs[0].Proto = &types.Protocol{Name: "mpls"} },
	"Instr.Field":       func(f *Func) { f.Blocks[0].Instrs[1].Field = &types.ProtoField{Name: "tos"} },
	"Instr.Chan":        func(f *Func) { f.Blocks[0].Instrs[3].Chan = &types.Channel{Name: "m.alt"} },
	"Instr.Callee":      func(f *Func) { f.Blocks[0].Instrs[4].Callee = "m.h" },
	"Instr.Off":         func(f *Func) { f.Blocks[0].Instrs[1].Off = 2 },
	"Instr.Width":       func(f *Func) { f.Blocks[0].Instrs[2].Width = 8 },
	"Instr.StaticOff":   func(f *Func) { f.Blocks[0].Instrs[3].StaticOff = 14 },
	"Instr.StaticAlign": func(f *Func) { f.Blocks[0].Instrs[1].StaticAlign = 4 },
	"Instr.StaticMin":   func(f *Func) { f.Blocks[0].Instrs[0].StaticMin = 14 },
	"Instr.Blocks":      func(f *Func) { f.Blocks[0].Instrs[5].Blocks[0] = f.Blocks[0] },
	"Block.ID":          func(f *Func) { f.Blocks[1].ID = 7 },
	"Block.Instrs":      func(f *Func) { f.Blocks[1].Instrs = append(f.Blocks[1].Instrs, &Instr{Op: OpRet}) },
	"Func.Name":         func(f *Func) { f.Name = "m.k" },
	"Func.Kind":         func(f *Func) { f.Kind = FuncHelper },
	"Func.Params":       func(f *Func) { f.Params[0] = 1 },
	"Func.ParamClasses": func(f *Func) { f.ParamClasses[0] = ClassWord },
	"Func.Blocks":       func(f *Func) { f.Blocks = f.Blocks[:1] },
	"Func.Entry":        func(f *Func) { f.Entry = f.Blocks[1] },
	"Func.NumRegs":      func(f *Func) { f.NumRegs++ },
	"Func.RegClasses":   func(f *Func) { f.RegClasses[1] = ClassHandle },
	"Func.InProto":      func(f *Func) { f.InProto = &types.Protocol{Name: "ipv4"} },
}

func TestIdentityCoversEveryField(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(Instr{}), reflect.TypeOf(Block{}), reflect.TypeOf(Func{})} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			_, flipped := identityFlips[name]
			_, excluded := identityExcludes[name]
			if flipped == excluded {
				t.Errorf("%s: want it either fingerprinted (a flip in identityFlips) or excluded with a reason, not both or neither", name)
			}
		}
	}
	base := fingerprint(identityFunc())
	if fingerprint(identityFunc()) != base {
		t.Fatal("two builds of the same function have different fingerprints")
	}
	for name, flip := range identityFlips {
		f := identityFunc()
		text := f.String()
		flip(f)
		if fingerprint(f) == base {
			t.Errorf("changing %s leaves the fingerprint unchanged (listing changed: %v)", name, f.String() != text)
		}
	}
	// The excluded fields really are outside it.
	f := identityFunc()
	f.Blocks[0].Instrs[0].Pos = token.Pos{Line: 9}
	f.Blocks[0].Preds, f.Blocks[1].Succs = []*Block{f.Blocks[1]}, []*Block{f.Blocks[0]}
	f.Source = &types.Func{}
	if fingerprint(f) != base {
		t.Error("an excluded field changes the fingerprint")
	}
}

// TestListingFormat pins the readable rendering the append-based printer
// took over from fmt, on the shapes the applications do not all reach:
// absent operands, unknown ops, raw accesses, negative and unknown offsets.
func TestListingFormat(t *testing.T) {
	g := &types.Global{Name: "m.tbl"}
	for _, c := range []struct {
		in   *Instr
		want string
	}{
		{&Instr{Op: OpConst, Dst: []Reg{3}, Imm: 1 << 40}, "%v3 = const 1099511627776"},
		{&Instr{Op: OpStore, Args: []Reg{NoReg, 2}, Global: g, Off: -8}, "store @m.tbl+-8 _ %v2"},
		{&Instr{Op: OpLockAcquire, Imm: 2}, "lock #2"},
		{&Instr{Op: OpPktLoad, Dst: []Reg{4, 5}, Args: []Reg{0}, Off: 12, Width: 8, StaticOff: UnknownOff}, "%v4, %v5 = pktload raw[12:20] %v0 !off=?"},
		{&Instr{Op: OpPktStore, Args: []Reg{0, 1}, Off: 2, Width: 4, StaticOff: 14, StaticAlign: 2}, "pktstore raw[2:6] %v0 %v1 !off=14"},
		{&Instr{Op: OpAdd, Dst: []Reg{1}, Args: []Reg{1, 2}, StaticOff: 5}, "%v1 = add %v1 %v2"},
		{&Instr{Op: Op(99)}, "op(99)"},
		{&Instr{Op: OpInvalid}, "op(0)"},
	} {
		if got := c.in.String(); got != c.want {
			t.Errorf("got %q, want %q", got, c.want)
		}
	}
	if got := Op(-1).String(); got != "op(-1)" {
		t.Errorf("Op(-1) = %q", got)
	}
	f := identityFunc()
	const want = `ppf m.f(%v0) {
b0:
	%v0 = decap <ipv4> %v0
	%v1 = pktload .ttl %v0
	%v1 = load @m.tbl+4 _
	chanput ->m.out %v0
	call m.g %v1
	br b1
b1:
	ret
}
`
	if got := f.String(); got != want {
		t.Errorf("function listing:\n%s\nwant:\n%s", got, want)
	}
	p := &Program{Funcs: []*Func{f, {Name: "z.late", Kind: FuncInit}, {Name: "a.late", Kind: FuncControl}}}
	if got := p.String(); got != want+"init z.late() {\n}\ncontrol a.late() {\n}\n" {
		t.Errorf("program listing out of declaration order:\n%s", got)
	}
}
