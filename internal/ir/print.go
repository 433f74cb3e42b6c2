package ir

import (
	"io"
	"strconv"
)

// The IR has one rendering routine, appendFunc, which appends to a byte
// slice and never reaches fmt. It has two modes. The text mode is the
// readable listing String, Fprint and -dump-ir show. The identity mode is
// the same listing plus every field a pass can read that the listing leaves
// out (register classes, SOAR's alignment and lower-bound annotations, an
// immediate on an op that does not show one, ...), so that two functions
// render identically in it exactly when no pass can tell them apart; Hasher
// fingerprints that rendering. What neither mode shows is listed in
// identity_test.go, which fails when a new field is in neither.

// Fprint writes every function of the program as readable text, in
// declaration order, so the output is byte-stable across runs.
func Fprint(w io.Writer, p *Program) error {
	var buf []byte
	for _, fn := range p.Funcs {
		buf = appendFunc(buf[:0], fn, false)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// String renders the whole program (see Fprint).
func (p *Program) String() string {
	var b []byte
	for _, fn := range p.Funcs {
		b = appendFunc(b, fn, false)
	}
	return string(b)
}

// String renders the function as readable text for tests and tooling.
func (f *Func) String() string { return string(appendFunc(nil, f, false)) }

// String renders one instruction.
func (i *Instr) String() string { return string(appendInstr(nil, i, false)) }

func (r Reg) String() string { return string(appendReg(nil, r)) }

func appendReg(b []byte, r Reg) []byte {
	if r == NoReg {
		return append(b, '_')
	}
	return strconv.AppendInt(append(b, "%v"...), int64(r), 10)
}

// appendRegs appends a comma-separated register list.
func appendRegs(b []byte, regs []Reg) []byte {
	for i, r := range regs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendReg(b, r)
	}
	return b
}

// appendNum appends prefix and the decimal n.
func appendNum(b []byte, prefix string, n int64) []byte {
	return strconv.AppendInt(append(b, prefix...), n, 10)
}

func appendClasses(b []byte, prefix string, cs []RegClass) []byte {
	b = append(b, prefix...)
	for _, c := range cs {
		b = append(b, '0'+byte(c))
	}
	return b
}

func appendFunc(b []byte, f *Func, identity bool) []byte {
	b = append(b, f.Kind.String()...)
	b = append(b, ' ')
	b = append(b, f.Name...)
	b = append(b, '(')
	b = appendRegs(b, f.Params)
	b = append(b, ") {\n"...)
	if identity {
		b = appendNum(b, "\t!regs=", int64(f.NumRegs))
		b = appendClasses(b, " classes=", f.RegClasses)
		b = appendClasses(b, " params=", f.ParamClasses)
		if f.Entry != nil {
			b = appendNum(b, " entry=b", int64(f.Entry.ID))
		}
		if f.InProto != nil {
			b = append(append(b, " in="...), f.InProto.Name...)
		}
		b = append(b, '\n')
	}
	for _, blk := range f.Blocks {
		b = appendNum(b, "b", int64(blk.ID))
		b = append(b, ":\n"...)
		for _, in := range blk.Instrs {
			b = append(b, '\t')
			b = appendInstr(b, in, identity)
			b = append(b, '\n')
		}
	}
	return append(b, "}\n"...)
}

func appendInstr(b []byte, i *Instr, identity bool) []byte {
	if len(i.Dst) > 0 {
		b = appendRegs(b, i.Dst)
		b = append(b, " = "...)
	}
	b = append(b, i.Op.String()...)
	// shownImm, shownOff, shownWidth and shownStatic track which payload
	// fields the readable text already carries.
	var shownImm, shownOff, shownWidth, shownStatic bool
	switch i.Op {
	case OpConst:
		b = strconv.AppendUint(append(b, ' '), i.Imm, 10)
		shownImm = true
	case OpLockAcquire, OpLockRelease:
		b = strconv.AppendUint(append(b, " #"...), i.Imm, 10)
		shownImm = true
	}
	if i.Global != nil {
		b = append(append(b, " @"...), i.Global.Name...)
		b = append(b, '+')
		b = strconv.AppendInt(b, int64(i.Off), 10)
		shownOff = true
	}
	if i.Proto != nil {
		b = append(append(append(b, " <"...), i.Proto.Name...), '>')
	}
	if i.Field != nil {
		b = append(append(b, " ."...), i.Field.Name...)
	}
	if i.Chan != nil {
		b = append(append(b, " ->"...), i.Chan.Name...)
	}
	if i.Callee != "" {
		b = append(append(b, ' '), i.Callee...)
	}
	if i.Field == nil && (i.Op == OpPktLoad || i.Op == OpPktStore) {
		b = appendNum(b, " raw[", int64(i.Off))
		b = appendNum(b, ":", int64(int(i.Off)+i.Width))
		b = append(b, ']')
		shownOff, shownWidth = true, true
	}
	for _, a := range i.Args {
		b = appendReg(append(b, ' '), a)
	}
	for _, t := range i.Blocks {
		b = appendNum(b, " b", int64(t.ID))
	}
	if i.Op == OpPktLoad || i.Op == OpPktStore || i.Op == OpEncap || i.Op == OpDecap {
		shownStatic = true
		if i.StaticOff == UnknownOff {
			b = append(b, " !off=?"...)
		} else if i.StaticOff != 0 {
			b = appendNum(b, " !off=", int64(i.StaticOff))
		}
	}
	if !identity {
		return b
	}
	if !shownImm && i.Imm != 0 {
		b = strconv.AppendUint(append(b, " !imm="...), i.Imm, 10)
	}
	if !shownOff && i.Off != 0 {
		b = appendNum(b, " !at=", int64(i.Off))
	}
	if !shownWidth && i.Width != 0 {
		b = appendNum(b, " !width=", int64(i.Width))
	}
	if !shownStatic && i.StaticOff != 0 {
		b = appendNum(b, " !off=", int64(i.StaticOff))
	}
	if i.StaticAlign != 0 {
		b = appendNum(b, " !align=", int64(i.StaticAlign))
	}
	if i.StaticMin != 0 {
		b = appendNum(b, " !min=", int64(i.StaticMin))
	}
	return b
}

// Hasher fingerprints IR states. A function's fingerprint is FNV-1a over its
// identity rendering, rendered through one buffer the Hasher keeps, so
// hashing allocates nothing once the buffer has grown to the largest
// function; a state's fingerprint folds its functions' fingerprints
// together. The zero value is not ready: call Reset first.
type Hasher struct {
	sum uint64
	buf []byte
}

const fnvOffset = 14695981039346656037

// Reset starts a new fingerprint.
func (h *Hasher) Reset() { h.sum = fnvOffset }

// Sum64 returns the fingerprint of everything mixed in since Reset.
func (h *Hasher) Sum64() uint64 { return h.sum }

// fnv1a folds s into sum, then a terminator so that adjacent pieces do not
// run together.
func fnv1a[T string | []byte](sum uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		sum = (sum ^ uint64(s[i])) * 1099511628211
	}
	return sum * 1099511628211
}

// String mixes in a string.
func (h *Hasher) String(s string) { h.sum = fnv1a(h.sum, s) }

// Int mixes in a number.
func (h *Hasher) Int(n int) { h.sum = (h.sum ^ uint64(n)) * 1099511628211 }

// Func mixes in one function's fingerprint. A frozen function's is computed
// on first use and cached (see store.go); any other function is rendered
// afresh every time.
func (h *Hasher) Func(f *Func) {
	fp := f.store.fp
	if !f.store.hashed {
		fp = h.render(f)
		if f.store.frozen {
			f.store.fp, f.store.hashed = fp, true
		}
	}
	for i := 0; i < 64; i += 8 {
		h.sum = (h.sum ^ fp>>i&0xff) * 1099511628211
	}
}

// render computes f's fingerprint from its identity rendering.
func (h *Hasher) render(f *Func) uint64 {
	h.buf = appendFunc(h.buf[:0], f, true)
	return fnv1a(fnvOffset, h.buf)
}

// Program mixes in every function of p, in declaration order.
func (h *Hasher) Program(p *Program) {
	for _, fn := range p.Funcs {
		h.Func(fn)
	}
}
