package cg

import (
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt/soar"
)

// Options selects which code-generation strategies are enabled; they
// mirror the paper's evaluation axis (§6.2).
type Options struct {
	// O2 inlines the packet-handling primitive bodies. When false, every
	// packet access pays the generic out-of-line routine overhead ("38 +
	// 5*size instructions", §5.3).
	O2 bool
	// SOAR lets the expansion consult the static offset/alignment
	// annotations. When false, every access computes offsets dynamically.
	SOAR bool
	// PHR removes packet-handling support code: head_ptr lives in
	// registers/constants instead of the SRAM metadata record, and
	// statically resolved encap/decap sites emit nothing.
	PHR bool
	// SWC enables lowering of the software-cache operations (the IR
	// transform is separate; without this flag cache ops degrade to plain
	// loads).
	SWC bool
}

// vreg allocation: lowering uses virtual registers (>= vregBase keeps them
// distinct from physical encodings during debugging).
type lowerer struct {
	opts   Options
	layout *Layout
	tp     *types.Program
	chans  map[string]soar.Input // SOAR channel facts (by channel name)

	code    []*Instr
	slab    []Instr // the chunk emit carves the next Instrs from
	chunk   int     // Instrs per chunk, sized from the aggregate's IR
	nvreg   int
	labels  []int   // label -> instruction index, -1 until placed
	fixups  []fixup // branches, patched with their label's index
	blocks  label   // the label of block 0 of the body being lowered,
	nblocks int     // followed by one per block ID below nblocks
	done    label   // the end of the body being lowered
	handles map[ir.Reg]*handleInfo
	regmap  map[ir.Reg]PReg // IR reg -> virtual CGIR reg
	ringOf  map[string]int  // channel name -> ring id
	err     error
}

// handleInfo is CG's view of a packet handle: the buffer id register, the
// packet length register (carried in the ring descriptor), and the current
// header offset — either a compile-time constant (SOAR+PHR) or a register.
type handleInfo struct {
	pkt        PReg
	length     PReg
	headStatic int32 // valid when headReg == NoPReg
	headReg    PReg
	align      int
}

func (l *lowerer) newVReg() PReg {
	r := PReg(NumRegs + l.nvreg)
	l.nvreg++
	return r
}

// emit appends in to the code. Instrs are carved from chunks of l.chunk,
// so lowering allocates per chunk and not per instruction.
func (l *lowerer) emit(in Instr) {
	if len(l.slab) == cap(l.slab) {
		l.slab = make([]Instr, 0, l.chunk)
	}
	l.slab = append(l.slab, in)
	l.code = append(l.code, &l.slab[len(l.slab)-1])
}

func (l *lowerer) emitALU(op ALUOp, dst, a, b PReg) {
	l.emit(Instr{Op: IALU, ALU: op, Dst: dst, SrcA: a, SrcB: b})
}

func (l *lowerer) emitALUImm(op ALUOp, dst, a PReg, imm uint32) {
	l.emit(Instr{Op: IALUImm, ALU: op, Dst: dst, SrcA: a, Imm: imm})
}

func (l *lowerer) emitImmed(dst PReg, imm uint32) {
	l.emit(Instr{Op: IImmed, Dst: dst, Imm: imm})
}

// label names a branch target: newLabel makes one, place binds it to the
// next instruction emitted, and every branch to it is patched once the
// aggregate is lowered.
type label int

// fixup is a branch at code index at whose Target is to's index.
type fixup struct {
	at int
	to label
}

func (l *lowerer) newLabel() label {
	l.labels = append(l.labels, -1)
	return label(len(l.labels) - 1)
}

func (l *lowerer) place(lab label) {
	l.labels[lab] = len(l.code)
}

func (l *lowerer) emitBr(to label) {
	l.fixups = append(l.fixups, fixup{len(l.code), to})
	l.emit(Instr{Op: IBr})
}

func (l *lowerer) emitBcc(cond CondOp, a, b PReg, to label) {
	l.fixups = append(l.fixups, fixup{len(l.code), to})
	l.emit(Instr{Op: IBcc, Cond: cond, SrcA: a, SrcB: b})
}

func (l *lowerer) emitBccImm(cond CondOp, a PReg, imm uint32, to label) {
	l.fixups = append(l.fixups, fixup{len(l.code), to})
	l.emit(Instr{Op: IBccImm, Cond: cond, SrcA: a, Imm: imm})
}

func (l *lowerer) failf(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("cg: "+format, args...)
	}
}

func (l *lowerer) vregOf(r ir.Reg) PReg {
	if v, ok := l.regmap[r]; ok {
		return v
	}
	v := l.newVReg()
	l.regmap[r] = v
	return v
}

// handleOf returns (creating lazily) the handle info for an IR handle reg.
func (l *lowerer) handleOf(r ir.Reg) *handleInfo {
	h, ok := l.handles[r]
	if !ok {
		h = &handleInfo{pkt: l.newVReg(), length: l.newVReg(),
			headStatic: 0, headReg: NoPReg, align: 1}
		l.handles[r] = h
	}
	return h
}

// ---------------------------------------------------------------------------
// Packet access expansion

// genericOverhead models the out-of-line packet access routine used below
// -O2: register save/restore to the Local Memory stack plus the generic
// prologue arithmetic (the paper's "38 + 5*size instructions" path).
func (l *lowerer) genericOverhead() {
	if l.opts.O2 {
		return
	}
	// Save/restore 4 registers around the "call" and pay the generic
	// dispatch arithmetic. The save area is the reserved top 16 bytes of
	// the thread's Local Memory stack frame.
	tmp := l.newVReg()
	l.emitImmed(tmp, 0)
	l.emit(Instr{Op: IMem, Level: MemLocal, Store: true, Addr: RegSP,
		AddrOff: 176, NWords: 4, Data: []PReg{tmp, tmp, tmp, tmp}, Class: ClassNone,
		Comment: "generic access routine: spill args"})
	for i := 0; i < 14; i++ {
		l.emitALUImm(AAdd, tmp, tmp, 1)
	}
	l.emit(Instr{Op: IMem, Level: MemLocal, Store: false, Addr: RegSP,
		AddrOff: 176, NWords: 4, Data: []PReg{tmp, tmp, tmp, tmp}, Class: ClassNone,
		Comment: "generic access routine: restore"})
}

// headForAccess yields the head offset operand for one packet access:
// PHR keeps the head in a register or constant; without PHR the head_ptr
// is fetched from the packet's SRAM metadata record on every access (the
// "at least one SRAM access" of §5.3).
func (l *lowerer) headForAccess(h *handleInfo, in *ir.Instr) (reg PReg, static int32, align int) {
	static = ir.UnknownOff
	if l.opts.PHR {
		if l.opts.SOAR && in.StaticOff != ir.UnknownOff {
			return NoPReg, int32(l.layout.BufHeadroom) + in.StaticOff, 8
		}
		if h.headReg != NoPReg {
			return h.headReg, ir.UnknownOff, h.align
		}
		return NoPReg, h.headStatic, 8
	}
	// Load head_ptr from SRAM metadata. This support-code read remains
	// until PHR removes it (Table 1 attributes the memory saving to PHR,
	// the instruction saving to SOAR).
	maddr := l.metaAddr(h)
	head := l.newVReg()
	l.emit(Instr{Op: IMem, Level: MemSRAM, Addr: maddr, AddrOff: MetaHeadOff,
		NWords: 1, Data: []PReg{head}, Class: ClassPacketMeta,
		Comment: "head_ptr read"})
	al := 1
	if l.opts.SOAR {
		if in.StaticOff != ir.UnknownOff {
			// Statically resolved: the access sequence uses the constant
			// offset; none of the dynamic offset/alignment arithmetic is
			// emitted (§5.3.2: "more than half of the 40+ instructions in
			// a packet data access can be removed").
			return NoPReg, int32(l.layout.BufHeadroom) + in.StaticOff, 8
		}
		if in.StaticAlign > 0 {
			al = in.StaticAlign
		}
	}
	return head, ir.UnknownOff, al
}

// metaAddr computes the SRAM address register of h's metadata record.
func (l *lowerer) metaAddr(h *handleInfo) PReg {
	addr := l.newVReg()
	// MetaRecBytes is a power of two by construction (rounded to 8).
	shift := uint32(0)
	for m := l.layout.MetaRecBytes; m > 1; m >>= 1 {
		shift++
	}
	l.emitALUImm(AShl, addr, h.pkt, shift)
	t := l.newVReg()
	l.emitALUImm(AAdd, t, addr, l.layout.MetaBase)
	return t
}

// dynamicOffsetArith charges the address arithmetic a dynamic or
// misaligned access needs: bounds masking and, for unknown alignment, the
// variable byte-rotation setup that realigns the burst (SOAR's savings
// are exactly these instructions).
func (l *lowerer) dynamicOffsetArith(aligned bool) {
	t := l.newVReg()
	l.emitImmed(t, 3)
	n := 12
	if aligned {
		n = 4
	}
	for i := 0; i < n; i++ {
		l.emitALUImm(AAdd, t, t, 1)
	}
}

// pktAccess expands one packet data access (field or raw) into address
// arithmetic + a DRAM burst + extraction/insertion.
func (l *lowerer) pktAccess(in *ir.Instr) {
	h := l.handleOf(in.Args[0])
	headReg, headStatic, align := l.headForAccess(h, in)
	wlo, nwords := accessWords(in)

	l.genericOverhead()

	// Address computation. Head offsets are buffer-relative (the packet
	// start sits at BufHeadroom), so no further base adjustment is needed.
	addr := l.newVReg()
	l.emitALUImm(AShl, addr, h.pkt, 8)
	constOff := uint32(wlo)
	if headStatic != ir.UnknownOff {
		constOff += uint32(headStatic)
	} else if headReg != NoPReg {
		t := l.newVReg()
		l.emitALU(AAdd, t, addr, headReg)
		addr = t
	}
	aligned := align >= 4
	if headStatic == ir.UnknownOff {
		l.dynamicOffsetArith(aligned)
	}
	if in.Op == ir.OpPktLoad && headStatic == ir.UnknownOff && !aligned {
		nwords++ // misaligned burst touches one extra word
	}
	l.wordAccess(in, burst{MemDRAM, addr, constOff, ClassPacketData}, wlo, nwords)
}

// metaAccess expands a metadata access into SRAM traffic against the
// packet's metadata record.
func (l *lowerer) metaAccess(in *ir.Instr) {
	maddr := l.metaAddr(l.handleOf(in.Args[0]))
	wlo, nwords := accessWords(in)
	l.wordAccess(in, burst{MemSRAM, maddr, l.layout.MetaAppOff + uint32(wlo), ClassPacketMeta}, wlo, nwords)
}

// accessWords returns the words a field or raw access spans: the byte
// offset of the first, from its header or metadata record, and how many.
func accessWords(in *ir.Instr) (wlo, nwords int) {
	lo, hi := int(in.Off), int(in.Off)+in.Width
	if in.Field != nil {
		lo, hi = in.Field.ByteSpan()
	}
	wlo, whi := types.WordSpan(lo, hi)
	return wlo, (whi - wlo) / 4
}

// burst is where the words of one packet or metadata access live.
type burst struct {
	level MemLevel
	addr  PReg
	off   uint32 // byte offset of the first word from addr
	class AccessClass
}

func (l *lowerer) burstMem(b burst, store bool, data []PReg) {
	l.emit(Instr{Op: IMem, Level: b.level, Store: store, Addr: b.addr, AddrOff: b.off,
		NWords: len(data), Data: data, Class: b.class})
}

// wordAccess emits the memory side of in, a packet or metadata access
// whose nwords words at b start at byte wlo: a load and, for a field, its
// extraction; a field store's insertion and store, after a read of the
// words unless the field fills them; or a raw store of in's registers.
func (l *lowerer) wordAccess(in *ir.Instr, b burst, wlo, nwords int) {
	switch {
	case in.Op == ir.OpPktLoad || in.Op == ir.OpMetaLoad:
		data := make([]PReg, nwords)
		n := 0
		if in.Field == nil {
			for i, d := range in.Dst {
				data[i] = l.vregOf(d)
			}
			n = len(in.Dst)
		}
		for i := n; i < nwords; i++ {
			data[i] = l.newVReg()
		}
		l.burstMem(b, false, data)
		if in.Field != nil {
			l.extractField(l.vregOf(in.Dst[0]), in.Field, data, wlo)
		}
	case in.Field != nil:
		data := make([]PReg, nwords)
		for i := range data {
			data[i] = l.newVReg()
		}
		pl := in.Field.Place(wlo)
		if !pl.Fills() {
			l.burstMem(b, false, data) // read-modify-write
		}
		l.insertField(l.vregOf(in.Args[1]), pl, data)
		l.burstMem(b, true, data)
	default:
		data := make([]PReg, 0, nwords)
		for _, a := range in.Args[1:] {
			data = append(data, l.vregOf(a))
		}
		for len(data) < nwords {
			data = append(data, data[len(data)-1])
		}
		l.burstMem(b, true, data)
	}
}

// extractField shifts and masks the field fld out of the loaded words
// data, which start at byte wlo, into dst.
func (l *lowerer) extractField(dst PReg, fld *types.ProtoField, data []PReg, wlo int) {
	pl := fld.Place(wlo)
	if pl.N == 1 {
		p := pl.Parts[0]
		cur := data[p.Word]
		if p.Shift > 0 {
			t := l.newVReg()
			l.emitALUImm(AShrU, t, cur, uint32(p.Shift))
			cur = t
		}
		if p.Bits < 32 {
			l.emitALUImm(AAnd, dst, cur, types.BitMask(p.Bits))
		} else {
			l.emitALU(AMov, dst, cur, NoPReg)
		}
		return
	}
	hi, lo := pl.Parts[0], pl.Parts[1]
	hp := l.newVReg()
	l.emitALUImm(AAnd, hp, data[hi.Word], types.BitMask(hi.Bits))
	hs := l.newVReg()
	l.emitALUImm(AShl, hs, hp, uint32(hi.Low))
	lp := l.newVReg()
	l.emitALUImm(AShrU, lp, data[lo.Word], uint32(lo.Shift))
	l.emitALU(AOr, dst, hs, lp)
}

// insertField merges the stored value val into the words its placement pl
// names.
func (l *lowerer) insertField(val PReg, pl types.Placement, data []PReg) {
	for _, p := range pl.Parts[:pl.N] {
		src := val
		if p.Low > 0 {
			src = l.newVReg()
			l.emitALUImm(AShrU, src, val, uint32(p.Low))
		}
		vm := l.newVReg()
		l.emitALUImm(AAnd, vm, src, types.BitMask(p.Bits))
		vs := vm
		if p.Shift > 0 {
			vs = l.newVReg()
			l.emitALUImm(AShl, vs, vm, uint32(p.Shift))
		}
		cl := l.newVReg()
		l.emitALUImm(AAnd, cl, data[p.Word], ^p.Mask())
		l.emitALU(AOr, data[p.Word], cl, vs)
	}
}
