package cg

import (
	"fmt"
	"sort"

	"shangrila/internal/aggregate"
	"shangrila/internal/analysis"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt/soar"
)

// Compiled is the code generator's output for one ME aggregate: a single
// CGIR program containing the dispatch loop and every entry body.
type Compiled struct {
	Agg     *aggregate.Aggregate
	Program *Program
	// InputRings lists the rings the dispatch loop polls (RingRx for the
	// rx entry, one per external/loopback input channel otherwise).
	InputRings []int
}

// Image is the full compilation result the runtime loads.
type Image struct {
	Types  *types.Program
	Layout *Layout
	// ME aggregates with compiled code; XScale aggregates keep IR.
	MECode []*Compiled
	XScale []*aggregate.Merged
	Plan   *aggregate.Plan
	// RingOf maps qualified channel names to ring ids (external and
	// loopback channels only).
	RingOf map[string]int
	// ChanFacts carries the SOAR channel facts used at boundaries.
	ChanFacts map[string]soar.Input
	Opts      Options
}

// Compile lowers every ME aggregate of the plan into CGIR.
func Compile(prog *ir.Program, plan *aggregate.Plan, merged []*aggregate.Merged,
	classes map[*types.Channel]aggregate.ChannelClass, facts *soar.Stats, opts Options) (*Image, error) {

	// Ring assignment: every external or loopback channel gets a ring.
	ringOf := map[string]int{}
	next := RingApp0
	for _, ch := range prog.Types.ChanByID {
		switch classes[ch] {
		case aggregate.ChanExternal, aggregate.ChanLoopback:
			if ch.Consumer == "tx" {
				ringOf[ch.Name] = RingTx
			} else {
				ringOf[ch.Name] = next
				next++
			}
		}
	}
	layout := BuildLayout(prog.Types, syntheticInUse(prog, merged), prog.NumLocks, next-RingApp0, 512)

	img := &Image{
		Types:  prog.Types,
		Layout: layout,
		Plan:   plan,
		RingOf: ringOf,
		Opts:   opts,
	}
	if facts != nil {
		img.ChanFacts = facts.ChanInputs
	} else {
		img.ChanFacts = map[string]soar.Input{}
	}
	for _, m := range merged {
		if m.Agg.Target != aggregate.TargetME {
			img.XScale = append(img.XScale, m)
			continue
		}
		c, err := compileAggregate(prog, m, layout, ringOf, img.ChanFacts, classes, opts)
		if err != nil {
			return nil, err
		}
		img.MECode = append(img.MECode, c)
	}
	return img, nil
}

// syntheticInUse collects the compiler-generated globals the IR mentions.
// The types.Program is shared by every compile of one lowering, and an
// incremental session's earlier compiles may have cached globals this one
// does not: their version and seen words stay in the types, but must not
// take up addresses here, or the image would differ from a cold compile's.
func syntheticInUse(prog *ir.Program, merged []*aggregate.Merged) map[*types.Global]bool {
	inUse := map[*types.Global]bool{}
	scan := func(p *ir.Program) {
		for _, fn := range p.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if in.Global != nil && in.Global.Synthetic {
						inUse[in.Global] = true
					}
				}
			}
		}
	}
	scan(prog)
	for _, m := range merged {
		scan(m.Prog)
	}
	return inUse
}

// compileAggregate emits the dispatch loop plus every entry body as one
// program, then register-allocates it.
func compileAggregate(prog *ir.Program, m *aggregate.Merged, layout *Layout,
	ringOf map[string]int, chanFacts map[string]soar.Input,
	classes map[*types.Channel]aggregate.ChannelClass, opts Options) (*Compiled, error) {

	c, nvreg, err := lowerAggregate(prog, m, layout, ringOf, chanFacts, classes, opts)
	if err != nil {
		return nil, err
	}
	if err := Allocate(c.Program, nvreg); err != nil {
		return nil, err
	}
	if err := Verify(c.Program, layout.NumRings); err != nil {
		return nil, fmt.Errorf("cg: aggregate %v (estimated %d instructions, compiled %d): %w",
			m.Agg.PPFs, m.Agg.CodeSize, len(c.Program.Code), err)
	}
	return c, nil
}

// lowerAggregate emits the dispatch loop plus every entry body as one
// program in virtual registers, and returns it with their count.
func lowerAggregate(prog *ir.Program, m *aggregate.Merged, layout *Layout,
	ringOf map[string]int, chanFacts map[string]soar.Input,
	classes map[*types.Channel]aggregate.ChannelClass, opts Options) (*Compiled, int, error) {

	irLen := 0
	for _, e := range m.Entries {
		for _, b := range m.Func(e).Blocks {
			irLen += len(b.Instrs)
		}
	}
	l := &lowerer{
		opts:   opts,
		layout: layout,
		tp:     prog.Types,
		chans:  chanFacts,
		ringOf: ringOf,
		// Lowering the three applications emits 1.4 to 2.5 CGIR
		// instructions per IR instruction with O2 and SOAR on and up to 8.5
		// without. Chunks of a quarter of the IR length keep the unused tail
		// of the last one small next to the code.
		chunk: max(irLen/4, 16),
	}
	l.code = make([]*Instr, 0, 2*irLen)
	c := &Compiled{Agg: m.Agg}

	// Entry polling order matters for liveness: loopback channels (an
	// aggregate feeding itself, e.g. an MPLS label-stack pop) must drain
	// with priority over fresh rx work, or every thread ends up holding a
	// new packet while spinning on the full loopback ring. Order:
	// loopback first, then external channels, rx last; the dispatch loop
	// rescans from the top after each packet.
	rank := func(e *aggregate.Entry) int {
		if e.In == nil {
			return 2 // rx
		}
		if classes[e.In] == aggregate.ChanLoopback {
			return 0
		}
		return 1
	}
	entries := append([]*aggregate.Entry(nil), m.Entries...)
	sort.Slice(entries, func(i, j int) bool {
		ri, rj := rank(entries[i]), rank(entries[j])
		if ri != rj {
			return ri < rj
		}
		ii, ij := -1, -1
		if entries[i].In != nil {
			ii = entries[i].In.ID
		}
		if entries[j].In != nil {
			ij = entries[j].In.ID
		}
		return ii < ij
	})

	dispatch := l.newLabel()
	l.place(dispatch)
	for _, e := range entries {
		ring := RingRx
		var fact soar.Input
		fact = soar.Input{Known: true, Off: 0, Align: 8}
		if e.In != nil {
			ring = ringOf[e.In.Name]
			if f, ok := chanFacts[e.In.Name]; ok {
				fact = f
			} else {
				fact = soar.Input{}
			}
		}
		c.InputRings = append(c.InputRings, ring)
		next := l.newLabel()
		// Poll this input: descriptor pair (pktID, head<<16|end).
		v0 := l.newVReg()
		v1 := l.newVReg()
		l.emit(Instr{Op: IRingGet, Ring: ring, Dst: v0, Dst2: v1,
			Class: ClassPacketRing, Comment: "poll " + labelName(e)})
		l.emitBccImm(CEq, v0, InvalidPktID, next)

		if err := l.lowerEntry(prog, m.Func(e), v0, v1, fact); err != nil {
			return nil, 0, err
		}
		l.emitBr(dispatch)
		l.place(next)
	}
	// Nothing available on any input: yield and retry.
	l.emit(Instr{Op: ICtxArb})
	l.emitBr(dispatch)

	if l.err != nil {
		return nil, 0, l.err
	}
	// Patch branch targets.
	for _, f := range l.fixups {
		t := l.labels[f.to]
		if t < 0 {
			return nil, 0, fmt.Errorf("cg: unresolved label %d", f.to)
		}
		l.code[f.at].Target = t
	}
	c.Program = &Program{Name: m.Agg.PPFs[0], Code: l.code}
	return c, l.nvreg, nil
}

func containsBlock(list []*ir.Block, b *ir.Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

func labelName(e *aggregate.Entry) string {
	if e.In == nil {
		return "rx"
	}
	return e.In.Name
}

// lowerEntry binds the entry function's handle parameter to the ring
// descriptor and lowers the body.
func (l *lowerer) lowerEntry(prog *ir.Program, fn *ir.Func, v0, v1 PReg, fact soar.Input) error {
	l.handles = map[ir.Reg]*handleInfo{}
	l.regmap = map[ir.Reg]PReg{}

	h := &handleInfo{pkt: v0, length: l.newVReg(), headReg: NoPReg, align: 8}
	// Descriptor word1 = head<<16 | end; both are buffer-relative byte
	// offsets (the packet's first byte starts at BufHeadroom, so front
	// growth from packet_encap never goes negative).
	l.emitALUImm(AAnd, h.length, v1, 0xffff)
	if fact.Known {
		h.headStatic = int32(l.layout.BufHeadroom) + fact.Off
	} else {
		h.headReg = l.newVReg()
		l.emitALUImm(AShrU, h.headReg, v1, 16)
		h.align = fact.Align
		if h.align == 0 {
			h.align = 1
		}
	}
	if len(fn.Params) != 1 {
		return fmt.Errorf("cg: entry %s must take one handle", fn.Name)
	}
	l.handles[fn.Params[0]] = h

	return l.lowerBody(prog, fn)
}

// lowerBody emits CGIR for the function CFG. Blocks are laid out in their
// slice order; OpRet becomes a branch to the end label.
func (l *lowerer) lowerBody(prog *ir.Program, fn *ir.Func) error {
	l.done = l.newLabel()
	l.nblocks = 0
	for _, b := range fn.Blocks {
		l.nblocks = max(l.nblocks, b.ID+1)
	}
	l.blocks = label(len(l.labels))
	for i := 0; i < l.nblocks; i++ {
		l.newLabel()
	}
	// Lay blocks out in reverse postorder: dominators precede dominated
	// blocks, so values defined along the way (e.g. the CAM entry of a
	// software-cache lookup consumed by its fill) are lowered first.
	blocks := analysis.ReversePostorder(fn)
	for _, b := range fn.Blocks {
		if !containsBlock(blocks, b) {
			blocks = append(blocks, b)
		}
	}
	for _, b := range blocks {
		l.place(l.blockLabel(b))
		for _, in := range b.Instrs {
			if err := l.lowerInstr(prog, fn, in); err != nil {
				return err
			}
		}
	}
	l.place(l.done)
	return l.err
}

// blockLabel is the label of block b of the body being lowered.
func (l *lowerer) blockLabel(b *ir.Block) label {
	if b.ID < 0 || b.ID >= l.nblocks {
		l.failf("branch to block %d, outside the body's %d", b.ID, l.nblocks)
		return l.done
	}
	return l.blocks + label(b.ID)
}

func (l *lowerer) lowerInstr(prog *ir.Program, fn *ir.Func, in *ir.Instr) error {

	isHandle := func(r ir.Reg) bool {
		return int(r) < len(fn.RegClasses) && fn.RegClasses[r] == ir.ClassHandle
	}
	switch in.Op {
	case ir.OpConst:
		l.emitImmed(l.vregOf(in.Dst[0]), uint32(in.Imm))
	case ir.OpMov:
		if isHandle(in.Dst[0]) {
			src := l.handleOf(in.Args[0])
			cp := *src
			l.handles[in.Dst[0]] = &cp
			return nil
		}
		l.emitALU(AMov, l.vregOf(in.Dst[0]), l.vregOf(in.Args[0]), NoPReg)
	case ir.OpBr:
		l.emitBr(l.blockLabel(in.Blocks[0]))
	case ir.OpCondBr:
		l.emitBccImm(CNe, l.vregOf(in.Args[0]), 0, l.blockLabel(in.Blocks[0]))
		l.emitBr(l.blockLabel(in.Blocks[1]))
	case ir.OpRet:
		l.emitBr(l.done)
	case ir.OpCall:
		return fmt.Errorf("cg: %s: residual call to %q (ME code must be fully inlined)", fn.Name, in.Callee)
	case ir.OpLoad, ir.OpStore:
		l.globalAccess(in)
	case ir.OpPktLoad, ir.OpPktStore:
		l.pktAccess(in)
	case ir.OpMetaLoad, ir.OpMetaStore:
		l.metaAccess(in)
	case ir.OpDecap:
		l.lowerDecap(in)
	case ir.OpEncap:
		l.lowerEncap(in)
	case ir.OpPktCopy:
		l.lowerPktCopy(in)
	case ir.OpPktCreate:
		l.lowerPktCreate(in)
	case ir.OpPktDrop:
		h := l.handleOf(in.Args[0])
		z := l.newVReg()
		l.emitImmed(z, 0)
		okd := l.newVReg()
		l.emit(Instr{Op: IRingPut, Ring: RingFree, SrcA: h.pkt, SrcB: z,
			Dst: okd, Class: ClassPacketRing, Comment: "drop: free buffer"})
	case ir.OpAddTail, ir.OpRemoveTail:
		h := l.handleOf(in.Args[0])
		n := l.vregOf(in.Args[1])
		op := AAdd
		if in.Op == ir.OpRemoveTail {
			op = ASub
		}
		l.emitALU(op, h.length, h.length, n)
		// Persist the new length for Tx/other aggregates.
		maddr := l.metaAddr(h)
		l.emit(Instr{Op: IMem, Level: MemSRAM, Store: true, Addr: maddr,
			AddrOff: MetaLenOff, NWords: 1, Data: []PReg{h.length},
			Class: ClassPacketMeta, Comment: "length update"})
	case ir.OpPktLength:
		h := l.handleOf(in.Args[0])
		l.emitALUImm(ASub, l.vregOf(in.Dst[0]), h.length, l.layout.BufHeadroom)
	case ir.OpChanPut:
		l.lowerChanPut(in)
	case ir.OpLockAcquire:
		l.lowerLock(in, true)
	case ir.OpLockRelease:
		l.lowerLock(in, false)
	case ir.OpCacheLookup:
		l.lowerCacheLookup(in)
	case ir.OpCacheFill:
		l.lowerCacheFill(in)
	case ir.OpCacheFlush:
		l.emit(Instr{Op: ICAMClear, Comment: "swc flush " + in.Global.Name})
	default:
		switch {
		case in.Op.IsCompare():
			// Materialize the 0/1; handle comparisons compare buffer ids.
			a, b := in.Args[0], in.Args[1]
			var ra, rb PReg
			if isHandle(a) {
				ra, rb = l.handleOf(a).pkt, l.handleOf(b).pkt
			} else {
				ra, rb = l.vregOf(a), l.vregOf(b)
			}
			dst := l.vregOf(in.Dst[0])
			tLab, eLab := l.newLabel(), l.newLabel()
			l.emitBcc(l.condFor(in.Op), ra, rb, tLab)
			l.emitImmed(dst, 0)
			l.emitBr(eLab)
			l.place(tLab)
			l.emitImmed(dst, 1)
			l.place(eLab)
		case in.Op.IsWord():
			dst, a, b := l.vregOf(in.Dst[0]), l.vregOf(in.Args[0]), NoPReg
			if len(in.Args) > 1 {
				b = l.vregOf(in.Args[1])
			}
			l.emitALU(l.aluFor(in.Op), dst, a, b)
		default:
			return fmt.Errorf("cg: unhandled IR op %s", in.Op)
		}
	}
	return nil
}

// aluFor is the ME ALU op computing word op op, which may not be a
// comparison; any other op fails the compile.
func (l *lowerer) aluFor(op ir.Op) ALUOp {
	switch op {
	case ir.OpAdd:
		return AAdd
	case ir.OpSub:
		return ASub
	case ir.OpMul:
		return AMul
	case ir.OpDivU:
		return ADivU
	case ir.OpRemU:
		return ARemU
	case ir.OpAnd:
		return AAnd
	case ir.OpOr:
		return AOr
	case ir.OpXor:
		return AXor
	case ir.OpShl:
		return AShl
	case ir.OpShrU:
		return AShrU
	case ir.OpShrS:
		return AShrS
	case ir.OpNot:
		return ANot
	case ir.OpNeg:
		return ANeg
	}
	l.failf("no ME ALU op computes IR op %s", op)
	return 0
}

// condFor is the ME branch condition of word comparison op; any other op
// fails the compile.
func (l *lowerer) condFor(op ir.Op) CondOp {
	switch op {
	case ir.OpEq:
		return CEq
	case ir.OpNe:
		return CNe
	case ir.OpLtU:
		return CLtU
	case ir.OpLeU:
		return CLeU
	case ir.OpLtS:
		return CLtS
	case ir.OpLeS:
		return CLeS
	}
	l.failf("no ME branch condition computes IR op %s", op)
	return 0
}

// globalAccess lowers OpLoad/OpStore against the global's assigned level.
func (l *lowerer) globalAccess(in *ir.Instr) {
	g := in.Global
	base, ok := l.layout.GlobalAddr[g.Name]
	if !ok {
		l.failf("no layout address for global %s", g.Name)
		return
	}
	level := MemSRAM
	switch g.Space {
	case types.SpaceScratch:
		level = MemScratch
	case types.SpaceLocal:
		level = MemLocal
	}
	class := ClassAppData
	if g.Synthetic && g.Space == types.SpaceLocal {
		class = ClassNone
	}
	addr := NoPReg
	off := base + uint32(in.Off)
	if len(in.Args) > 0 && in.Args[0] != ir.NoReg {
		addr = l.vregOf(in.Args[0])
	}
	if in.Op == ir.OpLoad {
		data := make([]PReg, len(in.Dst))
		for i, d := range in.Dst {
			data[i] = l.vregOf(d)
		}
		l.emit(Instr{Op: IMem, Level: level, Addr: addr, AddrOff: off,
			NWords: len(data), Data: data, Class: class, Comment: g.Name})
		return
	}
	data := make([]PReg, 0, len(in.Args)-1)
	for _, a := range in.Args[1:] {
		data = append(data, l.vregOf(a))
	}
	l.emit(Instr{Op: IMem, Level: level, Store: true, Addr: addr, AddrOff: off,
		NWords: len(data), Data: data, Class: class, Comment: g.Name})
}

// lowerDecap moves the handle's head past the decapped header. Without
// PHR the head_ptr lives in SRAM metadata and pays a read-modify-write;
// with PHR it stays in a register or constant (free when SOAR resolved
// it). A dynamic demux (IPv4's hlen<<2) additionally reads the header
// word holding the demux fields.
func (l *lowerer) lowerDecap(in *ir.Instr) {
	src := l.handleOf(in.Args[0])
	from := l.tp.ProtoByID[in.Imm]
	nh := &handleInfo{pkt: src.pkt, length: src.length,
		headStatic: src.headStatic, headReg: src.headReg, align: src.align}

	var sizeReg PReg = NoPReg
	staticSize := int32(from.FixedSize)
	if from.FixedSize < 0 {
		sizeReg = l.compileDemux(src, from, in)
	}

	if l.opts.PHR {
		switch {
		case in.StaticOff != ir.UnknownOff && l.opts.SOAR && from.FixedSize >= 0:
			nh.headStatic = int32(l.layout.BufHeadroom) + in.StaticOff + staticSize
			nh.headReg = NoPReg
		case sizeReg == NoPReg && nh.headReg == NoPReg:
			nh.headStatic += staticSize
		default:
			cur := nh.headReg
			if cur == NoPReg {
				cur = l.newVReg()
				l.emitImmed(cur, uint32(nh.headStatic))
			}
			out := l.newVReg()
			if sizeReg == NoPReg {
				l.emitALUImm(AAdd, out, cur, uint32(staticSize))
			} else {
				l.emitALU(AAdd, out, cur, sizeReg)
			}
			nh.headReg = out
			nh.align = 1
			if sizeReg == NoPReg {
				nh.align = src.align
			}
		}
		l.handles[in.Dst[0]] = nh
		return
	}
	// PHR off: head_ptr RMW in SRAM metadata.
	maddr := l.metaAddr(src)
	cur := l.newVReg()
	l.emit(Instr{Op: IMem, Level: MemSRAM, Addr: maddr, AddrOff: MetaHeadOff,
		NWords: 1, Data: []PReg{cur}, Class: ClassPacketMeta, Comment: "head_ptr RMW read"})
	out := l.newVReg()
	if sizeReg == NoPReg {
		l.emitALUImm(AAdd, out, cur, uint32(staticSize))
	} else {
		l.emitALU(AAdd, out, cur, sizeReg)
	}
	l.emit(Instr{Op: IMem, Level: MemSRAM, Store: true, Addr: maddr,
		AddrOff: MetaHeadOff, NWords: 1, Data: []PReg{out},
		Class: ClassPacketMeta, Comment: "head_ptr RMW write"})
	nh.headReg = out
	nh.align = 1
	l.handles[in.Dst[0]] = nh
}

// lowerEncap mirrors lowerDecap for packet_encap (head moves back by the
// outer protocol's fixed size; front growth is handled by the simulator's
// buffer headroom, mirroring packet.Packet.Encap).
func (l *lowerer) lowerEncap(in *ir.Instr) {
	src := l.handleOf(in.Args[0])
	size := in.Proto.Size()
	nh := &handleInfo{pkt: src.pkt, length: src.length,
		headStatic: src.headStatic, headReg: src.headReg, align: src.align}
	if l.opts.PHR {
		if in.StaticOff != ir.UnknownOff && l.opts.SOAR {
			off := in.StaticOff - int32(size)
			nh.headStatic = int32(l.layout.BufHeadroom) + off
			nh.headReg = NoPReg
		} else if nh.headReg == NoPReg {
			nh.headStatic -= int32(size)
		} else {
			out := l.newVReg()
			l.emitALUImm(ASub, out, nh.headReg, uint32(size))
			nh.headReg = out
		}
		l.handles[in.Dst[0]] = nh
		return
	}
	maddr := l.metaAddr(src)
	cur := l.newVReg()
	l.emit(Instr{Op: IMem, Level: MemSRAM, Addr: maddr, AddrOff: MetaHeadOff,
		NWords: 1, Data: []PReg{cur}, Class: ClassPacketMeta, Comment: "head_ptr RMW read"})
	out := l.newVReg()
	l.emitALUImm(ASub, out, cur, uint32(size))
	l.emit(Instr{Op: IMem, Level: MemSRAM, Store: true, Addr: maddr,
		AddrOff: MetaHeadOff, NWords: 1, Data: []PReg{out},
		Class: ClassPacketMeta, Comment: "head_ptr RMW write"})
	nh.headReg = out
	nh.align = 1
	l.handles[in.Dst[0]] = nh
}

// lowerChanPut emits the descriptor hand-off: two ring words (pktID,
// head<<16|len).
func (l *lowerer) lowerChanPut(in *ir.Instr) {
	h := l.handleOf(in.Args[0])
	ring, ok := l.ringOf[in.Chan.Name]
	if !ok {
		l.failf("chanput to internal channel %s survived merging", in.Chan.Name)
		return
	}
	var headVal PReg
	if h.headReg != NoPReg {
		headVal = h.headReg
	} else {
		headVal = l.newVReg()
		l.emitImmed(headVal, uint32(h.headStatic))
	}
	desc := l.newVReg()
	l.emitALUImm(AShl, desc, headVal, 16)
	d2 := l.newVReg()
	l.emitALU(AOr, d2, desc, h.length)
	okr := l.newVReg()
	lab := l.newLabel()
	l.place(lab)
	l.emit(Instr{Op: IRingPut, Ring: ring, SrcA: h.pkt, SrcB: d2, Dst: okr,
		Class: ClassPacketRing, Comment: "chanput " + in.Chan.Name})
	l.emitBccImm(CEq, okr, 0, lab) // downstream full: spin (backpressure)
}

// lowerLock implements critical sections with a scratch test-and-set spin
// loop.
func (l *lowerer) lowerLock(in *ir.Instr, acquire bool) {
	addr := l.layout.LockBase + uint32(in.Imm)*4
	if acquire {
		lab := l.newLabel()
		l.place(lab)
		old := l.newVReg()
		l.emit(Instr{Op: IMem, Level: MemScratch, Addr: NoPReg, AddrOff: addr,
			NWords: 1, Data: []PReg{old}, Atomic: true, Class: ClassAppData,
			Comment: fmt.Sprintf("lock %d test-and-set", in.Imm)})
		l.emitBccImm(CNe, old, 0, lab)
		return
	}
	z := l.newVReg()
	l.emitImmed(z, 0)
	l.emit(Instr{Op: IMem, Level: MemScratch, Store: true, Addr: NoPReg,
		AddrOff: addr, NWords: 1, Data: []PReg{z}, Class: ClassAppData,
		Comment: fmt.Sprintf("lock %d release", in.Imm)})
}

// lowerCacheLookup: CAM probe + Local Memory line read. The matched (or
// LRU victim) entry lands in the IR-visible Dst[1] register so the
// miss path's CacheFill tags and fills the same entry — several lookup
// sites may cache the same global, so the entry cannot be resolved per
// global name.
func (l *lowerer) lowerCacheLookup(in *ir.Instr) {
	base := l.layout.GlobalAddr[in.Global.Name]
	key := l.newVReg()
	if len(in.Args) > 0 && in.Args[0] != ir.NoReg {
		l.emitALUImm(AAdd, key, l.vregOf(in.Args[0]), base+uint32(in.Off))
	} else {
		l.emitImmed(key, base+uint32(in.Off))
	}
	hit := l.vregOf(in.Dst[0])
	entry := l.vregOf(in.Dst[1])
	l.emit(Instr{Op: ICAMLookup, Dst: hit, Dst2: entry, SrcA: key,
		Comment: "swc lookup " + in.Global.Name})
	// Line address in Local Memory: SWCLineBase + entry*32.
	la := l.newVReg()
	l.emitALUImm(AShl, la, entry, 5)
	data := make([]PReg, len(in.Dst)-2)
	for i := range data {
		data[i] = l.vregOf(in.Dst[i+2])
	}
	if len(data) > 0 {
		l.emit(Instr{Op: IMem, Level: MemLocal, Addr: la,
			AddrOff: l.layout.SWCLineBase, NWords: len(data), Data: data,
			Class: ClassNone, Comment: "swc line read"})
	}
}

// lowerCacheFill: CAM tag write + Local Memory line write at the entry
// its own lookup returned (Args[0]); Args[1] is the optional index
// register and Args[2:] the line words.
func (l *lowerer) lowerCacheFill(in *ir.Instr) {
	entry := l.vregOf(in.Args[0])
	base := l.layout.GlobalAddr[in.Global.Name]
	key := l.newVReg()
	if in.Args[1] != ir.NoReg {
		l.emitALUImm(AAdd, key, l.vregOf(in.Args[1]), base+uint32(in.Off))
	} else {
		l.emitImmed(key, base+uint32(in.Off))
	}
	l.emit(Instr{Op: ICAMWrite, SrcA: entry, SrcB: key,
		Comment: "swc tag " + in.Global.Name})
	la := l.newVReg()
	l.emitALUImm(AShl, la, entry, 5)
	data := make([]PReg, 0, len(in.Args)-2)
	for _, a := range in.Args[2:] {
		data = append(data, l.vregOf(a))
	}
	if len(data) > 0 {
		l.emit(Instr{Op: IMem, Level: MemLocal, Store: true, Addr: la,
			AddrOff: l.layout.SWCLineBase, NWords: len(data), Data: data,
			Class: ClassNone, Comment: "swc line write"})
	}
}

// lowerPktCopy allocates a fresh buffer and copies data + metadata.
func (l *lowerer) lowerPktCopy(in *ir.Instr) {
	src := l.handleOf(in.Args[0])
	nid := l.newVReg()
	junk := l.newVReg()
	l.emit(Instr{Op: IRingGet, Ring: RingFree, Dst: nid, Dst2: junk,
		Class: ClassPacketRing, Comment: "alloc buffer (packet_copy)"})
	// Copy loop: 64 bytes per iteration, len/64+1 iterations.
	sAddr := l.newVReg()
	l.emitALUImm(AShl, sAddr, src.pkt, 8)
	dAddr := l.newVReg()
	l.emitALUImm(AShl, dAddr, nid, 8)
	cnt := l.newVReg()
	l.emitALUImm(AShrU, cnt, src.length, 6)
	l.emitALUImm(AAdd, cnt, cnt, 1)
	lab, endLab := l.newLabel(), l.newLabel()
	l.place(lab)
	l.emitBccImm(CEq, cnt, 0, endLab)
	buf := make([]PReg, 16)
	for i := range buf {
		buf[i] = l.newVReg()
	}
	l.emit(Instr{Op: IMem, Level: MemDRAM, Addr: sAddr, AddrOff: 0,
		NWords: 16, Data: buf, Class: ClassPacketData, Comment: "copy read"})
	l.emit(Instr{Op: IMem, Level: MemDRAM, Store: true, Addr: dAddr, AddrOff: 0,
		NWords: 16, Data: buf, Class: ClassPacketData, Comment: "copy write"})
	l.emitALUImm(AAdd, sAddr, sAddr, 64)
	l.emitALUImm(AAdd, dAddr, dAddr, 64)
	l.emitALUImm(ASub, cnt, cnt, 1)
	l.emitBr(lab)
	l.place(endLab)
	// Copy the metadata record.
	sm := l.metaAddr(src)
	nh := &handleInfo{pkt: nid, length: src.length,
		headStatic: src.headStatic, headReg: src.headReg, align: src.align}
	dm := l.metaAddr(nh)
	mwords := int(l.layout.MetaRecBytes / 4)
	if mwords > 8 {
		mwords = 8
	}
	mb := make([]PReg, mwords)
	for i := range mb {
		mb[i] = l.newVReg()
	}
	l.emit(Instr{Op: IMem, Level: MemSRAM, Addr: sm, AddrOff: 0,
		NWords: mwords, Data: mb, Class: ClassPacketMeta, Comment: "meta copy read"})
	l.emit(Instr{Op: IMem, Level: MemSRAM, Store: true, Addr: dm, AddrOff: 0,
		NWords: mwords, Data: mb, Class: ClassPacketMeta, Comment: "meta copy write"})
	l.handles[in.Dst[0]] = nh
}

// lowerPktCreate allocates a buffer for a fresh packet of the protocol's
// (minimum) size.
func (l *lowerer) lowerPktCreate(in *ir.Instr) {
	nid := l.newVReg()
	junk := l.newVReg()
	l.emit(Instr{Op: IRingGet, Ring: RingFree, Dst: nid, Dst2: junk,
		Class: ClassPacketRing, Comment: "alloc buffer (packet_create)"})
	size := in.Proto.Size()
	lenReg := l.newVReg()
	l.emitImmed(lenReg, l.layout.BufHeadroom+uint32(size))
	h := &handleInfo{pkt: nid, length: lenReg,
		headStatic: int32(l.layout.BufHeadroom), headReg: NoPReg, align: 8}
	// Persist length in the metadata record.
	maddr := l.metaAddr(h)
	l.emit(Instr{Op: IMem, Level: MemSRAM, Store: true, Addr: maddr,
		AddrOff: MetaLenOff, NWords: 1, Data: []PReg{lenReg},
		Class: ClassPacketMeta, Comment: "length init"})
	l.handles[in.Dst[0]] = h
}

// compileDemux emits code evaluating a dynamic demux expression (e.g.
// IPv4's "hlen << 2") against the header at the handle's current offset:
// one DRAM burst covering every referenced field, then extraction and the
// expression arithmetic. Returns the register holding the header size in
// bytes.
func (l *lowerer) compileDemux(src *handleInfo, from *types.Protocol, site *ir.Instr) PReg {
	nwords := (max(4, from.Demux.Span()) + 3) / 4

	// Load the covering words from the header start.
	hr, hs, _ := l.headForAccess(src, site)
	addr := l.newVReg()
	l.emitALUImm(AShl, addr, src.pkt, 8)
	off := uint32(0)
	if hs != ir.UnknownOff {
		off += uint32(hs)
	} else if hr != NoPReg {
		t := l.newVReg()
		l.emitALU(AAdd, t, addr, hr)
		addr = t
	}
	words := make([]PReg, nwords)
	for i := range words {
		words[i] = l.newVReg()
	}
	l.emit(Instr{Op: IMem, Level: MemDRAM, Addr: addr, AddrOff: off,
		NWords: nwords, Data: words, Class: ClassPacketData,
		Comment: "demux field read (" + from.Name + ")"})

	var eval func(d *types.Demux) PReg
	eval = func(d *types.Demux) PReg {
		if d.X == nil { // a field or a constant
			r := l.newVReg()
			if d.Field != nil {
				l.extractField(r, d.Field, words, 0)
			} else {
				l.emitImmed(r, d.Value)
			}
			return r
		}
		op, ok := ir.TokenOp(d.Op, d.Y == nil, false)
		if !ok {
			l.failf("%s demux operator %s has no word op", from.Name, d.Op)
		}
		x, y := eval(d.X), NoPReg
		if d.Y != nil {
			y = eval(d.Y)
		}
		r := l.newVReg()
		l.emitALU(l.aluFor(op), r, x, y)
		return r
	}
	return eval(from.Demux)
}
