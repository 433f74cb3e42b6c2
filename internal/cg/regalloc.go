package cg

import (
	"cmp"
	"fmt"
	"slices"

	"shangrila/internal/analysis"
	"shangrila/internal/cg/stackalloc"
)

// Register allocation: virtual registers (indices >= NumRegs) are mapped
// onto the ME's two 16-register banks. The ME constraint the paper calls
// out in §4.1 applies: an instruction with two register source operands
// must read them from different banks, so bank assignment happens first
// (inserting cross-bank copies where the constraint is unsatisfiable),
// followed by per-bank linear-scan allocation with spills to the thread's
// Local Memory stack frame (§5.4), overflowing to SRAM when the 48-word
// frame is exhausted.

// Usable registers per bank after reserving SP (a15), the SRAM spill base
// (b15) and the two assembler temps (a14/b14).
const (
	RegSSP       PReg = 31 // bank B: SRAM spill-area base (per-thread)
	regsPerBankA      = 14
	regsPerBankB      = 14
)

// Allocate rewrites p.Code in place from virtual to physical registers.
func Allocate(p *Program, nvreg int) error {
	a := &allocator{p: p, nvreg: nvreg}
	a.assignBanks()
	a.computeIntervals()
	if err := a.scan(); err != nil {
		return err
	}
	a.rewrite()
	return a.err
}

type interval struct {
	vreg       PReg // 0, a physical register, until the code mentions it
	start, end int
	bank       int
	phys       PReg // NoPReg if spilled
	slot       int  // spill slot index, -1 otherwise
}

// allocator's per-register tables are slices indexed by vreg − NumRegs;
// they grow when assignBanks adds copy registers.
type allocator struct {
	p     *Program
	nvreg int
	bank  []int8     // 0 or 1; noBank until assigned
	ivals []interval // the hull of every register the code mentions
	err   error

	frame *stackalloc.Frame
}

const noBank = -1

func isVirtual(r PReg) bool { return int(r) >= NumRegs }

// maxOperands bounds one instruction's register operands on either side: a
// 16-word burst plus its address. Callers size their operand buffers with it.
const maxOperands = 17

// regOperands appends pointers to every register operand of in to defs
// (destinations) and uses (sources). Callers pass empty slices over arrays
// of their own, so the walk allocates nothing.
func regOperands(in *Instr, defs, uses []*PReg) ([]*PReg, []*PReg) {
	switch in.Op {
	case IALU:
		uses = append(uses, &in.SrcA)
		if in.ALU != AMov && in.ALU != ANot && in.ALU != ANeg {
			uses = append(uses, &in.SrcB)
		}
		defs = append(defs, &in.Dst)
	case IALUImm:
		uses = append(uses, &in.SrcA)
		defs = append(defs, &in.Dst)
	case IImmed:
		defs = append(defs, &in.Dst)
	case IBcc:
		uses = append(uses, &in.SrcA, &in.SrcB)
	case IBccImm:
		uses = append(uses, &in.SrcA)
	case IMem:
		if in.Addr != NoPReg {
			uses = append(uses, &in.Addr)
		}
		for i := range in.Data {
			if in.Store {
				uses = append(uses, &in.Data[i])
			} else {
				defs = append(defs, &in.Data[i])
			}
		}
	case ICAMLookup:
		uses = append(uses, &in.SrcA)
		defs = append(defs, &in.Dst, &in.Dst2)
	case ICAMWrite:
		uses = append(uses, &in.SrcA, &in.SrcB)
	case IRingGet:
		defs = append(defs, &in.Dst, &in.Dst2)
	case IRingPut:
		uses = append(uses, &in.SrcA, &in.SrcB)
		if in.Dst != NoPReg {
			defs = append(defs, &in.Dst)
		}
	}
	// Filter out absent operands (zero-valued fields that aren't real
	// registers are encoded as NoPReg by the lowerer; physical registers
	// like RegSP pass through).
	f := func(list []*PReg) []*PReg {
		out := list[:0]
		for _, r := range list {
			if *r != NoPReg {
				out = append(out, r)
			}
		}
		return out
	}
	return f(defs), f(uses)
}

// assignBanks 2-colors the source-pair conflict graph greedily, inserting
// cross-bank copies when both operands of an instruction already share a
// bank.
func (a *allocator) assignBanks() {
	a.bank = make([]int8, a.nvreg)
	for i := range a.bank {
		a.bank[i] = noBank
	}
	balance := 0
	get := func(v PReg) (int, bool) {
		b := a.bank[v-NumRegs]
		return int(b), b != noBank
	}
	set := func(v PReg, b int) { a.bank[v-NumRegs] = int8(b) }
	// fresh adds a copy register.
	fresh := func() PReg {
		a.bank = append(a.bank, noBank)
		a.nvreg++
		return PReg(NumRegs + a.nvreg - 1)
	}

	out := make([]*Instr, 0, len(a.p.Code))
	for _, in := range a.p.Code {
		twoSrc := in.Op == IALU && in.ALU != AMov && in.ALU != ANot && in.ALU != ANeg ||
			in.Op == IBcc || in.Op == ICAMWrite || in.Op == IRingPut
		if twoSrc && isVirtual(in.SrcA) && isVirtual(in.SrcB) && in.SrcA != in.SrcB {
			ba, okA := get(in.SrcA)
			bb, okB := get(in.SrcB)
			switch {
			case !okA && !okB:
				set(in.SrcA, 0)
				set(in.SrcB, 1)
			case okA && !okB:
				set(in.SrcB, 1-ba)
			case !okA && okB:
				set(in.SrcA, 1-bb)
			case ba == bb:
				// Copy SrcB into a fresh vreg of the opposite bank.
				t := fresh()
				set(t, 1-ba)
				out = append(out, &Instr{Op: IALU, ALU: AMov, Dst: t, SrcA: in.SrcB,
					Comment: "bank-conflict copy"})
				in.SrcB = t
			}
		} else if twoSrc && isVirtual(in.SrcA) && in.SrcA == in.SrcB {
			// Same register on both sides: duplicate through a copy.
			t := fresh()
			ba, ok := get(in.SrcA)
			if !ok {
				ba = 0
				set(in.SrcA, ba)
			}
			set(t, 1-ba)
			out = append(out, &Instr{Op: IALU, ALU: AMov, Dst: t, SrcA: in.SrcB,
				Comment: "same-source copy"})
			in.SrcB = t
		}
		out = append(out, in)
	}
	// Unconstrained vregs: balance banks.
	var db, ub [maxOperands]*PReg
	for _, in := range out {
		defs, uses := regOperands(in, db[:0], ub[:0])
		for _, lists := range [][]*PReg{defs, uses} {
			for _, r := range lists {
				if isVirtual(*r) {
					if _, ok := get(*r); !ok {
						set(*r, balance&1)
						balance++
					}
				}
			}
		}
	}
	// Inserting copies shifted instruction indices: retarget branches.
	if len(out) != len(a.p.Code) {
		remap := make([]int, len(a.p.Code)+1)
		oi := 0
		for i, in := range a.p.Code {
			for out[oi] != in {
				oi++
			}
			remap[i] = oi
		}
		remap[len(a.p.Code)] = len(out)
		for _, in := range out {
			switch in.Op {
			case IBr, IBcc, IBccImm:
				in.Target = remap[in.Target]
			}
		}
	}
	a.p.Code = out
}

// computeIntervals builds conservative [first,last] hulls per vreg using
// block-level liveness over the CGIR CFG.
func (a *allocator) computeIntervals() {
	code := a.p.Code
	n := len(code)
	starts := a.p.BlockBoundaries()
	nb := len(starts)
	blockOf := make([]int, n)
	ends := make([]int, nb)
	for bi, s := range starts {
		e := n
		if bi+1 < nb {
			e = starts[bi+1]
		}
		ends[bi] = e
		for i := s; i < e; i++ {
			blockOf[i] = bi
		}
	}
	// At most two successors per block, in one backing array.
	succs, flat := make([][]int, nb), make([]int, 0, 2*nb)
	for bi, s := range starts {
		e := ends[bi]
		if e == s {
			continue
		}
		from := len(flat)
		switch last := code[e-1]; last.Op {
		case IBr:
			flat = append(flat, blockOf[min(last.Target, n-1)])
		case IBcc, IBccImm:
			flat = append(flat, blockOf[min(last.Target, n-1)])
			if e < n {
				flat = append(flat, blockOf[e])
			}
		case IHalt:
		default:
			if e < n {
				flat = append(flat, blockOf[e])
			}
		}
		succs[bi] = flat[from:len(flat):len(flat)]
	}
	// Block gen/kill over vreg indices, solved by the shared bitset solver.
	w := (a.nvreg + 63) >> 6
	sets := make([]uint64, 4*nb*w)
	gen, kill, liveIn, liveOut := sets[:nb*w], sets[nb*w:2*nb*w], sets[2*nb*w:3*nb*w], sets[3*nb*w:]
	row := func(sets []uint64, bi int) analysis.Bits { return sets[bi*w : (bi+1)*w] }
	var db, ub [maxOperands]*PReg
	for bi, s := range starts {
		g, k := row(gen, bi), row(kill, bi)
		for i := s; i < ends[bi]; i++ {
			defs, uses := regOperands(code[i], db[:0], ub[:0])
			for _, u := range uses {
				if isVirtual(*u) && !k.Has(int(*u)-NumRegs) {
					g.Set(int(*u) - NumRegs)
				}
			}
			for _, d := range defs {
				if isVirtual(*d) {
					k.Set(int(*d) - NumRegs)
				}
			}
		}
	}
	analysis.SolveBackward(succs, gen, kill, liveIn, liveOut)
	// Hull intervals.
	a.ivals = make([]interval, a.nvreg)
	touch := func(v PReg, i int) {
		iv := &a.ivals[v-NumRegs]
		if iv.vreg == 0 {
			*iv = interval{vreg: v, start: i, end: i, bank: int(a.bank[v-NumRegs]), slot: -1, phys: NoPReg}
		}
		iv.start, iv.end = min(iv.start, i), max(iv.end, i)
	}
	for i, in := range code {
		defs, uses := regOperands(in, db[:0], ub[:0])
		for _, d := range defs {
			if isVirtual(*d) {
				touch(*d, i)
			}
		}
		for _, u := range uses {
			if isVirtual(*u) {
				touch(*u, i)
			}
		}
	}
	for bi, s := range starts {
		row(liveIn, bi).ForEach(func(v int) { touch(PReg(NumRegs+v), s) })
		row(liveOut, bi).ForEach(func(v int) { touch(PReg(NumRegs+v), ends[bi]-1) })
	}
}

// scan performs per-bank linear scan. Registers written by multi-word
// memory bursts, ring gets or CAM lookups are spilled last: one
// instruction would need several assembler temps, so the victim search
// takes one only when every active interval of the bank is one (rewrite
// reads a load burst's spilled words again one at a time).
func (a *allocator) scan() error {
	a.frame = stackalloc.NewFrame(stackalloc.DefaultConfig())
	unspillable := make([]bool, a.nvreg) // by vreg − NumRegs
	var db, ub [maxOperands]*PReg
	for _, in := range a.p.Code {
		defs, _ := regOperands(in, db[:0], ub[:0])
		if len(defs) > 1 {
			for _, d := range defs {
				if isVirtual(*d) {
					unspillable[*d-NumRegs] = true
				}
			}
		}
	}
	ivals := make([]*interval, 0, len(a.ivals))
	for i := range a.ivals {
		if a.ivals[i].vreg != 0 {
			ivals = append(ivals, &a.ivals[i])
		}
	}
	slices.SortFunc(ivals, func(x, y *interval) int {
		if x.start != y.start {
			return cmp.Compare(x.start, y.start)
		}
		return cmp.Compare(x.vreg, y.vreg)
	})
	// Free registers are taken from the front and returned to the back; a
	// bank's free and active lists together hold its registers, so each
	// fits an array of BankSize.
	var freeA, freeB [BankSize]PReg
	var activeA, activeB [BankSize]*interval
	free := [2][]PReg{freeA[:0], freeB[:0]}
	active := [2][]*interval{activeA[:0], activeB[:0]}
	for r := PReg(0); r < regsPerBankA; r++ {
		free[0] = append(free[0], r)
	}
	for r := PReg(BankSize); r < BankSize+regsPerBankB; r++ {
		free[1] = append(free[1], r)
	}
	expire := func(bank, at int) {
		kept := active[bank][:0]
		for _, iv := range active[bank] {
			if iv.end < at {
				free[bank] = append(free[bank], iv.phys)
			} else {
				kept = append(kept, iv)
			}
		}
		active[bank] = kept
	}
	for _, iv := range ivals {
		b := iv.bank
		expire(b, iv.start)
		if len(free[b]) > 0 {
			iv.phys = free[b][0]
			free[b] = free[b][:copy(free[b], free[b][1:])]
			active[b] = append(active[b], iv)
			continue
		}
		// Spill the active interval with the furthest end (or this one),
		// skipping unspillable burst registers.
		var victim *interval
		if !unspillable[iv.vreg-NumRegs] {
			victim = iv
		}
		for _, cand := range active[b] {
			if unspillable[cand.vreg-NumRegs] {
				continue
			}
			if victim == nil || cand.end > victim.end {
				victim = cand
			}
		}
		if victim == nil {
			for _, cand := range active[b] {
				if victim == nil || cand.end > victim.end {
					victim = cand
				}
			}
		}
		if victim == nil {
			return fmt.Errorf("cg: register pressure too high: no spillable interval in bank %d", b)
		}
		if victim != iv {
			iv.phys = victim.phys
			victim.phys = NoPReg
			victim.slot = a.frame.AllocSlot()
			na := active[b][:0]
			for _, c := range active[b] {
				if c != victim {
					na = append(na, c)
				}
			}
			active[b] = append(na, iv)
		} else {
			iv.slot = a.frame.AllocSlot()
		}
	}
	return nil
}

// spilledDef is a def of a spilled register: its index in the
// instruction's defs (for a load burst, the word's) and its interval.
type spilledDef struct {
	j  int
	iv *interval
}

// rewrite replaces vregs with physical registers, inserting spill loads
// and stores through the assembler temps.
func (a *allocator) rewrite() {
	out := make([]*Instr, 0, len(a.p.Code))
	remap := make([]int, len(a.p.Code)+1)
	spillMem := func(iv *interval, store bool, tmp PReg) *Instr {
		loc := a.frame.Slot(iv.slot)
		level := MemLocal
		addr := RegSP
		off := loc.Offset
		if !loc.Local {
			level = MemSRAM
			addr = RegSSP
		}
		cls := ClassNone
		if !loc.Local {
			cls = ClassPacketMeta // SRAM stack traffic (rare; §5.4)
			a.p.SRAMSpillWords++
		}
		return &Instr{Op: IMem, Level: level, Store: store, Addr: addr,
			AddrOff: off, NWords: 1, Data: []PReg{tmp}, Class: cls,
			Comment: fmt.Sprintf("spill v%d", int(iv.vreg))}
	}
	tmps := [...]PReg{RegTmpA, RegTmpB}
	var db, ub [maxOperands]*PReg
	for i, in := range a.p.Code {
		remap[i] = len(out)
		defs, uses := regOperands(in, db[:0], ub[:0])
		ti := 0
		var post *Instr // the store of a spilled destination
		for _, u := range uses {
			if !isVirtual(*u) {
				continue
			}
			iv := &a.ivals[*u-NumRegs]
			if iv.vreg == 0 {
				*u = RegTmpA
				continue
			}
			if iv.phys != NoPReg {
				*u = iv.phys
				continue
			}
			if ti >= len(tmps) {
				a.err = fmt.Errorf("cg: instruction needs more than two spilled sources")
				return
			}
			t := tmps[ti]
			ti++
			out = append(out, spillMem(iv, false, t))
			*u = t
		}
		var sb [4]spilledDef
		spilled := sb[:0]
		for j, d := range defs {
			if !isVirtual(*d) {
				continue
			}
			iv := &a.ivals[*d-NumRegs]
			if iv.vreg == 0 {
				*d = RegTmpA
				continue
			}
			if iv.phys != NoPReg {
				*d = iv.phys
				continue
			}
			if post != nil && (in.Op != IMem || in.Store) {
				a.err = fmt.Errorf("cg: instruction defines more than one spilled register")
				return
			}
			*d = RegTmpA
			post = spillMem(iv, true, RegTmpA)
			spilled = append(spilled, spilledDef{j, iv})
		}
		if len(spilled) < 2 {
			out = append(out, in)
			if post != nil {
				out = append(out, post)
			}
			continue
		}
		// A load burst with several spilled words writes them all to one
		// temp; each is then read again alone, into a temp the address
		// register is not, and stored to its slot.
		tmp := RegTmpA
		if in.Addr == RegTmpA {
			tmp = RegTmpB
		}
		for _, sp := range spilled {
			*defs[sp.j] = tmp
		}
		out = append(out, in)
		for _, sp := range spilled {
			out = append(out, &Instr{Op: IMem, Level: in.Level, Addr: in.Addr, AddrOff: in.AddrOff + uint32(4*sp.j),
				NWords: 1, Data: []PReg{tmp}, Class: in.Class, Comment: fmt.Sprintf("reload v%d", int(sp.iv.vreg))},
				spillMem(sp.iv, true, tmp))
		}
	}
	remap[len(a.p.Code)] = len(out)
	for _, in := range out {
		switch in.Op {
		case IBr, IBcc, IBccImm:
			in.Target = remap[in.Target]
		}
	}
	a.p.Code = out
	a.p.StackBytes = a.frame.Bytes()
}
