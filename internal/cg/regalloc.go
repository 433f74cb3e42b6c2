package cg

import (
	"fmt"
	"sort"

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
	vreg       PReg
	start, end int
	bank       int
	phys       PReg // NoPReg if spilled
	slot       int  // spill slot index, -1 otherwise
}

type allocator struct {
	p     *Program
	nvreg int
	bank  map[PReg]int
	ivals map[PReg]*interval
	err   error

	frame *stackalloc.Frame
}

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
	a.bank = map[PReg]int{}
	balance := 0
	get := func(v PReg) (int, bool) {
		b, ok := a.bank[v]
		return b, ok
	}
	set := func(v PReg, b int) { a.bank[v] = b }

	var out []*Instr
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
				t := PReg(NumRegs + a.nvreg)
				a.nvreg++
				set(t, 1-ba)
				out = append(out, &Instr{Op: IALU, ALU: AMov, Dst: t, SrcA: in.SrcB,
					Comment: "bank-conflict copy"})
				in.SrcB = t
			}
		} else if twoSrc && isVirtual(in.SrcA) && in.SrcA == in.SrcB {
			// Same register on both sides: duplicate through a copy.
			t := PReg(NumRegs + a.nvreg)
			a.nvreg++
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
	// Leaders.
	leader := make([]bool, n+1)
	leader[0] = true
	for i, in := range code {
		switch in.Op {
		case IBr, IBcc, IBccImm:
			if in.Target <= n {
				leader[in.Target] = true
			}
			if i+1 <= n {
				leader[i+1] = true
			}
		}
	}
	var starts []int
	for i := 0; i < n; i++ {
		if leader[i] {
			starts = append(starts, i)
		}
	}
	blockOf := make([]int, n)
	ends := make([]int, len(starts))
	for bi, s := range starts {
		e := n
		if bi+1 < len(starts) {
			e = starts[bi+1]
		}
		ends[bi] = e
		for i := s; i < e; i++ {
			blockOf[i] = bi
		}
	}
	succs := make([][]int, len(starts))
	for bi, s := range starts {
		e := ends[bi]
		if e == s {
			continue
		}
		last := code[e-1]
		switch last.Op {
		case IBr:
			succs[bi] = append(succs[bi], blockOf[min(last.Target, n-1)])
		case IBcc, IBccImm:
			succs[bi] = append(succs[bi], blockOf[min(last.Target, n-1)])
			if e < n {
				succs[bi] = append(succs[bi], blockOf[e])
			}
		case IHalt:
		default:
			if e < n {
				succs[bi] = append(succs[bi], blockOf[e])
			}
		}
	}
	// Block gen/kill over vreg indices, solved by the shared bitset solver.
	w := (a.nvreg + 63) >> 6
	row := func(sets []uint64, bi int) analysis.Bits { return sets[bi*w : (bi+1)*w] }
	gen, kill := make([]uint64, len(starts)*w), make([]uint64, len(starts)*w)
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
	liveIn, liveOut := analysis.SolveBackward(succs, gen, kill)
	// Hull intervals.
	a.ivals = map[PReg]*interval{}
	touch := func(v PReg, i int) {
		iv := a.ivals[v]
		if iv == nil {
			iv = &interval{vreg: v, start: i, end: i, bank: a.bank[v], slot: -1, phys: NoPReg}
			a.ivals[v] = iv
		}
		if i < iv.start {
			iv.start = i
		}
		if i > iv.end {
			iv.end = i
		}
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// scan performs per-bank linear scan. Registers written by multi-word
// memory bursts, ring gets or CAM lookups cannot be spilled (one
// instruction would need several assembler temps), so the victim search
// skips them.
func (a *allocator) scan() error {
	a.frame = stackalloc.NewFrame(stackalloc.DefaultConfig())
	unspillable := map[PReg]bool{}
	var db, ub [maxOperands]*PReg
	for _, in := range a.p.Code {
		defs, _ := regOperands(in, db[:0], ub[:0])
		if len(defs) > 1 {
			for _, d := range defs {
				if isVirtual(*d) {
					unspillable[*d] = true
				}
			}
		}
	}
	var ivals []*interval
	for _, iv := range a.ivals {
		ivals = append(ivals, iv)
	}
	sort.Slice(ivals, func(i, j int) bool {
		if ivals[i].start != ivals[j].start {
			return ivals[i].start < ivals[j].start
		}
		return ivals[i].vreg < ivals[j].vreg
	})
	free := [2][]PReg{}
	for r := PReg(0); r < regsPerBankA; r++ {
		free[0] = append(free[0], r)
	}
	for r := PReg(BankSize); r < BankSize+regsPerBankB; r++ {
		free[1] = append(free[1], r)
	}
	var active [2][]*interval
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
			free[b] = free[b][1:]
			active[b] = append(active[b], iv)
			continue
		}
		// Spill the active interval with the furthest end (or this one),
		// skipping unspillable burst registers.
		var victim *interval
		if !unspillable[iv.vreg] {
			victim = iv
		}
		for _, cand := range active[b] {
			if unspillable[cand.vreg] {
				continue
			}
			if victim == nil || cand.end > victim.end {
				victim = cand
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

// rewrite replaces vregs with physical registers, inserting spill loads
// and stores through the assembler temps.
func (a *allocator) rewrite() {
	var out []*Instr
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
	var db, ub [maxOperands]*PReg
	for i, in := range a.p.Code {
		remap[i] = len(out)
		defs, uses := regOperands(in, db[:0], ub[:0])
		tmps := []PReg{RegTmpA, RegTmpB}
		ti := 0
		var post []*Instr
		for _, u := range uses {
			if !isVirtual(*u) {
				continue
			}
			iv := a.ivals[*u]
			if iv == nil {
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
		spilledDefs := 0
		for _, d := range defs {
			if !isVirtual(*d) {
				continue
			}
			iv := a.ivals[*d]
			if iv == nil {
				*d = RegTmpA
				continue
			}
			if iv.phys != NoPReg {
				*d = iv.phys
				continue
			}
			if spilledDefs > 0 {
				a.err = fmt.Errorf("cg: instruction defines more than one spilled register")
				return
			}
			spilledDefs++
			*d = RegTmpA
			post = append(post, spillMem(iv, true, RegTmpA))
		}
		out = append(out, in)
		out = append(out, post...)
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
