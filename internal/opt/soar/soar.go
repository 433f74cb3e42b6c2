// Package soar implements Static Offset and Alignment Resolution
// (§5.3.2): a whole-program dataflow analysis that determines, where
// possible, the value of each packet handle's head_ptr (its offset from
// the packet start) and its alignment guarantee at every packet access and
// encapsulation site.
//
// The analysis follows the paper's SOD/SAD lattices (Figures 10 and 11):
// offsets are TOP (unvisited) / a known constant / BOTTOM (⊥offset), and
// alignments form the chain quadword > doubleword > word > short > byte.
// Offsets propagate forward through packet_encap/packet_decap with
// monotone flow functions and join at control-flow merges; handles flowing
// across communication channels join over every producer's put, giving the
// inter-procedural part of the analysis. Handles born at packet_create and
// packet_copy are seeded directly (create = offset 0; copy = the source's
// value), which subsumes the backward passes of the paper's steps 4 and 7
// for programs whose copies/creates have resolvable sources.
//
// Results are written into the IR: Instr.StaticOff and Instr.StaticAlign
// on every OpPktLoad/OpPktStore/OpEncap/OpDecap. The code generator emits
// the cheap fixed-offset access sequence when StaticOff is known, the
// fixed-alignment sequence when only StaticAlign is known, and the full
// dynamic sequence otherwise; PHR uses the encap/decap annotations to
// delete head_ptr maintenance entirely.
package soar

import (
	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// state enumerates lattice states for the offset component.
type state uint8

const (
	top state = iota // unvisited
	known
	bottom
)

// lat is the combined SOD+SAD lattice value for one handle, extended with
// a proven lower bound on the offset (min), which stays informative even
// when the exact offset falls to ⊥ (an MPLS label stack is at least
// 14+4 bytes in, however deep it is).
type lat struct {
	st    state
	off   int32
	align int32 // alignment guarantee in bytes (1,2,4,8); valid unless st==top
	min   int32 // lower bound on the offset (0 = no information)
}

// MaxAlign is the strongest alignment tracked (quadword, the alignment of
// packets as delivered by Rx).
const MaxAlign = 8

func pow2Align(n int32) int32 {
	if n == 0 {
		return MaxAlign
	}
	a := int32(1)
	for a < MaxAlign && n%(a*2) == 0 {
		a *= 2
	}
	return a
}

func minAlign(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func knownLat(off int32) lat {
	return lat{st: known, off: off, align: pow2Align(off), min: off}
}

func bottomLat(align int32) lat {
	if align <= 0 {
		align = 1
	}
	return lat{st: bottom, align: align}
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// join implements the control-flow merge of both lattices: offsets join to
// the common constant or ⊥; alignments join to MIN_ALIGNMENT.
func join(a, b lat) lat {
	if a.st == top {
		return b
	}
	if b.st == top {
		return a
	}
	if a.st == known && b.st == known && a.off == b.off {
		return lat{st: known, off: a.off, align: minAlign(a.align, b.align), min: a.off}
	}
	l := bottomLat(minAlign(a.align, b.align))
	l.min = minI32(a.min, b.min)
	return l
}

func equal(a, b lat) bool {
	return a.st == b.st && a.off == b.off && a.align == b.align && a.min == b.min
}

// demuxAlignment returns the provable power-of-two alignment of a
// protocol's header size. Fixed sizes get their exact alignment; dynamic
// demux expressions are analyzed structurally (hlen << 2 is provably
// word-aligned even though its value is unknown).
func demuxAlignment(p *types.Protocol) int32 {
	if p.Demux == nil {
		return pow2Align(int32(p.FixedSize))
	}
	return exprAlignment(p.Demux)
}

func exprAlignment(d *types.Demux) int32 {
	switch {
	case d.Field != nil, d.Y == nil && d.X != nil:
		return 1 // a field's value is unknown; - and ~ keep no alignment
	case d.X == nil:
		return pow2Align(int32(d.Value))
	}
	switch d.Op {
	case token.ADD, token.SUB:
		return minAlign(exprAlignment(d.X), exprAlignment(d.Y))
	case token.SHL:
		if d.Y.X == nil && d.Y.Field == nil {
			a := exprAlignment(d.X) << (d.Y.Value & 31)
			if a > MaxAlign || a <= 0 {
				return MaxAlign
			}
			return a
		}
	case token.MUL:
		return min(exprAlignment(d.X)*exprAlignment(d.Y), MaxAlign)
	}
	return 1
}

// Input is an exported lattice value: the head offset fact for a handle
// entering a PPF or travelling on a channel. The code generator uses these
// to decide whether head_ptr hand-off code is needed at aggregate
// boundaries.
type Input struct {
	Known bool
	Off   int32
	Align int
	Min   int32
}

// Stats summarizes what SOAR resolved, for tests and compilation reports.
type Stats struct {
	Accesses       int // packet loads/stores seen
	ResolvedOffset int // accesses with a static offset
	ResolvedAlign  int // accesses with unknown offset but known alignment > 1
	EncapsResolved int // encap/decap sites with static incoming offset
	EncapsTotal    int

	// ChanInputs is the join over every producer's put for each channel
	// (keyed by qualified channel name).
	ChanInputs map[string]Input
	// EntryInputs is the resolved input fact per PPF (keyed by name).
	EntryInputs map[string]Input
}

// Analyze runs SOAR over the whole program and annotates packet-access and
// encapsulation instructions in place.
func Analyze(p *ir.Program) *Stats {
	return AnalyzeWithEntries(p, nil)
}

// AnalyzeWithEntries runs SOAR seeding specific PPF entry facts in
// addition to the rx entry (used on per-aggregate merged programs, whose
// entries' input offsets come from the whole-program channel analysis).
func AnalyzeWithEntries(p *ir.Program, entries map[string]Input) *Stats {
	a := &analyzer{
		prog:   p,
		inputs: map[string]lat{},
		chans:  map[*types.Channel]lat{},
		notes:  map[*ir.Instr]lat{},
	}
	// Rx delivers packets quadword-aligned at offset 0 (step 2/5 init).
	if p.Types.Entry != nil {
		a.inputs[p.Types.Entry.Name] = lat{st: known, off: 0, align: MaxAlign}
	}
	for name, in := range entries {
		if p.Func(name) == nil {
			continue
		}
		l := bottomLat(int32(in.Align))
		l.min = in.Min
		if in.Known {
			l = lat{st: known, off: in.Off, align: int32(in.Align), min: in.Off}
			if l.align == 0 {
				l.align = pow2Align(in.Off)
			}
		}
		a.inputs[name] = l
	}
	// Inter-procedural fixpoint over PPFs connected by channels. Every
	// PPF's layout is built once, and analyzeFunc's storage is sized for
	// the largest.
	ppfs := p.PPFs()
	layouts := make([]layout, len(ppfs))
	var rows, slots, cells int
	for i, fn := range ppfs {
		l := newLayout(fn)
		layouts[i] = l
		rows, slots = max(rows, len(l.blocks)), max(slots, l.nslots)
		cells = max(cells, len(l.blocks)*l.nslots)
	}
	a.slab, a.seen, a.cur = make([]lat, cells), make([]bool, rows), make([]lat, slots)
	// A PPF analyzed again under the input it was last analyzed under would
	// join every note and channel fact with itself: last[i] is that input
	// (top before the first analysis; an input is never top).
	last := make([]lat, len(ppfs))
	for iter := 0; iter < 64; iter++ {
		changed := false
		for i, fn := range ppfs {
			in, ok := a.inputs[fn.Name]
			if !ok || equal(in, last[i]) {
				continue // unreached so far, or nothing new to learn
			}
			last[i] = in
			if a.analyzeFunc(fn, &layouts[i], in) {
				changed = true
			}
		}
		// Push channel joins to consumers.
		for ch, l := range a.chans {
			if ch.Consumer == "tx" || ch.Consumer == "" {
				continue
			}
			cur, ok := a.inputs[ch.Consumer]
			// A PPF may consume several channels; join them all.
			nl := l
			if ok {
				nl = join(cur, l)
			}
			if !ok || !equal(nl, cur) {
				a.inputs[ch.Consumer] = nl
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Write annotations.
	st := &Stats{ChanInputs: map[string]Input{}, EntryInputs: map[string]Input{}}
	for ch, l := range a.chans {
		st.ChanInputs[ch.Name] = exportLat(l)
	}
	for name, l := range a.inputs {
		st.EntryInputs[name] = exportLat(l)
	}
	// A function is taken for writing (ir.Program.Edit) only when one of its
	// annotations changes: a re-analysis (after PAC, of a merged program
	// after its cleanup) finds most functions already carrying these exact
	// annotations.
	for _, fn := range p.Funcs {
		var w *ir.Func
		for bi, b := range fn.Blocks {
			for ii, in := range b.Instrs {
				var l lat
				switch in.Op {
				case ir.OpPktLoad, ir.OpPktStore:
					st.Accesses++
					l = a.note(in)
					if l.st == known {
						st.ResolvedOffset++
					} else if l.align > 1 {
						st.ResolvedAlign++
					}
				case ir.OpEncap, ir.OpDecap:
					st.EncapsTotal++
					l = a.note(in)
					if l.st == known {
						st.EncapsResolved++
					}
				default:
					continue
				}
				if annotated(in, l) {
					continue
				}
				if w == nil {
					w = p.Edit(fn.Name)
				}
				apply(w.Blocks[bi].Instrs[ii], l)
			}
		}
	}
	return st
}

// note is the joined annotation recorded for in (⊥ when the analysis never
// reached it).
func (a *analyzer) note(in *ir.Instr) lat {
	if l, ok := a.notes[in]; ok {
		return l
	}
	return bottomLat(1)
}

func exportLat(l lat) Input {
	return Input{Known: l.st == known, Off: l.off, Align: int(l.align), Min: l.min}
}

func apply(in *ir.Instr, l lat) {
	if l.st == known {
		in.StaticOff = l.off
	} else {
		in.StaticOff = ir.UnknownOff
	}
	in.StaticAlign = int(l.align)
	in.StaticMin = l.min
}

// annotated reports whether in already carries what apply would write.
func annotated(in *ir.Instr, l lat) bool {
	var want ir.Instr
	apply(&want, l)
	return in.StaticOff == want.StaticOff && in.StaticAlign == want.StaticAlign && in.StaticMin == want.StaticMin
}

type analyzer struct {
	prog   *ir.Program
	inputs map[string]lat         // PPF name -> input handle lattice
	chans  map[*types.Channel]lat // join over producers' puts
	notes  map[*ir.Instr]lat      // per-access/encap annotation (joined)

	// analyzeFunc's storage, sized for the largest PPF and reused by every
	// PPF and fixpoint round: the block entry states (one row of slots per
	// block), which rows hold a state, the state being stepped, and the
	// worklist.
	slab []lat
	seen []bool
	cur  []lat
	work []int
}

// layout numbers what analyzeFunc tracks in one function: the registers
// SOAR can hold a fact for (handle-class registers and the destinations of
// decap, encap, copy and create) as slots, and the blocks as rows.
type layout struct {
	slot   []int32 // register -> slot, or -1 when no fact is ever held
	nslots int
	// blocks are the rows: fn.Blocks when every Block.ID is its position
	// there, as ComputeCFG leaves them. When one is not (a pass dropped a
	// block without ComputeCFG, or a terminator names a block the function
	// does not list), they are the blocks reachable from the entry, and
	// pos numbers them.
	blocks []*ir.Block
	pos    map[*ir.Block]int
}

func newLayout(fn *ir.Func) layout {
	l := layout{slot: make([]int32, len(fn.RegClasses)), blocks: fn.Blocks}
	for r := range l.slot {
		l.slot[r] = -1
	}
	track := func(r ir.Reg) {
		if r >= 0 && int(r) < len(l.slot) && l.slot[r] < 0 {
			l.slot[r] = int32(l.nslots)
			l.nslots++
		}
	}
	for r, c := range fn.RegClasses {
		if c == ir.ClassHandle {
			track(ir.Reg(r))
		}
	}
	for i, p := range fn.Params {
		if fn.ParamClasses[i] == ir.ClassHandle {
			track(p)
		}
	}
	positional := fn.Positioned(fn.Entry)
	for _, b := range fn.Blocks {
		positional = positional && fn.Positioned(b)
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpDecap, ir.OpEncap, ir.OpPktCopy, ir.OpPktCreate:
				track(in.Dst[0])
			}
			for _, s := range in.Blocks {
				positional = positional && fn.Positioned(s)
			}
		}
	}
	if positional {
		return l
	}
	l.blocks = []*ir.Block{fn.Entry}
	l.pos = map[*ir.Block]int{fn.Entry: 0}
	for i := 0; i < len(l.blocks); i++ {
		if l.blocks[i] == nil {
			continue // a missing entry or a nil target: a row, no successors
		}
		t := l.blocks[i].Terminator()
		if t == nil {
			continue
		}
		for _, s := range t.Blocks {
			if _, ok := l.pos[s]; !ok {
				l.pos[s] = len(l.blocks)
				l.blocks = append(l.blocks, s)
			}
		}
	}
	return l
}

// row is b's position among l.blocks.
func (l *layout) row(b *ir.Block) int {
	if l.pos == nil {
		return b.ID
	}
	return l.pos[b]
}

// analyzeFunc runs the intra-procedural forward analysis; returns true if
// any channel fact or note changed. A block's entry state is a row of
// lattice values by slot, top where no fact is held. The worklist is LIFO
// and pushes a block again each time its entry state changes.
func (a *analyzer) analyzeFunc(fn *ir.Func, l *layout, input lat) bool {
	changed := false
	n := l.nslots
	seen, cur := a.seen[:len(l.blocks)], a.cur[:n]
	clear(seen)
	entryOf := func(pos int) []lat { return a.slab[pos*n : (pos+1)*n : (pos+1)*n] }

	e := l.row(fn.Entry)
	init := entryOf(e)
	clear(init)
	for i, p := range fn.Params {
		if fn.ParamClasses[i] == ir.ClassHandle {
			init[l.slot[p]] = input
		}
	}
	seen[e] = true
	work := append(a.work[:0], e)
	for len(work) > 0 {
		pos := work[len(work)-1]
		work = work[:len(work)-1]
		b := l.blocks[pos]
		copy(cur, entryOf(pos))
		for _, in := range b.Instrs {
			if a.step(fn, l, in, cur) {
				changed = true
			}
		}
		t := b.Terminator()
		if t == nil {
			continue
		}
		for _, s := range t.Blocks {
			sp := l.row(s)
			ns := entryOf(sp)
			if !seen[sp] {
				seen[sp] = true
				copy(ns, cur)
				work = append(work, sp)
				continue
			}
			sChanged := false
			for i, v := range cur {
				if v.st == top {
					continue
				}
				nl := join(ns[i], v)
				if !equal(nl, ns[i]) {
					ns[i] = nl
					sChanged = true
				}
			}
			if sChanged {
				work = append(work, sp)
			}
		}
	}
	a.work = work
	return changed
}

// step applies the transfer function of one instruction to the handle
// state and records notes/channel facts. Returns true when a note or
// channel fact changed.
func (a *analyzer) step(fn *ir.Func, l *layout, in *ir.Instr, cur []lat) bool {
	changed := false
	note := func(v lat) {
		old, ok := a.notes[in]
		nl := v
		if ok {
			nl = join(old, v)
		}
		if !ok || !equal(nl, old) {
			a.notes[in] = nl
			changed = true
		}
	}
	// An untracked register, or a slot still top, holds no fact.
	slot := func(r ir.Reg) int32 {
		if r < 0 || int(r) >= len(l.slot) {
			return -1
		}
		return l.slot[r]
	}
	handleLat := func(r ir.Reg) lat {
		if s := slot(r); s >= 0 && cur[s].st != top {
			return cur[s]
		}
		return bottomLat(1)
	}
	set := func(r ir.Reg, v lat) {
		if s := slot(r); s >= 0 {
			cur[s] = v
		}
	}
	switch in.Op {
	case ir.OpMov:
		if fn.RegClasses[in.Dst[0]] == ir.ClassHandle {
			set(in.Dst[0], handleLat(in.Args[0]))
		}
	case ir.OpPktLoad, ir.OpPktStore:
		note(handleLat(in.Args[0]))
	case ir.OpDecap:
		src := handleLat(in.Args[0])
		note(src)
		from := a.prog.Types.ProtoByID[in.Imm]
		var out lat
		switch {
		case src.st == known && from.FixedSize >= 0:
			out = knownLat(src.off + int32(from.FixedSize))
			out.align = pow2Align(out.off)
		default:
			out = bottomLat(minAlign(src.align, demuxAlignment(from)))
			out.min = src.min + int32(from.Size())
		}
		set(in.Dst[0], out)
	case ir.OpEncap:
		src := handleLat(in.Args[0])
		note(src)
		size := in.Proto.Size()
		var out lat
		if src.st == known {
			// The offset may go negative (front growth): the executors
			// keep packet bytes in place and move the head into the
			// buffer headroom, so codegen's BufHeadroom+off addressing
			// stays exact. The host interpreter instead re-bases the
			// packet start on growth, so any other live handle's offset
			// is no longer trustworthy — invalidate them.
			no := src.off - int32(size)
			if no < 0 {
				keep := slot(in.Args[0])
				for s := range cur {
					if int32(s) != keep && cur[s].st != top {
						cur[s] = bottomLat(1)
					}
				}
			}
			out = knownLat(no)
		} else {
			out = bottomLat(minAlign(src.align, pow2Align(int32(size))))
			out.min = src.min - int32(size)
			if out.min < 0 {
				out.min = 0
			}
		}
		set(in.Dst[0], out)
	case ir.OpPktCopy:
		set(in.Dst[0], handleLat(in.Args[0]))
	case ir.OpPktCreate:
		set(in.Dst[0], lat{st: known, off: 0, align: MaxAlign, min: 0})
	case ir.OpChanPut:
		v := handleLat(in.Args[0])
		old, ok := a.chans[in.Chan]
		nl := v
		if ok {
			nl = join(old, v)
		}
		if !ok || !equal(nl, old) {
			a.chans[in.Chan] = nl
			changed = true
		}
	case ir.OpCall:
		// A callee may encap through a passed handle (front growth);
		// conservatively drop facts for handle arguments.
		for _, r := range in.Args {
			if r != ir.NoReg && int(r) < len(fn.RegClasses) && fn.RegClasses[r] == ir.ClassHandle {
				set(r, bottomLat(1))
			}
		}
		if len(in.Dst) > 0 && fn.RegClasses[in.Dst[0]] == ir.ClassHandle {
			set(in.Dst[0], bottomLat(1))
		}
	}
	return changed
}
