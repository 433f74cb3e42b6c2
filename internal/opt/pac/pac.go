// Package pac implements Packet Access Combining (§5.3.1): multiple
// protocol-field accesses through the same packet handle are merged into a
// single wide memory access, dramatically cutting per-packet DRAM (packet
// data) and SRAM (metadata) references — the paper's single most effective
// optimization.
//
// Combining follows the paper's criteria: equal packet_handles, byte
// ranges within one memory instruction's maximum width, a dominance
// relationship between the accesses, and no violated data dependencies.
// This implementation combines within basic blocks, where the dominance
// and post-dominance requirements hold trivially and dependence checking
// is a linear scan; after inlining (-O2) the hot packet-access sequences
// of real applications sit in straight-line code, which is where the
// paper's combining opportunities come from. Same-handle accesses keep
// their cluster open across non-overlapping stores; any potentially
// aliasing access (a different handle can denote the same packet) flushes.
//
// A combined load becomes one raw wide OpPktLoad into a run of word
// registers followed by shift/mask extraction of each field; a combined
// store becomes an optional read-modify-write wide load, per-field
// insertion arithmetic, and one raw wide OpPktStore. Extraction and
// insertion cost a few single-cycle ALU instructions, the trade the paper
// makes to save memory bandwidth.
package pac

import (
	"slices"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// Width caps per memory level: packet data lives in DRAM (64-byte bursts),
// metadata in SRAM (32-byte bursts) — §3.2.
const (
	MaxPktCombineBytes    = 64
	MaxMetaCombineBytes   = 32
	MaxGlobalCombineBytes = 32
)

// Stats reports what PAC did.
type Stats struct {
	LoadClusters    int // clusters of >=2 loads combined
	StoreClusters   int
	AccessesRemoved int // narrow accesses eliminated
}

// Run applies PAC to every function in the program. Each is taken for
// writing (ir.Program.Edit): the pipeline runs PAC only next to the scalar
// optimizer, which writes every function anyway. One scratch serves every
// block of every function.
func Run(p *ir.Program) *Stats {
	st := &Stats{}
	var s scratch
	for _, f := range p.Funcs {
		fn := p.Edit(f.Name)
		for _, b := range fn.Blocks {
			s.combineBlock(fn, b, st)
		}
	}
	return st
}

type accKind uint8

const (
	pktLoad accKind = iota
	pktStore
	metaLoad
	metaStore
	globalLoad
)

func (k accKind) isLoad() bool { return k == pktLoad || k == metaLoad || k == globalLoad }
func (k accKind) isMeta() bool { return k == metaLoad || k == metaStore }

// domain indexes storeSink: 0 for packet data, 1 for metadata.
func (k accKind) domain() int {
	if k.isMeta() {
		return 1
	}
	return 0
}

func (k accKind) maxBytes() int {
	if k == globalLoad {
		return MaxGlobalCombineBytes
	}
	if k.isMeta() {
		return MaxMetaCombineBytes
	}
	return MaxPktCombineBytes
}

type access struct {
	idx int
	in  *ir.Instr
}

type cluster struct {
	kind   accKind
	handle ir.Reg // packet handle, or the index register for global loads
	global *types.Global
	accs   []access
}

// span returns the byte range [lo,hi) covered by the cluster's accesses.
func (c *cluster) span() (lo, hi int) {
	lo, hi = 1<<30, 0
	for _, a := range c.accs {
		var flo, fhi int
		if c.kind == globalLoad {
			flo, fhi = int(a.in.Off), int(a.in.Off)+4
		} else {
			flo, fhi = a.in.Field.ByteSpan()
		}
		lo, hi = min(lo, flo), max(hi, fhi)
	}
	return lo, hi
}

// words returns the word-aligned range the cluster's burst moves: its
// first byte and its width in bytes.
func (c *cluster) words() (wlo, width int) {
	wlo, whi := types.WordSpan(c.span())
	return wlo, whi - wlo
}

type rewrite struct {
	insertAt int // instruction index the sequence replaces/precedes
	seq      []*ir.Instr
}

// openKey names an open cluster: an access kind and the handle's alias
// base for packet and metadata accesses, or the global and its index
// register for global loads.
type openKey struct {
	kind   accKind
	global string
	reg    ir.Reg
}

// openCluster is one entry of the open-cluster table. A block holds a few
// open clusters at a time, so the table is a list searched by key.
type openCluster struct {
	key openKey
	c   *cluster
}

// scratch is the storage one Run keeps for all its blocks. Everything in
// it is back in its idle state when combineBlock returns: alias maps every
// register to itself, removed and inserts are empty, and the cluster
// records are free for the next block.
type scratch struct {
	f *ir.Func
	b *ir.Block

	// alias holds each handle register's aliasing base, the handle a chain
	// of handle moves copies (a register with none is its own base), by
	// register; set lists the registers the current block gave one, to
	// reset at its end. packet_decap, packet_encap, packet_copy and
	// packet_create each start a new base.
	alias []ir.Reg
	set   []ir.Reg
	open  []openCluster
	done  []*cluster
	// A flushed store cluster's wide store sinks to its last member's
	// index, which may be *after* a store member's original position. A
	// later load must therefore never hoist above that sink point (by
	// joining a load cluster whose first access precedes it), or it would
	// read the pre-store memory. storeSink tracks the sink high-water mark
	// per domain (accKind.domain).
	storeSink [2]int
	// Cluster records, carved in chunks and reused block to block together
	// with their accs; used counts the ones the current block holds.
	clusters []*cluster
	used     int
	// The rewrite: by instruction index, whether the access there is
	// folded into a combination, and the sequence inserted before it.
	removed []bool
	inserts [][]*ir.Instr
}

// newCluster carves an empty cluster record.
func (s *scratch) newCluster(kind accKind, handle ir.Reg, g *types.Global) *cluster {
	if s.used == len(s.clusters) {
		chunk := make([]cluster, 16)
		for i := range chunk {
			s.clusters = append(s.clusters, &chunk[i])
		}
	}
	c := s.clusters[s.used]
	s.used++
	c.kind, c.handle, c.global, c.accs = kind, handle, g, c.accs[:0]
	return c
}

func (s *scratch) resolve(r ir.Reg) ir.Reg {
	if r < 0 || int(r) >= len(s.alias) {
		return r
	}
	return s.alias[r]
}

func (s *scratch) setAlias(r, base ir.Reg) {
	s.alias[r] = base
	s.set = append(s.set, r)
}

func (s *scratch) isHandle(r ir.Reg) bool {
	return r != ir.NoReg && int(r) < len(s.f.RegClasses) && s.f.RegClasses[r] == ir.ClassHandle
}

func (s *scratch) flush(c *cluster) {
	if c != nil && len(c.accs) >= 2 {
		if !c.kind.isLoad() {
			d := c.kind.domain()
			s.storeSink[d] = max(s.storeSink[d], c.accs[len(c.accs)-1].idx)
		}
		s.done = append(s.done, c)
	}
}

func (s *scratch) flushAll() {
	for _, o := range s.open {
		s.flush(o.c)
	}
	s.open = s.open[:0]
}

func (s *scratch) flushWhere(pred func(*cluster) bool) {
	kept := s.open[:0]
	for _, o := range s.open {
		if pred(o.c) {
			s.flush(o.c)
		} else {
			kept = append(kept, o)
		}
	}
	s.open = kept
}

// lookup returns the open cluster under k, or nil.
func (s *scratch) lookup(k openKey) *cluster {
	for _, o := range s.open {
		if o.key == k {
			return o.c
		}
	}
	return nil
}

// put makes c the open cluster under k, or closes k's entry when c is nil.
func (s *scratch) put(k openKey, c *cluster) {
	for i, o := range s.open {
		if o.key == k {
			if c == nil {
				s.open = slices.Delete(s.open, i, i+1)
			} else {
				s.open[i].c = c
			}
			return
		}
	}
	if c != nil {
		s.open = append(s.open, openCluster{k, c})
	}
}

// killDefs flushes clusters whose pending combination an instruction's
// definitions invalidate: the cluster's handle / index register, or a
// buffered store value.
func (s *scratch) killDefs(in *ir.Instr) {
	for _, d := range in.Dst {
		s.flushWhere(func(c *cluster) bool {
			if c.handle == d {
				return true
			}
			if !c.kind.isLoad() {
				for _, a := range c.accs {
					if a.in.Args[1] == d {
						return true
					}
				}
			}
			return false
		})
	}
}

// begin readies s for b of f.
func (s *scratch) begin(f *ir.Func, b *ir.Block) {
	s.f, s.b = f, b
	s.alias = slices.Grow(s.alias, max(0, f.NumRegs-len(s.alias)))
	for r := len(s.alias); r < f.NumRegs; r++ {
		s.alias = append(s.alias, ir.Reg(r))
	}
	s.done = s.done[:0]
	s.storeSink = [2]int{}
	s.used = 0
}

// end returns s to its idle state.
func (s *scratch) end() {
	for _, r := range s.set {
		s.alias[r] = r
	}
	s.set = s.set[:0]
}

// combineBlock combines the accesses of block b of f, adding what it did
// to st.
func (s *scratch) combineBlock(f *ir.Func, b *ir.Block, st *Stats) {
	s.begin(f, b)
	defer s.end()

	for idx, in := range b.Instrs {
		switch in.Op {
		case ir.OpMov:
			if len(in.Dst) == 1 && s.isHandle(in.Dst[0]) && len(in.Args) == 1 {
				s.killDefs(in)
				s.setAlias(in.Dst[0], s.resolve(in.Args[0]))
				continue
			}
		case ir.OpDecap, ir.OpEncap:
			s.killDefs(in)
			s.setAlias(in.Dst[0], in.Dst[0])
			s.flushAll()
			continue
		case ir.OpPktCopy, ir.OpPktCreate:
			s.killDefs(in)
			if len(in.Dst) == 1 {
				s.setAlias(in.Dst[0], in.Dst[0])
			}
			continue
		case ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
			if in.Field == nil || in.Field.Bits > 32 {
				s.flushAll() // raw access: already combined or unknown
				continue
			}
			kind := kindOf(in)
			h := s.resolve(in.Args[0])
			// Dependence maintenance. A load flushes store clusters whose
			// buffered (not-yet-written) range it may read: the combined
			// store sinks to the last access, so an intervening read of
			// an already-buffered field would miss the pending value.
			// A store does NOT flush load clusters — existing members
			// read at or before their original positions; the threat is
			// only to future joins, which safeToJoin rejects.
			if kind.isLoad() {
				s.flushWhere(func(c *cluster) bool {
					if c.kind == globalLoad || c.kind.isMeta() != kind.isMeta() || c.kind.isLoad() {
						return false
					}
					if c.handle != h {
						return true // possibly the same packet at another head
					}
					return in.Field.Overlaps(c.span())
				})
			}
			key := openKey{kind: kind, reg: h}
			c := s.lookup(key)
			// Never hoist a load above a sunk combined store: joining a
			// cluster whose first access precedes the domain's store-sink
			// high-water mark would move this read over that wide store.
			if c != nil && kind.isLoad() && c.accs[0].idx < s.storeSink[kind.domain()] {
				s.flush(c)
				c = nil
				s.put(key, nil)
			}
			if c != nil && len(c.accs) > 0 && !s.safeToJoin(c, idx, in, kind) {
				s.flush(c)
				c = nil
				s.put(key, nil)
			}
			if c == nil {
				c = s.newCluster(kind, h, nil)
				s.put(key, c)
			}
			// Width bound: if adding this access exceeds the memory
			// instruction width, flush and restart the cluster.
			c.accs = append(c.accs, access{idx: idx, in: in})
			if _, width := c.words(); width > c.kind.maxBytes() {
				c.accs = c.accs[:len(c.accs)-1]
				s.flush(c)
				nc := s.newCluster(kind, h, nil)
				nc.accs = append(nc.accs, access{idx: idx, in: in})
				s.put(key, nc)
			}
			s.killDefs(in)
			continue
		case ir.OpCall, ir.OpChanPut, ir.OpPktDrop,
			ir.OpAddTail, ir.OpRemoveTail, ir.OpLockAcquire, ir.OpLockRelease,
			ir.OpCacheFlush, ir.OpCacheFill, ir.OpCacheLookup:
			s.flushAll()
		case ir.OpLoad:
			if len(in.Dst) != 1 {
				s.flushAll()
				continue
			}
			ireg := ir.NoReg
			if len(in.Args) > 0 {
				ireg = in.Args[0]
			}
			key := openKey{kind: globalLoad, global: in.Global.Name, reg: ireg}
			c := s.lookup(key)
			if c != nil && len(c.accs) > 0 && !safeToJoinGlobal(b, c, idx, in) {
				s.flush(c)
				c = nil
				s.put(key, nil)
			}
			if c == nil {
				c = s.newCluster(globalLoad, ireg, in.Global)
				s.put(key, c)
			}
			c.accs = append(c.accs, access{idx: idx, in: in})
			if _, width := c.words(); width > c.kind.maxBytes() {
				c.accs = c.accs[:len(c.accs)-1]
				s.flush(c)
				nc := s.newCluster(globalLoad, ireg, in.Global)
				nc.accs = append(nc.accs, access{idx: idx, in: in})
				s.put(key, nc)
			}
			s.killDefs(in)
			continue
		case ir.OpStore:
			// A store to global G flushes G's load clusters (conservative:
			// any offset); other globals never alias.
			s.flushWhere(func(c *cluster) bool {
				return c.kind == globalLoad && c.global == in.Global
			})
		}
		// Register kills: redefining a cluster's handle or a buffered
		// store value invalidates the pending combination.
		s.killDefs(in)
	}
	s.flushAll()

	if len(s.done) == 0 {
		return
	}
	// Clusters reach done in flush order, not program order; rewrite in
	// program order (by first access, which no two clusters share) so the
	// registers the combinations allocate are numbered deterministically
	// (compile output must be byte-stable for the incremental-vs-cold
	// differential).
	done := s.done
	slices.SortFunc(done, func(x, y *cluster) int {
		return x.accs[0].idx - y.accs[0].idx
	})
	// Build rewrites.
	n := len(b.Instrs)
	s.removed = resize(s.removed, n)
	s.inserts = resize(s.inserts, n)
	size := n
	for _, c := range done {
		var rw rewrite
		if c.kind == globalLoad {
			rw = combineGlobalLoads(f, c)
			st.LoadClusters++
		} else if c.kind.isLoad() {
			rw = combineLoads(f, c)
			st.LoadClusters++
		} else {
			rw = combineStores(f, c)
			st.StoreClusters++
		}
		st.AccessesRemoved += len(c.accs) - 1
		for _, a := range c.accs {
			s.removed[a.idx] = true
		}
		size += len(rw.seq) - len(c.accs)
		if s.inserts[rw.insertAt] == nil {
			s.inserts[rw.insertAt] = rw.seq
		} else {
			s.inserts[rw.insertAt] = append(s.inserts[rw.insertAt], rw.seq...)
		}
	}
	out := make([]*ir.Instr, 0, size)
	for idx, in := range b.Instrs {
		out = append(out, s.inserts[idx]...)
		if !s.removed[idx] {
			out = append(out, in)
		}
	}
	clear(s.removed)
	clear(s.inserts)
	b.Instrs = out
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// safeToJoin checks the motion-range dependences for adding access `in`
// (at index idx) to cluster c:
//
//   - load clusters hoist the access to the first access's position, so no
//     instruction in (first, idx) may define or use the new access's
//     destination, and no same-handle field store in that range may
//     overlap the new access's byte range (the hoisted read would see the
//     pre-store value);
//   - store clusters sink earlier stores to this position, so no
//     instruction in (prev, idx) may redefine any buffered value register
//     or the handle (checked pairwise: gaps tile the whole motion range).
func (s *scratch) safeToJoin(c *cluster, idx int, in *ir.Instr, kind accKind) bool {
	b := s.b
	if kind.isLoad() {
		first := c.accs[0].idx
		dst := in.Dst[0]
		for i := first + 1; i < idx; i++ {
			mid := b.Instrs[i]
			for _, d := range mid.Dst {
				if d == dst {
					return false
				}
			}
			for _, u := range mid.Args {
				if u == dst {
					return false
				}
			}
			if (mid.Op == ir.OpPktStore || mid.Op == ir.OpMetaStore) &&
				(mid.Op == ir.OpMetaStore) == kind.isMeta() {
				if mid.Field == nil || s.resolve(mid.Args[0]) != c.handle {
					return false // raw or possibly-aliasing store in range
				}
				if in.Field.Overlaps(mid.Field.ByteSpan()) {
					return false
				}
			}
		}
		return true
	}
	prev := c.accs[len(c.accs)-1].idx
	for i := prev + 1; i < idx; i++ {
		mid := b.Instrs[i]
		for _, d := range mid.Dst {
			if d == c.handle {
				return false
			}
			for _, a := range c.accs {
				if a.in.Args[1] == d {
					return false
				}
			}
		}
	}
	return true
}

// safeToJoinGlobal checks motion-range dependences for hoisting a global
// load to the cluster's first access: nothing in (first, idx) may define
// or use the load's destination, define the index register, or store to
// the same global.
func safeToJoinGlobal(b *ir.Block, c *cluster, idx int, in *ir.Instr) bool {
	first := c.accs[0].idx
	dst := in.Dst[0]
	for i := first + 1; i < idx; i++ {
		mid := b.Instrs[i]
		for _, d := range mid.Dst {
			if d == dst || (c.handle != ir.NoReg && d == c.handle) {
				return false
			}
		}
		for _, u := range mid.Args {
			if u == dst {
				return false
			}
		}
		if mid.Op == ir.OpStore && mid.Global == c.global {
			return false
		}
	}
	return true
}

// combineGlobalLoads merges word loads of one global (same index register,
// nearby constant offsets) into a single wide burst; each original load
// becomes a register copy. Gap words land in scratch registers that DCE
// removes if unused.
func combineGlobalLoads(f *ir.Func, c *cluster) rewrite {
	wlo, width := c.words()
	words := make([]ir.Reg, width/4)
	for i := range words {
		words[i] = f.NewReg(ir.ClassWord)
	}
	first := c.accs[0].in
	args := []ir.Reg{ir.NoReg}
	if c.handle != ir.NoReg {
		args[0] = c.handle
	}
	wide := &ir.Instr{
		Op:     ir.OpLoad,
		Pos:    first.Pos,
		Global: c.global,
		Off:    int32(wlo),
		Width:  width,
		Dst:    words,
		Args:   args,
	}
	seq := []*ir.Instr{wide}
	for _, a := range c.accs {
		wi := (int(a.in.Off) - wlo) / 4
		seq = append(seq, &ir.Instr{Op: ir.OpMov, Pos: a.in.Pos,
			Dst: []ir.Reg{a.in.Dst[0]}, Args: []ir.Reg{words[wi]}})
	}
	return rewrite{insertAt: c.accs[0].idx, seq: seq}
}

func kindOf(in *ir.Instr) accKind {
	switch in.Op {
	case ir.OpPktLoad:
		return pktLoad
	case ir.OpPktStore:
		return pktStore
	case ir.OpMetaLoad:
		return metaLoad
	}
	return metaStore
}

// combineLoads produces one wide raw load plus per-field extraction,
// inserted at the first access.
func combineLoads(f *ir.Func, c *cluster) rewrite {
	wlo, width := c.words()
	words := make([]ir.Reg, width/4)
	for i := range words {
		words[i] = f.NewReg(ir.ClassWord)
	}
	wide := &ir.Instr{
		Op:        rawLoadOp(c.kind),
		Pos:       c.accs[0].in.Pos,
		Dst:       words,
		Args:      []ir.Reg{c.handle},
		Off:       int32(wlo),
		Width:     width,
		StaticOff: ir.UnknownOff,
	}
	seq := []*ir.Instr{wide}
	for _, a := range c.accs {
		seq = append(seq, extractField(f, a.in, words, wlo)...)
	}
	return rewrite{insertAt: c.accs[0].idx, seq: seq}
}

// extractField emits shift/mask code producing a.in's original destination
// from the loaded word registers.
func extractField(f *ir.Func, orig *ir.Instr, words []ir.Reg, wlo int) []*ir.Instr {
	dst := orig.Dst[0]
	var seq []*ir.Instr
	emit := func(op ir.Op, d ir.Reg, args ...ir.Reg) {
		seq = append(seq, &ir.Instr{Op: op, Pos: orig.Pos, Dst: []ir.Reg{d}, Args: args})
	}
	konst := func(v uint32) ir.Reg {
		r := f.NewReg(ir.ClassWord)
		seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: orig.Pos, Dst: []ir.Reg{r}, Imm: uint64(v)})
		return r
	}
	pl := orig.Field.Place(wlo)
	if pl.N == 1 {
		p := pl.Parts[0]
		cur := words[p.Word]
		if p.Shift > 0 {
			t := f.NewReg(ir.ClassWord)
			emit(ir.OpShrU, t, cur, konst(uint32(p.Shift)))
			cur = t
		}
		if p.Bits < 32 {
			emit(ir.OpAnd, dst, cur, konst(types.BitMask(p.Bits)))
		} else {
			emit(ir.OpMov, dst, cur)
		}
		return seq
	}
	// The upper part, masked and moved above the lower; the lower part,
	// shifted down to the bottom of the value.
	hi, lo := pl.Parts[0], pl.Parts[1]
	hiPart := f.NewReg(ir.ClassWord)
	emit(ir.OpAnd, hiPart, words[hi.Word], konst(types.BitMask(hi.Bits)))
	hiShifted := f.NewReg(ir.ClassWord)
	emit(ir.OpShl, hiShifted, hiPart, konst(uint32(hi.Low)))
	loPart := f.NewReg(ir.ClassWord)
	emit(ir.OpShrU, loPart, words[lo.Word], konst(uint32(lo.Shift)))
	emit(ir.OpOr, dst, hiShifted, loPart)
	return seq
}

// combineStores produces (optionally) a wide read-modify-write load,
// per-field insertion arithmetic and one wide raw store, inserted at the
// last access so every stored value is available. The read is left out
// when the stored fields' parts fill every word of the burst.
func combineStores(f *ir.Func, c *cluster) rewrite {
	wlo, width := c.words()
	words := make([]ir.Reg, width/4)
	var seq []*ir.Instr
	pos := c.accs[len(c.accs)-1].in.Pos

	cov := make([]uint32, len(words))
	for _, a := range c.accs {
		pl := a.in.Field.Place(wlo)
		for _, p := range pl.Parts[:pl.N] {
			cov[p.Word] |= p.Mask()
		}
	}
	if !slices.ContainsFunc(cov, func(w uint32) bool { return w != ^uint32(0) }) {
		for i := range words {
			r := f.NewReg(ir.ClassWord)
			words[i] = r
			seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: pos, Dst: []ir.Reg{r}})
		}
	} else {
		// Read-modify-write: fetch the range first.
		for i := range words {
			words[i] = f.NewReg(ir.ClassWord)
		}
		seq = append(seq, &ir.Instr{
			Op:        rawLoadOp(c.kind),
			Pos:       pos,
			Dst:       append([]ir.Reg(nil), words...),
			Args:      []ir.Reg{c.handle},
			Off:       int32(wlo),
			Width:     width,
			StaticOff: ir.UnknownOff,
		})
	}
	// Apply insertions in program order so later stores win overlaps.
	for _, a := range c.accs {
		ins, nw := insertField(f, a.in, words, wlo)
		seq = append(seq, ins...)
		words = nw
	}
	store := &ir.Instr{
		Op:        rawStoreOp(c.kind),
		Pos:       pos,
		Args:      append([]ir.Reg{c.handle}, words...),
		Off:       int32(wlo),
		Width:     width,
		StaticOff: ir.UnknownOff,
	}
	seq = append(seq, store)
	return rewrite{insertAt: c.accs[len(c.accs)-1].idx, seq: seq}
}

// insertField emits code updating the word registers with one stored
// field, returning the updated register slice (modified words get fresh
// registers to keep the IR in definition-before-use form).
func insertField(f *ir.Func, orig *ir.Instr, words []ir.Reg, wlo int) ([]*ir.Instr, []ir.Reg) {
	val := orig.Args[1]
	var seq []*ir.Instr
	emit := func(op ir.Op, d ir.Reg, args ...ir.Reg) {
		seq = append(seq, &ir.Instr{Op: op, Pos: orig.Pos, Dst: []ir.Reg{d}, Args: args})
	}
	konst := func(v uint32) ir.Reg {
		r := f.NewReg(ir.ClassWord)
		seq = append(seq, &ir.Instr{Op: ir.OpConst, Pos: orig.Pos, Dst: []ir.Reg{r}, Imm: uint64(v)})
		return r
	}
	out := append([]ir.Reg(nil), words...)
	pl := orig.Field.Place(wlo)
	for _, p := range pl.Parts[:pl.N] {
		// The part's bits of the value, at the bottom of src.
		src := val
		if p.Low > 0 {
			src = f.NewReg(ir.ClassWord)
			emit(ir.OpShrU, src, val, konst(uint32(p.Low)))
		}
		vmask := f.NewReg(ir.ClassWord)
		emit(ir.OpAnd, vmask, src, konst(types.BitMask(p.Bits)))
		vsh := vmask
		if p.Shift > 0 {
			vsh = f.NewReg(ir.ClassWord)
			emit(ir.OpShl, vsh, vmask, konst(uint32(p.Shift)))
		}
		cleared := f.NewReg(ir.ClassWord)
		emit(ir.OpAnd, cleared, out[p.Word], konst(^p.Mask()))
		nw := f.NewReg(ir.ClassWord)
		emit(ir.OpOr, nw, cleared, vsh)
		out[p.Word] = nw
	}
	return seq, out
}

func rawLoadOp(k accKind) ir.Op {
	if k.isMeta() {
		return ir.OpMetaLoad
	}
	return ir.OpPktLoad
}

func rawStoreOp(k accKind) ir.Op {
	if k.isMeta() {
		return ir.OpMetaStore
	}
	return ir.OpPktStore
}
