// Package phr implements Packet Handling Removal (§5.3.3): eliminating
// packet-handling primitives that program analysis proves unnecessary.
//
// Two eliminations are performed here at the IR level:
//
//   - Metadata localization: after aggregation and inlining, a metadata
//     field whose accesses all fall inside one merged aggregate entry is
//     demoted from an SRAM metadata record slot to a virtual register,
//     removing its SRAM reads and writes entirely. A field read before
//     any write on some path still carries state produced outside (the Rx
//     engine writes rx_port, an upstream aggregate may have written it),
//     so only fields definitely assigned before every use are rewritten.
//
//   - Paired encapsulation elimination: a packet_decap whose resulting
//     handle flows only into field accesses and a matching packet_encap
//     (same protocol, every path, same aggregate) leaves the net head_ptr
//     unchanged; both primitives are deleted and the intermediate
//     accesses are redirected to the outer handle at a fixed extra
//     offset. This is the paper's "paired encapsulation calls" rule.
//
// The third elimination the paper describes — omitting head_ptr update
// code when SOAR resolved the offset statically — is a code-generation
// decision: the code generator consults the SOAR annotations and emits no
// head_ptr maintenance for resolved sites when PHR is enabled.
package phr

import (
	"sort"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// Stats reports PHR's effect.
type Stats struct {
	FieldsLocalized int
	AccessesRemoved int
	PairsEliminated int
}

// Run applies PHR to every ME aggregate's merged entries. The full
// program (prog) supplies the global view needed to prove a metadata
// field local to one aggregate. An entry function is taken for writing
// (ir.Program.Edit) only when it has something to rewrite.
func Run(prog *ir.Program, plan *aggregate.Plan, merged []*aggregate.Merged) *Stats {
	st := &Stats{}
	accessors := fieldAccessors(prog)
	for _, m := range merged {
		if m.Agg.Target != aggregate.TargetME {
			continue
		}
		for _, e := range m.Entries {
			localizeMetadata(prog, plan, m, e, accessors, st)
			eliminatePairs(m.Prog, e.Name, st)
		}
	}
	return st
}

// fieldAccessors maps each metadata field to the set of PPFs touching it
// in the original program. PAC may have combined field accesses into raw
// byte-range accesses (Field == nil) before PHR runs, so a raw access
// counts as touching every metadata field its range overlaps — otherwise a
// field looks private to one PPF while another still reads its SRAM slot
// through a combined access.
func fieldAccessors(prog *ir.Program) map[*types.ProtoField]map[string]bool {
	out := map[*types.ProtoField]map[string]bool{}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpMetaLoad && in.Op != ir.OpMetaStore {
					continue
				}
				for _, fld := range metaFieldsOf(prog, in) {
					s := out[fld]
					if s == nil {
						s = map[string]bool{}
						out[fld] = s
					}
					s[fn.Name] = true
				}
			}
		}
	}
	return out
}

// metaFieldsOf resolves a metadata access to the fields it touches: the
// named field for a field access, every overlapping field for a raw
// (PAC-combined) byte-range access.
func metaFieldsOf(prog *ir.Program, in *ir.Instr) []*types.ProtoField {
	if in.Field != nil {
		return []*types.ProtoField{in.Field}
	}
	var out []*types.ProtoField
	for _, fld := range prog.Types.Metadata.Fields {
		if fld.Overlaps(int(in.Off), int(in.Off)+in.Width) {
			out = append(out, fld)
		}
	}
	return out
}

// localizeMetadata rewrites metadata fields provably private to this
// entry into registers.
func localizeMetadata(prog *ir.Program, plan *aggregate.Plan, m *aggregate.Merged,
	e *aggregate.Entry, accessors map[*types.ProtoField]map[string]bool, st *Stats) {

	member := map[string]bool{}
	for _, f := range m.Agg.PPFs {
		member[f] = true
	}
	// Fields eligible by accessor set: every accessor PPF lies in this
	// aggregate, and within the aggregate only this entry touches it.
	eligible := map[*types.ProtoField]bool{}
	for fld, accs := range accessors {
		ok := true
		for ppf := range accs {
			if !member[ppf] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		inOthers := false
		for _, other := range m.Entries {
			if other == e {
				continue
			}
			if touchesField(prog, m.Func(other), fld) {
				inOthers = true
				break
			}
		}
		if !inOthers && touchesField(prog, m.Func(e), fld) {
			eligible[fld] = true
		}
	}
	if len(eligible) == 0 {
		return
	}
	// Definite-assignment: a field may be localized only if every load is
	// preceded by a store on all paths (otherwise the register would miss
	// state written outside the aggregate, e.g. rx_port from the Rx
	// engine).
	assigned := definitelyAssigned(m.Func(e), eligible)
	var flds []*types.ProtoField
	for fld := range eligible {
		if assigned[fld] {
			flds = append(flds, fld)
		}
	}
	if len(flds) == 0 {
		return
	}
	sort.Slice(flds, func(i, j int) bool { return flds[i].BitOff < flds[j].BitOff })
	fn := m.Prog.Edit(e.Name)
	for _, fld := range flds {
		reg := fn.NewReg(ir.ClassWord)
		for _, b := range fn.Blocks {
			var out []*ir.Instr
			for _, in := range b.Instrs {
				if in.Field != fld || (in.Op != ir.OpMetaLoad && in.Op != ir.OpMetaStore) {
					out = append(out, in)
					continue
				}
				switch in.Op {
				case ir.OpMetaLoad:
					in.Op = ir.OpMov
					in.Field = nil
					in.Args = []ir.Reg{reg}
				case ir.OpMetaStore:
					// An SRAM store truncates the value to the field's
					// width and a load zero-extends it back, so the
					// register must hold the masked value, not the raw
					// 32-bit store operand.
					val := in.Args[1]
					in.Field = nil
					in.Dst = []ir.Reg{reg}
					if fld.Bits < 32 {
						mr := fn.NewReg(ir.ClassWord)
						out = append(out, &ir.Instr{Op: ir.OpConst, Pos: in.Pos,
							Dst: []ir.Reg{mr}, Imm: uint64(types.BitMask(fld.Bits))})
						in.Op = ir.OpAnd
						in.Args = []ir.Reg{val, mr}
					} else {
						in.Op = ir.OpMov
						in.Args = []ir.Reg{val}
					}
				}
				st.AccessesRemoved++
				out = append(out, in)
			}
			b.Instrs = out
		}
		st.FieldsLocalized++
	}
}

// touchesField reports whether fn accesses fld, counting raw byte-range
// accesses that overlap the field's bits.
func touchesField(prog *ir.Program, fn *ir.Func, fld *types.ProtoField) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMetaLoad && in.Op != ir.OpMetaStore {
				continue
			}
			for _, f := range metaFieldsOf(prog, in) {
				if f == fld {
					return true
				}
			}
		}
	}
	return false
}

// definitelyAssigned computes, per eligible field, whether every MetaLoad
// is dominated by a MetaStore on all paths (forward "definitely written"
// dataflow; raw metadata accesses kill eligibility entirely).
func definitelyAssigned(fn *ir.Func, eligible map[*types.ProtoField]bool) map[*types.ProtoField]bool {
	type setmap map[*types.ProtoField]bool
	in := map[*ir.Block]setmap{}
	ok := map[*types.ProtoField]bool{}
	for fld := range eligible {
		ok[fld] = true
	}
	// Raw (PAC-combined) metadata accesses cover byte ranges, not fields;
	// disqualify overlapping fields.
	for _, b := range fn.Blocks {
		for _, instr := range b.Instrs {
			if (instr.Op == ir.OpMetaLoad || instr.Op == ir.OpMetaStore) && instr.Field == nil {
				for fld := range eligible {
					if fld.Overlaps(int(instr.Off), int(instr.Off)+instr.Width) {
						ok[fld] = false
					}
				}
			}
		}
	}
	// Iterate to fixpoint. Must-analysis: initialize every non-entry
	// block to the universal set (TOP) so Gauss-Seidel iteration only
	// shrinks sets and terminates; the entry starts empty (nothing is
	// known to be written on function entry).
	full := func() setmap {
		m := setmap{}
		for fld := range eligible {
			m[fld] = true
		}
		return m
	}
	for _, b := range fn.Blocks {
		if b == fn.Entry {
			in[b] = setmap{}
		} else {
			in[b] = full()
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks {
			if b == fn.Entry {
				continue
			}
			var cur setmap
			if len(b.Preds) == 0 {
				cur = setmap{} // unreachable or alternate entry: assume nothing written
			} else {
				cur = nil
				for _, p := range b.Preds {
					po := flowBlock(p, in[p], eligible, nil)
					if cur == nil {
						cur = setmap{}
						for f := range po {
							cur[f] = true
						}
					} else {
						for f := range cur {
							if !po[f] {
								delete(cur, f)
							}
						}
					}
				}
			}
			if !sameSet(in[b], cur) {
				in[b] = cur
				changed = true
			}
		}
	}
	// Check loads.
	for _, b := range fn.Blocks {
		flowBlock(b, in[b], eligible, ok)
	}
	return ok
}

// flowBlock applies the "definitely written" transfer function; if check
// is non-nil, loads of unwritten fields clear check[field].
func flowBlock(b *ir.Block, in map[*types.ProtoField]bool,
	eligible map[*types.ProtoField]bool, check map[*types.ProtoField]bool) map[*types.ProtoField]bool {
	cur := map[*types.ProtoField]bool{}
	for f := range in {
		cur[f] = true
	}
	for _, instr := range b.Instrs {
		switch instr.Op {
		case ir.OpMetaStore:
			if instr.Field != nil && eligible[instr.Field] {
				cur[instr.Field] = true
			}
		case ir.OpMetaLoad:
			if instr.Field != nil && eligible[instr.Field] && check != nil && !cur[instr.Field] {
				check[instr.Field] = false
			}
		}
	}
	return cur
}

func sameSet(a, b map[*types.ProtoField]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Paired encapsulation elimination

// eliminatePairs removes decap/encap pairs whose intermediate handle never
// escapes: "iph = decap(ph); ...field accesses on iph...; eph = encap(iph)"
// with matching protocols collapses to field accesses on ph at a fixed
// extra offset, with eph aliased to ph. Applies when the decapped protocol
// has a fixed size (otherwise the offset shift is unknown) and both ends
// sit in the same block run (same aggregate by construction). The named
// function of p is taken for writing at the first pair found.
func eliminatePairs(p *ir.Program, name string, st *Stats) {
	fn := p.Func(name)
	for bi := 0; bi < len(fn.Blocks); bi++ {
		b := fn.Blocks[bi]
		for i := 0; i < len(b.Instrs); i++ {
			dec := b.Instrs[i]
			if dec.Op != ir.OpDecap {
				continue
			}
			// The inner handle's aliases grow through plain moves
			// (lowering materializes "ipv4 iph = packet_decap(ph)" as a
			// decap followed by a mov).
			alias := map[ir.Reg]bool{dec.Dst[0]: true}
			usesAlias := func(in *ir.Instr) bool {
				for _, a := range in.Args {
					if alias[a] {
						return true
					}
				}
				return false
			}
			for j := i + 1; j < len(b.Instrs); j++ {
				mid := b.Instrs[j]
				if mid.Op == ir.OpMov && len(mid.Args) == 1 && alias[mid.Args[0]] {
					alias[mid.Dst[0]] = true
					continue
				}
				if mid.Op == ir.OpEncap && alias[mid.Args[0]] {
					if usableAsPair(dec, mid) && !usedElsewhere(fn, b, j, alias) {
						// Edit's copy holds the same instructions at the
						// same positions.
						fn = p.Edit(name)
						b = fn.Blocks[bi]
						rewritePair(fn, b, i, j, alias, st)
					}
					break
				}
				if usesAlias(mid) &&
					mid.Op != ir.OpPktLoad && mid.Op != ir.OpPktStore &&
					mid.Op != ir.OpMetaLoad && mid.Op != ir.OpMetaStore {
					break // handle escapes; give up on this decap
				}
			}
		}
	}
}

// usedElsewhere reports whether any alias of the inner handle is
// referenced after the encap at b.Instrs[j] (a stale use would observe
// the wrong header after the pair is collapsed).
func usedElsewhere(fn *ir.Func, b *ir.Block, j int, alias map[ir.Reg]bool) bool {
	uses := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if alias[a] {
				return true
			}
		}
		return false
	}
	for k := j + 1; k < len(b.Instrs); k++ {
		if uses(b.Instrs[k]) {
			return true
		}
	}
	for _, ob := range fn.Blocks {
		if ob == b {
			continue
		}
		for _, in := range ob.Instrs {
			if uses(in) {
				return true
			}
		}
	}
	return false
}

// usableAsPair verifies the decap/encap protocols cancel: the encap must
// rebuild exactly the header the decap skipped, and the skipped size must
// be static (fixed demux).
func usableAsPair(dec, enc *ir.Instr) bool {
	// dec.Imm is the protocol being left (outer); enc.Proto is the
	// protocol being entered. They must match, and the outer header must
	// have a fixed size so accesses can be redirected by a constant.
	return enc.Proto != nil && dec.Proto != nil &&
		uint64(enc.Proto.ID) == dec.Imm && enc.Proto.Demux == nil
}

// rewritePair redirects intermediate accesses through the outer handle at
// +size and aliases both produced handles to the outer one.
func rewritePair(fn *ir.Func, b *ir.Block, i, j int, alias map[ir.Reg]bool, st *Stats) {
	dec := b.Instrs[i]
	enc := b.Instrs[j]
	outer := dec.Args[0]
	shift := int32(enc.Proto.FixedSize)
	innerProto := dec.Proto
	usesAlias := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if alias[a] {
				return true
			}
		}
		return false
	}
	for k := i + 1; k < j; k++ {
		mid := b.Instrs[k]
		if mid.Op == ir.OpMov && len(mid.Args) == 1 && alias[mid.Args[0]] {
			mid.Args[0] = outer
			continue
		}
		if !usesAlias(mid) {
			continue
		}
		switch mid.Op {
		case ir.OpPktLoad, ir.OpPktStore:
			// Convert the field access into a raw access at the field's
			// absolute byte range within the outer header plus the header
			// size. Field extraction must be materialized; to keep the
			// rewrite small we instead keep the field access but shift
			// the protocol view: a field access through the outer handle
			// with an offset-adjusted synthetic field.
			mid.Args[0] = outer
			nf := *mid.Field
			nf.BitOff += int(shift) * 8
			nf.Name = innerProto.Name + "." + nf.Name
			mid.Field = &nf
			mid.Proto = enc.Proto
		case ir.OpMetaLoad, ir.OpMetaStore:
			mid.Args[0] = outer
		}
	}
	// decap/encap become moves: both handles alias the outer one.
	dec.Op = ir.OpMov
	dec.Args = []ir.Reg{outer}
	dec.Proto = nil
	dec.Imm = 0
	enc.Op = ir.OpMov
	enc.Args = []ir.Reg{outer}
	enc.Proto = nil
	enc.Imm = 0
	st.PairsEliminated++
}

// EliminatePairsForTest exposes paired-encapsulation elimination on one
// function of a program for unit testing.
func EliminatePairsForTest(p *ir.Program, name string, st *Stats) { eliminatePairs(p, name, st) }
