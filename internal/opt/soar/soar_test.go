package soar_test

import (
	"reflect"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/types"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/opt/soar"
	"shangrila/internal/packet"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

const hdrSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
protocol mpls { label:20; exp:3; s:1; mttl:8; demux { 4 }; }
metadata { rx_port:16; next_hop:16; }
`

// accessAnnotations collects (StaticOff, StaticAlign) per packet access of fn.
func accessAnnotations(fn *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPktLoad || in.Op == ir.OpPktStore {
				out = append(out, in)
			}
		}
	}
	return out
}

func TestFixedChainResolves(t *testing.T) {
	// ether (fixed 14) -> mpls (fixed 4): every offset statically known.
	src := hdrSrc + `
module m {
	channel mp : mpls;
	channel out : mpls;
	ppf f(ether ph) {
		uint ty = ph->type;
		if (ty == 0x8847) {
			mpls mh = packet_decap(ph);
			channel_put(mp, mh);
		} else { packet_drop(ph); }
	}
	ppf g(mpls ph) {
		uint l = ph->label;
		ph->mttl = ph->mttl - 1;
		channel_put(out, ph);
	}
	wiring { rx -> f; mp -> g; out -> tx; }
}`
	p := testutil.BuildIR(t, src)
	st := soar.Analyze(p)
	if st.Accesses == 0 {
		t.Fatal("no accesses seen")
	}
	if st.ResolvedOffset != st.Accesses {
		t.Errorf("resolved %d of %d accesses, want all", st.ResolvedOffset, st.Accesses)
	}
	// f's accesses at offset 0; g's at 14.
	for _, in := range accessAnnotations(p.Func("m.f")) {
		if in.StaticOff != 0 {
			t.Errorf("f access off = %d, want 0", in.StaticOff)
		}
		if in.StaticAlign != soar.MaxAlign {
			t.Errorf("f access align = %d, want %d", in.StaticAlign, soar.MaxAlign)
		}
	}
	for _, in := range accessAnnotations(p.Func("m.g")) {
		if in.StaticOff != 14 {
			t.Errorf("g access off = %d, want 14", in.StaticOff)
		}
		if in.StaticAlign != 2 {
			t.Errorf("g access align = %d, want 2 (14 is halfword aligned)", in.StaticAlign)
		}
	}
}

func TestDynamicDemuxGoesBottomWithAlignment(t *testing.T) {
	// Decapping ipv4 (demux hlen<<2) makes downstream offsets unknown but
	// provably word-aligned.
	src := hdrSrc + `
module m {
	channel l4 : mpls;
	channel out : mpls;
	ppf f(ipv4 ph) {
		mpls inner = packet_decap(ph);
		channel_put(l4, inner);
	}
	ppf g(mpls ph) {
		uint l = ph->label;
		ph->meta.next_hop = l;
		channel_put(out, ph);
	}
	wiring { rx -> f; l4 -> g; out -> tx; }
}`
	p := testutil.BuildIR(t, src)
	soar.Analyze(p)
	for _, in := range accessAnnotations(p.Func("m.g")) {
		if in.StaticOff != ir.UnknownOff {
			t.Errorf("g access off = %d, want unknown", in.StaticOff)
		}
		if in.StaticAlign != 4 {
			t.Errorf("g access align = %d, want 4 (hlen<<2 is word aligned)", in.StaticAlign)
		}
	}
}

// mplsLoopSrc models the paper's Figure 9 situation: an unbounded MPLS
// label stack popped in a loop, making offsets statically unresolvable at
// the join.
const mplsLoopSrc = hdrSrc + `
module m {
	channel mp : mpls;
	channel ipout : ipv4;
	ppf f(ether ph) {
		mpls mh = packet_decap(ph);
		channel_put(mp, mh);
	}
	ppf pop(mpls ph) {
		if (ph->s == 1) {
			ipv4 iph = packet_decap(ph);
			channel_put(ipout, iph);
		} else {
			mpls inner = packet_decap(ph);
			channel_put(mp, inner);
		}
	}
	ppf ipfwd(ipv4 ph) {
		ph->ttl = ph->ttl - 1;
		packet_drop(ph);
	}
	wiring { rx -> f; mp -> pop; ipout -> ipfwd; }
}`

func TestMPLSStackJoinIsBottom(t *testing.T) {
	p := testutil.BuildIR(t, mplsLoopSrc)
	soar.Analyze(p)
	// pop consumes mp, fed both by f (offset 14) and by itself (offset
	// 14+4k): the join must be bottom, but word alignment survives (14 vs
	// 18 -> align 2).
	for _, in := range accessAnnotations(p.Func("m.pop")) {
		if in.StaticOff != ir.UnknownOff {
			t.Errorf("pop access off = %d, want unknown (label stack)", in.StaticOff)
		}
		if in.StaticAlign < 2 {
			t.Errorf("pop access align = %d, want >= 2", in.StaticAlign)
		}
	}
	// f's single access context is still exact.
	for _, in := range accessAnnotations(p.Func("m.f")) {
		_ = in
	}
}

func TestEncapResolvesBack(t *testing.T) {
	src := hdrSrc + `
module m {
	channel ipc : ipv4;
	channel out : ether;
	ppf f(ether ph) {
		ipv4 iph = packet_decap(ph);
		channel_put(ipc, iph);
	}
	ppf g(ipv4 ph) {
		ether eph = packet_encap(ph);
		uint d = eph->dst_hi;
		ph->meta.next_hop = d;
		channel_put(out, eph);
	}
	wiring { rx -> f; ipc -> g; out -> tx; }
}`
	p := testutil.BuildIR(t, src)
	soar.Analyze(p)
	for _, in := range accessAnnotations(p.Func("m.g")) {
		if in.Op == ir.OpPktLoad && in.StaticOff != 0 {
			t.Errorf("post-encap access off = %d, want 0", in.StaticOff)
		}
	}
	// The encap instruction itself carries its incoming offset (14).
	for _, b := range p.Func("m.g").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpEncap && in.StaticOff != 14 {
				t.Errorf("encap incoming off = %d, want 14", in.StaticOff)
			}
		}
	}
}

func TestPacketCreateAndCopySeeded(t *testing.T) {
	src := hdrSrc + `
module m {
	channel out : ether;
	ppf f(ether ph) {
		ether cp = packet_copy(ph);
		uint x = cp->type;
		ether fresh = packet_create();
		fresh->type = x;
		channel_put(out, fresh);
		packet_drop(ph);
	}
	wiring { rx -> f; out -> tx; }
}`
	p := testutil.BuildIR(t, src)
	st := soar.Analyze(p)
	if st.ResolvedOffset != st.Accesses {
		t.Errorf("create/copy handles should resolve: %d of %d", st.ResolvedOffset, st.Accesses)
	}
}

func TestSOARDoesNotChangeSemantics(t *testing.T) {
	gen := func(tp *types.Program) []*packet.Packet {
		r := workload.NewSource(3)
		var out []*packet.Packet
		for i := 0; i < 20; i++ {
			depth := 1 + i%3
			layers := []trace.Layer{
				{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x8847}}},
			}
			for d := 0; d < depth; d++ {
				s := uint32(0)
				if d == depth-1 {
					s = 1
				}
				layers = append(layers, trace.Layer{
					Proto:  tp.Protocols["mpls"],
					Fields: []trace.Field{{Name: "label", Value: r.Uint32() & 0xfffff}, {Name: "s", Value: s}, {Name: "mttl", Value: 17}},
				})
			}
			layers = append(layers, trace.Layer{
				Proto:  tp.Protocols["ipv4"],
				Fields: []trace.Field{{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 9}, {Name: "dst", Value: r.Uint32()}},
				Size:   20,
			})
			p, err := trace.Build(layers, 64, tp.Metadata.Bytes)
			if err != nil {
				panic(err)
			}
			out = append(out, p)
		}
		return out
	}
	testutil.DiffTest(t, mplsLoopSrc, gen, nil, func(p *ir.Program) {
		opt.Optimize(p, opt.Options{Scalar: true, Inline: true})
		soar.Analyze(p)
	})
}

// TestNonPositionalBlockIDs: SOAR keeps one entry state per block by
// Block.ID. A function whose IDs are not its blocks' positions (a pass
// reordered or dropped blocks without ComputeCFG) must be annotated the
// same as with positional IDs: here every PPF of the three apps after
// inlining, once with its IDs reversed (each then names another block's
// position) and once behind an unreachable block that shifts every
// position by one.
func TestNonPositionalBlockIDs(t *testing.T) {
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(prog, opt.Options{Scalar: true, Inline: true})
		want := ir.CloneProgram(prog)
		wantSt := soar.Analyze(want)
		for _, perturb := range []struct {
			name string
			fn   func(*ir.Func)
		}{
			{"reversed", func(f *ir.Func) {
				for i, b := range f.Blocks {
					b.ID = len(f.Blocks) - 1 - i
				}
			}},
			{"shifted", func(f *ir.Func) {
				dead := &ir.Block{ID: 0, Instrs: []*ir.Instr{{Op: ir.OpRet}}}
				f.Blocks = append([]*ir.Block{dead}, f.Blocks...)
			}},
		} {
			got := ir.CloneProgram(prog)
			for _, f := range got.PPFs() {
				perturb.fn(f)
			}
			gotSt := soar.Analyze(got)
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("%s %s: stats %+v, want %+v", a.Name, perturb.name, gotSt, wantSt)
			}
			for fi, wf := range want.Funcs {
				w, g := annotations(wf), annotations(got.Funcs[fi])
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s %s: %s annotated %v, want %v", a.Name, perturb.name, wf.Name, g, w)
				}
			}
		}
	}
}

// annotations lists SOAR's results on every packet access and encap/decap
// of f, in block order; a block made only of a ret carries none.
func annotations(f *ir.Func) [][3]int64 {
	var out [][3]int64
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPktLoad, ir.OpPktStore, ir.OpEncap, ir.OpDecap:
				out = append(out, [3]int64{int64(in.StaticOff), int64(in.StaticAlign), int64(in.StaticMin)})
			}
		}
	}
	return out
}
