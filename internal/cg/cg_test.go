package cg_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/opt"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
)

const appSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; }
module m {
	struct Rt { dst:uint; nh:uint; }
	Rt table[32];
	uint hits;
	channel out : ether;
	ppf f(ether ph) {
		uint ty = ph->type;
		if (ty == 0x0800) {
			ipv4 iph = packet_decap(ph);
			uint dst = iph->dst;
			uint nh = 0;
			for (uint i = 0; i < 32; i++) {
				if (table[i].dst == dst) { nh = table[i].nh; break; }
			}
			iph->ttl = iph->ttl - 1;
			iph->meta.next_hop = nh;
			hits += 1;
			ether eph = packet_encap(iph);
			channel_put(out, eph);
		} else {
			packet_drop(ph);
		}
	}
	control func add(uint i, uint d, uint n) { table[i].dst = d; table[i].nh = n; }
	wiring { rx -> f; out -> tx; }
}
`

// compile builds the app through aggregation + CG at full optimization.
func compile(t *testing.T, opts cg.Options) *cg.Image {
	t.Helper()
	prog := testutil.BuildIR(t, appSrc)
	trc := buildTrace(t, prog.Types, 64)
	stats, err := profiler.ProfileWithControls(prog, trc,
		[]profiler.Control{{Name: "m.add", Args: []uint32{0, 0x0a000001, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	opt.Optimize(prog, opt.Options{Scalar: true, Inline: true})
	plan, err := aggregate.Build(prog, &stats.Weights, aggregate.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	classes := aggregate.ClassifyChannels(prog, plan)
	merged, err := aggregate.BuildMerged(prog, plan, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range merged {
		opt.Optimize(m.Prog, opt.Options{Scalar: true})
	}
	img, err := cg.Compile(prog, plan, merged, classes, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func buildTrace(t *testing.T, tp *types.Program, n int) []*packet.Packet {
	t.Helper()
	var out []*packet.Packet
	for i := 0; i < n; i++ {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 9}, {Name: "dst", Value: 0x0a000001}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func TestBankConstraintHolds(t *testing.T) {
	img := compile(t, cg.Options{O2: true, SOAR: true, PHR: true})
	for _, c := range img.MECode {
		for pc, in := range c.Program.Code {
			twoSrc := in.Op == cg.IALU &&
				in.ALU != cg.AMov && in.ALU != cg.ANot && in.ALU != cg.ANeg
			if in.Op == cg.IBcc || in.Op == cg.ICAMWrite || in.Op == cg.IRingPut {
				twoSrc = true
			}
			if !twoSrc || in.SrcA == cg.NoPReg || in.SrcB == cg.NoPReg {
				continue
			}
			if in.SrcA == in.SrcB {
				t.Errorf("pc %d: identical sources %v", pc, in)
			}
			if in.SrcA.Bank() == in.SrcB.Bank() {
				t.Errorf("pc %d: bank conflict %v (both bank %d)", pc, in, in.SrcA.Bank())
			}
		}
	}
}

// TestPhysicalRegistersOnly: every register of an allocated image is
// inside the register file, by cg.Verify's register rule.
func TestPhysicalRegistersOnly(t *testing.T) {
	img := compile(t, cg.Options{O2: true})
	for _, c := range img.MECode {
		if err := cg.Verify(c.Program, img.Layout.NumRings); err != nil {
			t.Error(err)
		}
	}
}

// TestBranchTargetsInRange: every branch of an unoptimized image lands
// inside it and no path falls off its end, by cg.Verify's control rule.
func TestBranchTargetsInRange(t *testing.T) {
	img := compile(t, cg.Options{})
	for _, c := range img.MECode {
		if err := cg.Verify(c.Program, img.Layout.NumRings); err != nil {
			t.Error(err)
		}
	}
}

func TestCodeSizeShrinksWithOptions(t *testing.T) {
	base := compile(t, cg.Options{})
	opt := compile(t, cg.Options{O2: true, SOAR: true, PHR: true})
	b := len(base.MECode[0].Program.Code)
	o := len(opt.MECode[0].Program.Code)
	if o >= b {
		t.Errorf("optimized code %d >= base %d instructions", o, b)
	}
	if b > aggregate.CodeStore {
		t.Errorf("base code %d exceeds the code store", b)
	}
}

func TestLayoutInvariants(t *testing.T) {
	img := compile(t, cg.Options{})
	lay := img.Layout
	// Metadata record size is a power of two.
	if lay.MetaRecBytes&(lay.MetaRecBytes-1) != 0 {
		t.Errorf("MetaRecBytes %d not a power of two", lay.MetaRecBytes)
	}
	// Global addresses are word aligned and non-overlapping per space.
	type span struct{ lo, hi uint32 }
	bySpace := map[types.MemSpace][]span{}
	for name, g := range img.Types.Globals {
		addr := lay.GlobalAddr[name]
		if addr%4 != 0 {
			t.Errorf("global %s at unaligned %d", name, addr)
		}
		size := uint32((g.Type.SizeBytes() + 3) &^ 3)
		for _, s := range bySpace[g.Space] {
			if addr < s.hi && s.lo < addr+size {
				t.Errorf("global %s overlaps another in %v", name, g.Space)
			}
		}
		bySpace[g.Space] = append(bySpace[g.Space], span{addr, addr + size})
	}
	// Rings fit in scratch.
	last := lay.RingBase(lay.NumRings-1) + lay.RingBytes
	if last > 16<<10 {
		t.Errorf("rings end at %d, beyond 16KiB scratch", last)
	}
	// Thread stacks fit Local Memory.
	if lay.StackBase+8*lay.StackSize > 2560 {
		t.Errorf("stacks end at %d, beyond 2560B local memory", lay.StackBase+8*lay.StackSize)
	}
}
