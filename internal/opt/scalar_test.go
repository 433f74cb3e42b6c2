package opt_test

import (
	"slices"
	"testing"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/packet"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

const appSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; }
const ETH_IP = 0x0800;

module app {
    struct Rt { dst:uint; nh:uint; }
    Rt table[64];
    uint drops;
    channel ip_cc : ipv4;
    channel out_cc : ether;

    func lookup(uint dst) uint {
        for (uint i = 0; i < 64; i++) {
            if (table[i].dst == dst) { return table[i].nh; }
        }
        return 0;
    }

    func classify(uint t) uint {
        uint isip = (t == ETH_IP);
        uint dead = 3 * 0;        // folds away
        return isip + dead;
    }

    ppf clsfr(ether ph) {
        if (classify(ph->type) != 0) {
            ipv4 iph = packet_decap(ph);
            channel_put(ip_cc, iph);
        } else {
            drops += 1;
            packet_drop(ph);
        }
    }

    ppf fwd(ipv4 ph) {
        uint nh = lookup(ph->dst);
        if (nh == 0) { packet_drop(ph); }
        else {
            ph->meta.next_hop = nh;
            ph->ttl = ph->ttl - 1;
            ether eph = packet_encap(ph);
            channel_put(out_cc, eph);
        }
    }

    control func add_route(uint idx, uint dst, uint nh) {
        table[idx].dst = dst;
        table[idx].nh = nh;
    }

    wiring { rx -> clsfr; ip_cc -> fwd; out_cc -> tx; }
}
`

func genTrace(tp *types.Program) []*packet.Packet {
	r := workload.NewSource(99)
	var out []*packet.Packet
	for i := 0; i < 40; i++ {
		ethType := uint32(0x0800)
		if i%7 == 0 {
			ethType = 0x0806
		}
		dst := uint32(0x0a000000) + uint32(r.Intn(8))
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: ethType}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 32 + uint32(i)}, {Name: "dst", Value: dst}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

var routeControls = [][]any{
	{"app.add_route", 0, 0x0a000001, 7},
	{"app.add_route", 1, 0x0a000003, 9},
	{"app.add_route", 2, 0x0a000005, 11},
}

func TestScalarPreservesSemantics(t *testing.T) {
	p := testutil.DiffTest(t, appSrc, genTrace, routeControls, func(p *ir.Program) {
		opt.Optimize(p, opt.Options{Scalar: true})
	})
	if err := ir.Verify(p); err != nil {
		t.Errorf("verify: %v", err)
	}
}

func TestInlinePreservesSemantics(t *testing.T) {
	p := testutil.DiffTest(t, appSrc, genTrace, routeControls, func(p *ir.Program) {
		opt.Optimize(p, opt.Options{Scalar: true, Inline: true})
	})
	// After inlining, PPFs must contain no helper calls.
	for _, f := range p.PPFs() {
		if n := opt.CallCount(f); n != 0 {
			t.Errorf("%s still has %d calls after inlining", f.Name, n)
		}
	}
}

func TestScalarShrinksCode(t *testing.T) {
	base := testutil.BuildIR(t, appSrc)
	optd := testutil.BuildIR(t, appSrc)
	opt.Optimize(optd, opt.Options{Scalar: true})
	for i, f := range base.Funcs {
		b, o := opt.InstrCount(f), opt.InstrCount(optd.Funcs[i])
		if o > b {
			t.Errorf("%s grew: %d -> %d instructions", f.Name, b, o)
		}
	}
	// classify's "3 * 0" and the addition of 0 must fold to nothing extra:
	// expect a strict reduction there.
	b, o := opt.InstrCount(base.Func("app.classify")), opt.InstrCount(optd.Func("app.classify"))
	if o >= b {
		t.Errorf("classify not reduced: %d -> %d", b, o)
	}
}

func TestConstantBranchFolding(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	uint sink;
	ppf f(p ph) {
		if (1 == 2) { sink = 111; }
		else { sink = 222; }
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`
	prog := testutil.BuildIR(t, src)
	f := prog.Func("m.f")
	opt.OptimizeFunc(f)
	// The dead arm (store of 111) must be gone.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst && in.Imm == 111 {
				t.Fatalf("dead branch survived:\n%s", f)
			}
			if in.Op == ir.OpCondBr {
				t.Fatalf("constant branch not folded:\n%s", f)
			}
		}
	}
}

func TestRedundantLoadElimination(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	uint g;
	uint sink;
	ppf f(p ph) {
		uint a = g;
		uint b = g;     // redundant with a
		sink = a + b;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`
	prog := testutil.BuildIR(t, src)
	f := prog.Func("m.f")
	opt.OptimizeFunc(f)
	loads := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				loads++
			}
		}
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1:\n%s", loads, f)
	}
}

func TestStoreKillsLoadAvailability(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	uint g;
	uint sink;
	ppf f(p ph) {
		uint a = g;
		g = a + 1;
		uint b = g;     // NOT redundant: store intervenes
		sink = b;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`
	prog := testutil.BuildIR(t, src)
	f := prog.Func("m.f")
	opt.OptimizeFunc(f)
	loads := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				loads++
			}
		}
	}
	if loads != 2 {
		t.Fatalf("loads = %d, want 2 (store must kill availability):\n%s", loads, f)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	uint g;
	ppf f(p ph) {
		uint unused = ph->x;
		g = 5;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`
	prog := testutil.BuildIR(t, src)
	f := prog.Func("m.f")
	opt.OptimizeFunc(f)
	var stores, pktloads int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				stores++
			case ir.OpPktLoad:
				pktloads++
			}
		}
	}
	if stores != 1 {
		t.Errorf("store removed by DCE")
	}
	if pktloads != 0 {
		t.Errorf("dead packet load survived (%d)", pktloads)
	}
}

// TestInlinedOperandsDoNotAlias: the inliner carves the copied
// instructions' operand and branch-target lists out of shared slabs.
// Appending to any one of them must reallocate, never write into the next
// instruction's operands.
func TestInlinedOperandsDoNotAlias(t *testing.T) {
	p := testutil.BuildIR(t, appSrc)
	calls := 0
	for _, f := range p.Funcs {
		calls += opt.CallCount(f)
	}
	if calls == 0 {
		t.Fatal("appSrc makes no call to inline")
	}
	opt.InlineAll(p)
	type operands struct {
		dst, args []ir.Reg
		blocks    []*ir.Block
	}
	var instrs []*ir.Instr
	var before []operands
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				instrs = append(instrs, in)
				before = append(before, operands{
					append([]ir.Reg(nil), in.Dst...),
					append([]ir.Reg(nil), in.Args...),
					append([]*ir.Block(nil), in.Blocks...),
				})
			}
		}
	}
	for _, in := range instrs {
		in.Dst = append(in.Dst, 1<<20)
		in.Args = append(in.Args, 1<<21)
		in.Blocks = append(in.Blocks, nil)
	}
	for i, in := range instrs {
		w := before[i]
		if !slices.Equal(in.Dst[:len(w.dst)], w.dst) || !slices.Equal(in.Args[:len(w.args)], w.args) ||
			!slices.Equal(in.Blocks[:len(w.blocks)], w.blocks) {
			t.Fatalf("instruction %d (%v): operands %v %v changed by a neighbour's append, want %v %v",
				i, in.Op, in.Dst, in.Args, w.dst, w.args)
		}
	}
}
