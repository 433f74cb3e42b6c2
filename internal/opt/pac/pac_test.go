package pac_test

import (
	"testing"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/opt/pac"
	"shangrila/internal/packet"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

const hdrSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; flow:32; }
`

func countAccesses(f *ir.Func) (narrow, wide int) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
				if in.Field != nil {
					narrow++
				} else {
					wide++
				}
			}
		}
	}
	return
}

func ipTrace(tp *types.Program) []*packet.Packet {
	r := workload.NewSource(5)
	var out []*packet.Packet
	for i := 0; i < 25; i++ {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{
				{Name: "type", Value: 0x0800}, {Name: "dst_hi", Value: 0xaabb}, {Name: "dst_lo", Value: r.Uint32()},
				{Name: "src_hi", Value: 0x1122}, {Name: "src_lo", Value: r.Uint32()}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: uint32(10 + i)}, {Name: "tos", Value: uint32(i & 3)},
				{Name: "cksum", Value: r.Uint32() & 0xffff},
				{Name: "src", Value: r.Uint32()}, {Name: "dst", Value: r.Uint32()}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

func TestCombineLoadsSemantics(t *testing.T) {
	src := hdrSrc + `
module m {
	uint sink;
	ppf f(ether ph) {
		uint a = ph->dst_hi;
		uint b = ph->dst_lo;
		uint c = ph->type;
		sink = a + b + c;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`
	p := testutil.DiffTest(t, src, ipTrace, nil, func(p *ir.Program) {
		st := pac.Run(p)
		if st.LoadClusters != 1 {
			t.Errorf("load clusters = %d, want 1", st.LoadClusters)
		}
	})
	narrow, wide := countAccesses(p.Func("m.f"))
	if narrow != 0 || wide != 1 {
		t.Errorf("after PAC: narrow=%d wide=%d, want 0/1", narrow, wide)
	}
	// The wide access must cover dst_hi..type = bytes [0,14) -> words [0,16).
	for _, b := range p.Func("m.f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPktLoad && in.Field == nil {
				if in.Off != 0 || in.Width != 16 {
					t.Errorf("wide load range [%d,%d), want [0,16)", in.Off, int(in.Off)+in.Width)
				}
			}
		}
	}
}

func TestCombineStoresRMW(t *testing.T) {
	src := hdrSrc + `
module m {
	channel out : ipv4;
	ppf f(ipv4 ph) {
		ph->ttl = ph->ttl - 1;
		ph->cksum = ph->cksum + 0x100;
		channel_put(out, ph);
	}
	wiring { rx -> f; out -> tx; }
}`
	gen := func(tp *types.Program) []*packet.Packet {
		r := workload.NewSource(17)
		var out []*packet.Packet
		for i := 0; i < 10; i++ {
			p, err := trace.Build([]trace.Layer{
				{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
					{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: uint32(1 + i)}, {Name: "cksum", Value: r.Uint32() & 0xffff},
					{Name: "id", Value: r.Uint32() & 0xffff}, {Name: "dst", Value: r.Uint32()}}, Size: 20},
			}, 64, tp.Metadata.Bytes)
			if err != nil {
				panic(err)
			}
			out = append(out, p)
		}
		return out
	}
	p := testutil.DiffTest(t, src, gen, nil, func(p *ir.Program) {
		pac.Run(p)
	})
	f := p.Func("m.f")
	// ttl and cksum share word 2 of the header: loads combine and stores
	// combine into one RMW pair.
	_, wide := countAccesses(f)
	if wide < 2 {
		t.Errorf("expected wide accesses after combining, got %d:\n%s", wide, f)
	}
	narrow, _ := countAccesses(f)
	if narrow != 0 {
		t.Errorf("narrow accesses remain: %d\n%s", narrow, f)
	}
}

func TestInterveningOverlappingStoreBlocksLoadCombining(t *testing.T) {
	src := hdrSrc + `
module m {
	uint sink;
	channel out : ipv4;
	ppf f(ipv4 ph) {
		uint a = ph->ttl;
		ph->ttl = 9;
		uint b = ph->ttl;   // must observe 9
		sink = a * 256 + b;
		channel_put(out, ph);
	}
	wiring { rx -> f; out -> tx; }
}`
	gen := func(tp *types.Program) []*packet.Packet {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 42}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			panic(err)
		}
		return []*packet.Packet{p}
	}
	testutil.DiffTest(t, src, gen, nil, func(p *ir.Program) { pac.Run(p) })
}

func TestMetadataCombining(t *testing.T) {
	src := hdrSrc + `
module m {
	channel out : ether;
	ppf f(ether ph) {
		ph->meta.next_hop = 7;
		ph->meta.flow = 0xabcd1234;
		channel_put(out, ph);
	}
	wiring { rx -> f; out -> tx; }
}`
	p := testutil.DiffTest(t, src, ipTrace, nil, func(p *ir.Program) {
		st := pac.Run(p)
		if st.StoreClusters < 1 {
			t.Errorf("expected metadata store combining, stats=%+v", st)
		}
	})
	f := p.Func("m.f")
	metaStores := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMetaStore {
				metaStores++
				if in.Field != nil {
					t.Errorf("narrow metadata store survived")
				}
			}
		}
	}
	if metaStores != 1 {
		t.Errorf("metadata stores = %d, want 1", metaStores)
	}
}

func TestPACAfterScalarOnRealApp(t *testing.T) {
	src := hdrSrc + `
module app {
	struct Rt { dst:uint; nh:uint; }
	Rt table[64];
	channel ip_cc : ipv4;
	channel out_cc : ether;
	ppf clsfr(ether ph) {
		uint d1 = ph->dst_hi;
		uint d2 = ph->dst_lo;
		if (ph->type == 0x0800 && d1 == 0xaabb) {
			ipv4 iph = packet_decap(ph);
			iph->meta.flow = d2;
			channel_put(ip_cc, iph);
		} else { packet_drop(ph); }
	}
	ppf fwd(ipv4 ph) {
		uint nh = 0;
		uint dst = ph->dst;
		for (uint i = 0; i < 64; i++) {
			if (table[i].dst == dst) { nh = table[i].nh; break; }
		}
		if (nh == 0) { packet_drop(ph); }
		else {
			ph->meta.next_hop = nh;
			ph->ttl = ph->ttl - 1;
			ether eph = packet_encap(ph);
			channel_put(out_cc, eph);
		}
	}
	control func add_route(uint idx, uint dst, uint nh) {
		table[idx].dst = dst; table[idx].nh = nh;
	}
	wiring { rx -> clsfr; ip_cc -> fwd; out_cc -> tx; }
}`
	controls := [][]any{{"app.add_route", 0, 0x11223344, 3}}
	gen := func(tp *types.Program) []*packet.Packet {
		var out []*packet.Packet
		for i := 0; i < 20; i++ {
			dst := uint32(0x11223344)
			if i%3 == 0 {
				dst = 0x55667788
			}
			p, err := trace.Build([]trace.Layer{
				{Proto: tp.Protocols["ether"], Fields: []trace.Field{
					{Name: "type", Value: 0x0800}, {Name: "dst_hi", Value: 0xaabb}, {Name: "dst_lo", Value: 0x10101010}}},
				{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
					{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 64}, {Name: "dst", Value: dst}}, Size: 20},
			}, 64, tp.Metadata.Bytes)
			if err != nil {
				panic(err)
			}
			out = append(out, p)
		}
		return out
	}
	before := testutil.BuildIR(t, src)
	opt.Optimize(before, opt.Options{Scalar: true, Inline: true})
	nb, _ := countAccesses(before.Func("app.clsfr"))

	p := testutil.DiffTest(t, src, gen, controls, func(p *ir.Program) {
		opt.Optimize(p, opt.Options{Scalar: true, Inline: true})
		pac.Run(p)
		opt.Optimize(p, opt.Options{Scalar: true})
	})
	na, wa := countAccesses(p.Func("app.clsfr"))
	if na+wa >= nb {
		t.Errorf("PAC did not reduce accesses: %d narrow before, %d narrow + %d wide after",
			nb, na, wa)
	}
}
