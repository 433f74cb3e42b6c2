package phr_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt/phr"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

const appSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; flow:32; }

module app {
	struct Rt { dst:uint; nh:uint; }
	Rt table[16];
	uint ports;
	channel ip_cc : ipv4;
	channel out_cc : ether;
	ppf clsfr(ether ph) {
		ports = ph->meta.rx_port;   // rx_port written by Rx: NOT localizable
		if (ph->type == 0x0800) {
			ipv4 iph = packet_decap(ph);
			iph->meta.flow = iph->dst;  // flow: written then read, same aggregate
			channel_put(ip_cc, iph);
		} else { packet_drop(ph); }
	}
	ppf fwd(ipv4 ph) {
		uint fl = ph->meta.flow;
		uint nh = 0;
		for (uint i = 0; i < 16; i++) {
			if (table[i].dst == fl) { nh = table[i].nh; break; }
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
}
`

func gen(tp *types.Program) []*packet.Packet {
	r := workload.NewSource(9)
	var out []*packet.Packet
	for i := 0; i < 60; i++ {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 64}, {Name: "dst", Value: 0x0a000001 + uint32(r.Intn(3))}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// pipeline builds plan+merged for the app and runs PHR; returns the hot
// entry and the PHR stats.
func pipeline(t *testing.T, prog *ir.Program) (*ir.Func, *phr.Stats) {
	t.Helper()
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Control("app.add_route", 0, 0x0a000001, 4); err != nil {
		t.Fatal(err)
	}
	stats, err := profiler.Profile(prog, gen(prog.Types))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := aggregate.Build(prog, &stats.Weights, aggregate.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	classes := aggregate.ClassifyChannels(prog, plan)
	merged, err := aggregate.BuildMerged(prog, plan, classes)
	if err != nil {
		t.Fatal(err)
	}
	st := phr.Run(prog, plan, merged)
	for _, m := range merged {
		if m.Agg.Target == aggregate.TargetME {
			return m.Func(m.Entries[0]), st
		}
	}
	t.Fatal("no ME aggregate")
	return nil, nil
}

func countMetaAccesses(fn *ir.Func, fieldName string) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if (in.Op == ir.OpMetaLoad || in.Op == ir.OpMetaStore) &&
				in.Field != nil && in.Field.Name == fieldName {
				n++
			}
		}
	}
	return n
}

func TestFlowFieldLocalized(t *testing.T) {
	prog := testutil.BuildIR(t, appSrc)
	entry, st := pipeline(t, prog)
	if st.FieldsLocalized < 1 {
		t.Fatalf("no fields localized: %+v", st)
	}
	if n := countMetaAccesses(entry, "flow"); n != 0 {
		t.Errorf("flow accesses remain: %d", n)
	}
	// rx_port is read-before-write (Rx writes it): must stay in SRAM.
	if n := countMetaAccesses(entry, "rx_port"); n == 0 {
		t.Errorf("rx_port was localized but carries Rx-engine state")
	}
	// next_hop is written here and read by Tx/encap side downstream? In
	// this app nothing else reads it, and it is assigned before use, so
	// localization is legal.
}

func TestPairEliminationCollapsesDecapEncap(t *testing.T) {
	src := `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; }
module m {
	channel out : ether;
	ppf f(ether ph) {
		ipv4 iph = packet_decap(ph);
		iph->ttl = iph->ttl - 1;
		ether eph = packet_encap(iph);
		channel_put(out, eph);
	}
	wiring { rx -> f; out -> tx; }
}`
	testutil.DiffTest(t, src, gen, nil, func(p *ir.Program) {
		// Run pair elimination directly on the lone PPF.
		st := &phr.Stats{}
		phr.EliminatePairsForTest(p, "m.f", st)
		if st.PairsEliminated != 1 {
			t.Errorf("pairs eliminated = %d, want 1", st.PairsEliminated)
		}
	})
	// And structurally: no encap/decap remain.
	p := testutil.BuildIR(t, src)
	st := &phr.Stats{}
	phr.EliminatePairsForTest(p, "m.f", st)
	for _, b := range p.Func("m.f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDecap || in.Op == ir.OpEncap {
				t.Errorf("encap/decap survived:\n%s", p.Func("m.f"))
			}
		}
	}
}

func TestPairNotEliminatedWhenHandleEscapes(t *testing.T) {
	src := `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; }
module m {
	channel ipout : ipv4;
	channel out : ether;
	ppf f(ether ph) {
		ipv4 iph = packet_decap(ph);
		if (iph->ttl == 1) {
			channel_put(ipout, iph);   // escapes: cannot collapse
		} else {
			ether eph = packet_encap(iph);
			channel_put(out, eph);
		}
	}
	ppf g(ipv4 ph) { packet_drop(ph); }
	wiring { rx -> f; ipout -> g; out -> tx; }
}`
	p := testutil.BuildIR(t, src)
	st := &phr.Stats{}
	phr.EliminatePairsForTest(p, "m.f", st)
	if st.PairsEliminated != 0 {
		t.Errorf("escaping handle pair eliminated unsoundly")
	}
}

func TestLocalizationPreservesSemantics(t *testing.T) {
	// Full-pipeline differential test: outcomes must match with PHR.
	ref := testutil.BuildIR(t, appSrc)
	refOut := testutil.Execute(t, ref, gen, [][]any{{"app.add_route", 0, 0x0a000001, 4}})

	prog := testutil.BuildIR(t, appSrc)
	entry, _ := pipeline(t, prog)

	// Execute the merged entry directly as the rx PPF of a synthetic
	// program view.
	entry.Kind = ir.FuncPPF
	np := &ir.Program{Types: prog.Types, Funcs: []*ir.Func{entry}}
	// Keep control/init functions for table setup.
	for _, f := range prog.Funcs {
		if f.Kind == ir.FuncControl || f.Kind == ir.FuncInit {
			np.Funcs = append(np.Funcs, f)
		}
	}
	got := testutil.Execute(t, np, gen, [][]any{{"app.add_route", 0, 0x0a000001, 4}})
	// Localized metadata fields (flow, next_hop) are provably dead outside
	// the aggregate, so the externally visible outcome excludes the
	// metadata record: compare packet bytes, head offsets, exit channels
	// and drop counts only.
	if got.Dropped != refOut.Dropped {
		t.Errorf("dropped = %d, want %d", got.Dropped, refOut.Dropped)
	}
	if len(got.Tx) != len(refOut.Tx) {
		t.Fatalf("tx = %d, want %d", len(got.Tx), len(refOut.Tx))
	}
	for i := range refOut.Tx {
		w, g := refOut.Tx[i], got.Tx[i]
		if w.Chan != g.Chan || w.Head != g.Head || string(w.Bytes) != string(g.Bytes) {
			t.Errorf("packet %d differs (chan %s/%s head %d/%d)", i, g.Chan, w.Chan, g.Head, w.Head)
		}
	}
}
