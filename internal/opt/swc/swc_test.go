package swc_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/opt/swc"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

func TestCheckRateEquation2(t *testing.T) {
	// r_check = r_store * r_load / r_error.
	if got := swc.CheckRate(0.001, 2.0, 1e-6); got < 1999.99 || got > 2000.01 {
		t.Errorf("CheckRate = %v, want 2000", got)
	}
	// Fewer stores lower the required check rate.
	lo := swc.CheckRate(0.0001, 2.0, 1e-6)
	hi := swc.CheckRate(0.01, 2.0, 1e-6)
	if lo >= hi {
		t.Errorf("check rate must grow with store rate: %v vs %v", lo, hi)
	}
	if swc.CheckLimit(2000) != 1 {
		t.Errorf("rate >= 1 checks every packet")
	}
	if got := swc.CheckLimit(0.001); got != 1000 {
		t.Errorf("CheckLimit(0.001) = %d, want 1000", got)
	}
	if got := swc.CheckLimit(0); got != 1<<20 {
		t.Errorf("CheckLimit(0) = %d, want max", got)
	}
}

const appSrc = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; }

module app {
	struct Rt { dst:uint; nh:uint; }
	Rt table[16];
	uint locked_tbl[16];
	uint scratchpad[16];
	channel out : ether;
	ppf fwd(ether ph) {
		uint key = ph->dst_lo;
		uint nh = 0;
		for (uint i = 0; i < 16; i++) {
			if (table[i].dst == key) { nh = table[i].nh; break; }
		}
		critical {
			locked_tbl[0] = locked_tbl[0] + 1;  // lock-protected: never cached
		}
		scratchpad[key & 15] = nh;              // written per packet: never cached
		ph->meta.next_hop = nh;
		channel_put(out, ph);
	}
	control func add_route(uint idx, uint dst, uint nh) {
		table[idx].dst = dst; table[idx].nh = nh;
	}
	wiring { rx -> fwd; out -> tx; }
}
`

func gen(tp *types.Program) []*packet.Packet {
	r := workload.NewSource(21)
	var out []*packet.Packet
	for i := 0; i < 100; i++ {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{
				{Name: "type", Value: 0x0800}, {Name: "dst_lo", Value: uint32(r.Intn(4))}}},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

var controls = [][]any{
	{"app.add_route", 0, 0, 5},
	{"app.add_route", 1, 1, 6},
	{"app.add_route", 2, 2, 7},
}

func setup(t *testing.T, prog *ir.Program) (*profiler.Stats, *aggregate.Plan, []*aggregate.Merged) {
	t.Helper()
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range controls {
		args := []uint32{}
		for _, a := range c[1:] {
			args = append(args, uint32(a.(int)))
		}
		if err := s.Control(c[0].(string), args...); err != nil {
			t.Fatal(err)
		}
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
	return stats, plan, merged
}

func TestCandidateSelection(t *testing.T) {
	prog := testutil.BuildIR(t, appSrc)
	stats, _, _ := setup(t, prog)
	cands := swc.SelectCandidates(prog, stats, swc.DefaultConfig())
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want 1 (only app.table)", len(cands))
	}
	if cands[0].Global.Name != "app.table" {
		t.Errorf("candidate = %s, want app.table", cands[0].Global.Name)
	}
	if cands[0].HitRate < 0.9 {
		t.Errorf("hit rate = %v, want high (4 hot lines)", cands[0].HitRate)
	}
	// locked_tbl is excluded for being inside a critical section,
	// scratchpad for its write ratio.
	for _, c := range cands {
		if c.Global.Name == "app.locked_tbl" || c.Global.Name == "app.scratchpad" {
			t.Errorf("unsound candidate %s", c.Global.Name)
		}
	}
}

func TestApplyRewritesLoadsAndKeepsSemantics(t *testing.T) {
	// Differential: SWC-transformed aggregate behaves identically under
	// the host interpreter (which models the cache as always-miss, i.e.
	// fully coherent).
	ref := testutil.BuildIR(t, appSrc)
	want := testutil.Execute(t, ref, gen, controls)

	prog := testutil.BuildIR(t, appSrc)
	stats, _, merged := setup(t, prog)
	cands := swc.SelectCandidates(prog, stats, swc.DefaultConfig())
	st, err := swc.Apply(prog, merged, cands, swc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadsCached == 0 {
		t.Fatal("no loads rewritten")
	}
	if st.StoresTagged == 0 {
		t.Fatal("control-path stores not tagged with flag updates")
	}

	var hot *aggregate.Merged
	for _, m := range merged {
		if m.Agg.Target == aggregate.TargetME {
			hot = m
		}
	}
	entry := hot.Func(hot.Entries[0])
	// Structure: cache ops present.
	var lookups, fills, flushes int
	for _, b := range entry.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCacheLookup:
				lookups++
			case ir.OpCacheFill:
				fills++
			case ir.OpCacheFlush:
				flushes++
			}
		}
	}
	if lookups == 0 || fills == 0 || flushes == 0 {
		t.Fatalf("cache ops: lookup=%d fill=%d flush=%d", lookups, fills, flushes)
	}

	// Execute the transformed entry as the program.
	entry.Kind = ir.FuncPPF
	np := &ir.Program{Types: prog.Types, Funcs: []*ir.Func{entry}}
	for _, f := range prog.Funcs {
		if f.Kind == ir.FuncControl || f.Kind == ir.FuncInit {
			np.Funcs = append(np.Funcs, f)
		}
	}
	got := testutil.Execute(t, np, gen, controls)
	testutil.SameOutcome(t, want, got, "SWC vs reference")
}

func TestSyntheticGlobalsRegistered(t *testing.T) {
	prog := testutil.BuildIR(t, appSrc)
	stats, _, merged := setup(t, prog)
	cands := swc.SelectCandidates(prog, stats, swc.DefaultConfig())
	if _, err := swc.Apply(prog, merged, cands, swc.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	flag := prog.Types.Globals["app.table$upd"]
	if flag == nil || flag.Space != types.SpaceScratch || !flag.Synthetic {
		t.Errorf("flag global wrong: %+v", flag)
	}
	cnt := prog.Types.Globals["$swc_count"]
	if cnt == nil || cnt.Space != types.SpaceLocal {
		t.Errorf("counter global wrong: %+v", cnt)
	}
}

// TestUntouchedGlobalNeverCandidate: with no floor on reads per packet or
// on the hit rate, a global the trace read is a candidate and one it never
// touched is not, though it has no writes, no lock and no reads to fail a
// ratio.
func TestUntouchedGlobalNeverCandidate(t *testing.T) {
	prog := testutil.BuildIR(t, `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
metadata { rx_port:16; next_hop:16; }
module app {
	uint hot[4];
	uint unused[4];
	channel out : ether;
	ppf fwd(ether ph) { ph->meta.next_hop = hot[ph->dst_lo & 3]; channel_put(out, ph); }
	wiring { rx -> fwd; out -> tx; }
}`)
	stats, err := profiler.Profile(prog, gen(prog.Types))
	if err != nil {
		t.Fatal(err)
	}
	cfg := swc.DefaultConfig()
	cfg.MinReadsPerPacket, cfg.MinHitRate = 0, 0
	cands := swc.SelectCandidates(prog, stats, cfg)
	if len(cands) != 1 || cands[0].Global.Name != "app.hot" {
		var names []string
		for _, c := range cands {
			names = append(names, c.Global.Name)
		}
		t.Errorf("candidates %v, want [app.hot]", names)
	}
}
