package rts_test

import (
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/testutil"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// miniRouter is a representative two-PPF app: classification, a lookup
// table, metadata hand-off, TTL rewrite, re-encapsulation.
const miniRouter = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
metadata { rx_port:16; next_hop:16; }
const ETH_IP = 0x0800;

module app {
	struct Rt { dst:uint; nh:uint; }
	Rt table[64];
	channel ip_cc : ipv4;
	channel out_cc : ether;

	ppf clsfr(ether ph) {
		if (ph->type == ETH_IP) {
			ipv4 iph = packet_decap(ph);
			channel_put(ip_cc, iph);
		} else {
			packet_drop(ph);
		}
	}

	ppf fwd(ipv4 ph) {
		uint dst = ph->dst;
		uint ttl = ph->ttl;
		uint ck  = ph->cksum;
		uint nh = 0;
		for (uint i = 0; i < 64; i++) {
			if (table[i].dst == dst) { nh = table[i].nh; break; }
		}
		if (nh == 0) { packet_drop(ph); }
		else {
			ph->meta.next_hop = nh;
			ph->ttl = ttl - 1;
			uint sum = ck + 0x100;
			ph->cksum = (sum & 0xffff) + (sum >> 16);
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

var routerControls = []profiler.Control{
	{Name: "app.add_route", Args: []uint32{0, 0x0a000001, 5}},
	{Name: "app.add_route", Args: []uint32{1, 0x0a000002, 6}},
	{Name: "app.add_route", Args: []uint32{2, 0x0a000003, 7}},
}

func mkTrace(t testing.TB, res *driver.Result, n int) []*packet.Packet {
	t.Helper()
	tp := res.Prog.Types
	r := workload.NewSource(77)
	var out []*packet.Packet
	for i := 0; i < n; i++ {
		dst := uint32(0x0a000001 + r.Intn(3)) // always hits a route
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{
				{Name: "type", Value: 0x0800}, {Name: "dst_hi", Value: 0x00aa}, {Name: "dst_lo", Value: 0xbbccddee}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 17}, {Name: "dst", Value: dst},
				{Name: "cksum", Value: 0x1234}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		p.Port = uint32(i % 3)
		out = append(out, p)
	}
	return out
}

func compileAt(t testing.TB, lvl driver.Level) *driver.Result {
	t.Helper()
	// A small pre-trace just for profiling.
	base := testutil.BuildIR(t, miniRouter)
	tp := base.Types
	r := workload.NewSource(1)
	var ptr []*packet.Packet
	for i := 0; i < 50; i++ {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 9}, {Name: "dst", Value: uint32(0x0a000001 + r.Intn(3))}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		ptr = append(ptr, p)
	}
	res, err := driver.CompileIR(base, driver.Config{
		Level:        lvl,
		ProfileTrace: ptr,
		Controls:     routerControls,
	})
	if err != nil {
		t.Fatalf("compile at %v: %v", lvl, err)
	}
	return res
}

// hostFrames produces the reference transmitted frames via the host
// interpreter.
func hostFrames(t testing.TB, tr []*packet.Packet) [][]byte {
	t.Helper()
	prog := testutil.BuildIR(t, miniRouter)
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range routerControls {
		if err := s.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tr {
		if err := s.Inject(p.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]byte
	for _, o := range s.Out {
		out = append(out, append([]byte(nil), o.P.Bytes()[o.Head:]...))
	}
	return out
}

// newRT builds a runtime with the routing table installed.
func newRT(t testing.TB, res *driver.Result, trc []*packet.Packet, n int, capture int) *rts.Runtime {
	t.Helper()
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: n, CaptureLimit: capture})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range routerControls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

func TestEndToEndAllLevels(t *testing.T) {
	trc := mkTrace(t, compileAt(t, driver.LevelBase), 24)
	want := hostFrames(t, trc)
	if len(want) != 24 {
		t.Fatalf("reference forwarded %d, want 24", len(want))
	}
	for _, lvl := range driver.Levels() {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			res := compileAt(t, lvl)
			rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
				NumMEs:       2,
				CaptureLimit: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range routerControls {
				if err := rt.Control(c.Name, c.Args...); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Run(600_000); err != nil {
				t.Fatalf("run: %v", err)
			}
			st := rt.M.Snapshot()
			if st.TxPackets == 0 {
				t.Fatalf("no packets forwarded; stats %+v", st)
			}
			// Functional check. Threads complete out of order (as on real
			// network processors), so compare as sets: every transmitted
			// frame must be one of the reference frames, and every
			// distinct reference frame must appear.
			if len(rt.TxCapture) < len(want) {
				t.Fatalf("captured %d frames, want >= %d", len(rt.TxCapture), len(want))
			}
			wantSet := map[string]bool{}
			for _, ref := range want {
				wantSet[string(ref)] = true
			}
			seen := map[string]bool{}
			for i, got := range rt.TxCapture {
				if !wantSet[string(got.Frame)] {
					t.Fatalf("frame %d at %v not among reference frames:\n%x", i, lvl, got.Frame)
				}
				seen[string(got.Frame)] = true
			}
			if len(seen) != len(wantSet) {
				t.Errorf("only %d of %d distinct frames observed", len(seen), len(wantSet))
			}
			t.Logf("%v: %.2f Gbps, %d tx, code sizes %v", lvl,
				st.Gbps(rt.M.Cfg.ClockMHz), st.TxPackets, res.Report.CodeSizes)
		})
	}
}

func TestRatesImproveWithOptimization(t *testing.T) {
	trc := mkTrace(t, compileAt(t, driver.LevelBase), 32)
	rate := map[driver.Level]float64{}
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelPAC, driver.LevelSWC} {
		res := compileAt(t, lvl)
		rt := newRT(t, res, trc, 4, 0)
		if err := rt.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		rate[lvl] = rt.M.Snapshot().Gbps(rt.M.Cfg.ClockMHz)
	}
	t.Logf("rates: BASE=%.2f PAC=%.2f SWC=%.2f", rate[driver.LevelBase], rate[driver.LevelPAC], rate[driver.LevelSWC])
	if rate[driver.LevelPAC] <= rate[driver.LevelBase] {
		t.Errorf("PAC (%.2f) should beat BASE (%.2f)", rate[driver.LevelPAC], rate[driver.LevelBase])
	}
	if rate[driver.LevelSWC] < rate[driver.LevelPAC]*0.95 {
		t.Errorf("SWC (%.2f) regressed vs PAC (%.2f)", rate[driver.LevelSWC], rate[driver.LevelPAC])
	}
}

func TestMemoryAccessCountsDropWithOptimization(t *testing.T) {
	trc := mkTrace(t, compileAt(t, driver.LevelBase), 16)
	perPkt := func(lvl driver.Level) (dram, sram float64) {
		res := compileAt(t, lvl)
		rt := newRT(t, res, trc, 2, 0)
		if err := rt.Run(500_000); err != nil {
			t.Fatal(err)
		}
		st := rt.M.Snapshot()
		dram = st.PerPacket(cg.MemDRAM, cg.ClassPacketData)
		sram = st.PerPacket(cg.MemSRAM, cg.ClassPacketMeta) + st.PerPacket(cg.MemSRAM, cg.ClassAppData)
		return
	}
	dBase, sBase := perPkt(driver.LevelBase)
	dPAC, _ := perPkt(driver.LevelPAC)
	_, sPHR := perPkt(driver.LevelPHR)
	t.Logf("per-packet: BASE dram=%.1f sram=%.1f | PAC dram=%.1f | PHR sram=%.1f",
		dBase, sBase, dPAC, sPHR)
	if dPAC >= dBase {
		t.Errorf("PAC must cut DRAM accesses: %.1f -> %.1f", dBase, dPAC)
	}
	if sPHR >= sBase {
		t.Errorf("PHR must cut SRAM accesses: %.1f -> %.1f", sBase, sPHR)
	}
}

func TestScalingWithMEs(t *testing.T) {
	trc := mkTrace(t, compileAt(t, driver.LevelSWC), 32)
	res := compileAt(t, driver.LevelSWC)
	var rates []float64
	for n := 1; n <= 4; n++ {
		rt := newRT(t, res, trc, n, 0)
		if err := rt.Run(800_000); err != nil {
			t.Fatal(err)
		}
		rates = append(rates, rt.M.Snapshot().Gbps(rt.M.Cfg.ClockMHz))
	}
	t.Logf("rates by MEs: %v", rates)
	if rates[1] <= rates[0]*1.05 {
		t.Errorf("2 MEs should outperform 1: %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1]*0.9 {
			t.Errorf("rate regressed adding MEs: %v", rates)
		}
	}
}

// TestNewRejectsOversizeTracePacket pins rts.New's load-time checks. A
// trace packet must fit its DRAM buffer: one byte over the payload area
// is refused with the packet's index, length and the limit, and exactly
// at the limit loads and forwards. The enabled ME count must lie between
// one and the machine's ME count.
func TestNewRejectsOversizeTracePacket(t *testing.T) {
	res := compileAt(t, driver.LevelBase)
	lay := res.Image.Layout
	limit := int(lay.BufSize - lay.BufHeadroom)
	trc := mkTrace(t, res, 3)
	pad := func(p *packet.Packet, n int) *packet.Packet {
		return packet.New(append(append([]byte(nil), p.Bytes()...), make([]byte, n-p.Len())...),
			res.Prog.Types.Metadata.Bytes)
	}
	trc[1] = pad(trc[1], limit)
	rt := newRT(t, res, trc, 2, 0)
	if err := rt.Run(100_000); err != nil {
		t.Fatalf("trace at the limit: %v", err)
	}
	if tx := rt.M.Snapshot().TxPackets; tx == 0 {
		t.Errorf("trace at the limit forwarded nothing")
	}
	oversize := append([]*packet.Packet(nil), trc...)
	oversize[1] = pad(trc[1], limit+1)
	for _, c := range []struct {
		name string
		trc  []*packet.Packet
		mes  int
		want string
	}{
		{"oversize packet", oversize, 2, "rts: trace packet 1 is 193 bytes, over the 192-byte buffer payload limit"},
		{"0 MEs", trc, 0, "rts: need at least one ME"},
		{"9 MEs", trc, 9, "rts: 9 MEs enabled, but the machine has 8"},
	} {
		_, err := rts.New(res.Image, res.Prog, c.trc, rts.Options{NumMEs: c.mes})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestControlRejectsWrappingOffset: a control whose index times the entry
// stride wraps 32 bits is an out-of-range access, not a store below the
// table. MPLS's ilm entries are 12 bytes, and 357913941 × 12 = 2³²−4, so
// the offset of add_ilm's first store plus one word wraps to 0.
func TestControlRejectsWrappingOffset(t *testing.T) {
	a := apps.MPLS()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	tr := a.Trace(prog.Types, 1, 64)
	res, err := driver.CompileIR(prog, driver.Config{Level: driver.LevelSWC, ProfileTrace: tr, Controls: a.Controls})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rts.New(res.Image, res.Prog, tr, rts.Options{NumMEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Control("mplsapp.add_ilm", 357913941, 7, 8, 9)
	const want = "global mplsapp.ilm access at byte 4294967292 out of range"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("add_ilm(357913941, ...): got %v, want an error containing %q", err, want)
	}
}
