package profiler

import (
	"sort"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/lower"
	"shangrila/internal/packet"
	"shangrila/internal/trace"
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
    uint hits;
    uint misses;
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
        uint nh = 0;
        for (uint i = 0; i < 64; i++) {
            if (table[i].dst == dst) { nh = table[i].nh; break; }
        }
        if (nh == 0) {
            misses += 1;
            packet_drop(ph);
        } else {
            hits += 1;
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

    init func setup() {
        table[0].dst = 0x0a000001;
        table[0].nh = 5;
    }

    wiring { rx -> clsfr; ip_cc -> fwd; out_cc -> tx; }
}
`

func buildApp(t *testing.T) *Session {
	t.Helper()
	prog, err := parser.Parse("app.baker", appSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tp, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := lower.Lower(tp)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	s, err := NewSession(p)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return s
}

func mkPacket(t *testing.T, s *Session, dst uint32, ethType uint32) *packet.Packet {
	t.Helper()
	tp := s.Prog.Types
	p, err := trace.Build([]trace.Layer{
		{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: ethType}}},
		{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 64}, {Name: "dst", Value: dst}}, Size: 20},
	}, 64, tp.Metadata.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEndToEndForwarding(t *testing.T) {
	s := buildApp(t)
	// Init installed 0x0a000001 -> nh 5.
	p := mkPacket(t, s, 0x0a000001, 0x0800)
	if err := s.Inject(p); err != nil {
		t.Fatal(err)
	}
	if len(s.Out) != 1 {
		t.Fatalf("forwarded = %d, want 1", len(s.Out))
	}
	out := s.Out[0].P
	nh := out.MetaField(s.Prog.Types.Metadata.Field("next_hop"))
	if nh != 5 {
		t.Errorf("next_hop = %d, want 5", nh)
	}
	// TTL decremented in the IPv4 header (packet re-encapsulated, so the
	// header sits 14 bytes in).
	ttl := packet.ReadBits(out.Bytes(), (14+8)*8, 8)
	if ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	if s.Out[0].Head != 0 {
		t.Errorf("head = %d, want 0 after encap", s.Out[0].Head)
	}
}

func TestDropPaths(t *testing.T) {
	s := buildApp(t)
	// Non-IP packet dropped by clsfr.
	if err := s.Inject(mkPacket(t, s, 0, 0x0806)); err != nil {
		t.Fatal(err)
	}
	// Unknown destination dropped by fwd.
	if err := s.Inject(mkPacket(t, s, 0xdeadbeef, 0x0800)); err != nil {
		t.Fatal(err)
	}
	if len(s.Out) != 0 {
		t.Fatalf("forwarded = %d, want 0", len(s.Out))
	}
	if s.Stats.Dropped != 2 {
		t.Errorf("dropped = %d, want 2", s.Stats.Dropped)
	}
	misses, err := s.ReadGlobalWord("app.misses", 0)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

func TestControlFunction(t *testing.T) {
	s := buildApp(t)
	if err := s.Control("app.add_route", 3, 0xc0a80101, 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(mkPacket(t, s, 0xc0a80101, 0x0800)); err != nil {
		t.Fatal(err)
	}
	if len(s.Out) != 1 {
		t.Fatalf("forwarded = %d, want 1", len(s.Out))
	}
	nh := s.Out[0].P.MetaField(s.Prog.Types.Metadata.Field("next_hop"))
	if nh != 9 {
		t.Errorf("next_hop = %d, want 9", nh)
	}
}

func TestProfileStats(t *testing.T) {
	s := buildApp(t)
	var tr []*packet.Packet
	for i := 0; i < 10; i++ {
		dst := uint32(0x0a000001)
		if i%2 == 1 {
			dst = 0x99999999 // miss
		}
		tr = append(tr, mkPacket(t, s, dst, 0x0800))
	}
	stats, err := Profile(s.Prog, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != 10 {
		t.Errorf("packets = %d", stats.Packets)
	}
	if stats.Forwarded != 5 {
		t.Errorf("forwarded = %d, want 5", stats.Forwarded)
	}
	if stats.Dropped != 5 {
		t.Errorf("dropped = %d, want 5", stats.Dropped)
	}
	tp := s.Prog.Types
	if n := stats.Chans[tp.Channels["app.ip_cc"].ID]; n != 10 {
		t.Errorf("ip_cc msgs = %d, want 10", n)
	}
	if n := stats.Chans[tp.Channels["app.out_cc"].ID]; n != 5 {
		t.Errorf("out_cc msgs = %d, want 5", n)
	}
	if clsfr := stats.Funcs[s.Prog.Index("app.clsfr")]; clsfr.Invocations != 10 {
		t.Fatalf("clsfr stats = %+v", clsfr)
	}
	if fwd := stats.Funcs[s.Prog.Index("app.fwd")]; fwd.Invocations != 10 || fwd.Instrs == 0 {
		t.Fatalf("fwd stats = %+v", fwd)
	}
	// table is read-heavy: hit-rate estimate should be near 1 (one line).
	gs := stats.Globals[tp.Globals["app.table"].ID]
	if gs.Reads == 0 {
		t.Fatalf("table stats = %+v", gs)
	}
	if hr := gs.EstHitRate(); hr < 0.5 {
		t.Errorf("table est hit rate = %.2f, want high", hr)
	}
}

func TestCriticalSectionTracking(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	uint counter;
	ppf f(p ph) { critical { counter += 1; } packet_drop(ph); }
	wiring { rx -> f; }
}`
	prog, err := parser.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := lower.Lower(tp)
	if err != nil {
		t.Fatal(err)
	}
	var tr []*packet.Packet
	for i := 0; i < 3; i++ {
		tr = append(tr, packet.New(make([]byte, 64), tp.Metadata.Bytes))
	}
	stats, err := Profile(ip, tr)
	if err != nil {
		t.Fatal(err)
	}
	gs := stats.Globals[tp.Globals["m.counter"].ID]
	if !gs.InCritical {
		t.Fatalf("counter critical tracking: %+v", gs)
	}
	if gs.Reads != 3 || gs.Writes != 3 {
		t.Errorf("counter reads=%d writes=%d, want 3/3", gs.Reads, gs.Writes)
	}
}

func TestInfiniteLoopDetected(t *testing.T) {
	src := `
protocol p { x:32; demux { 4 }; }
module m {
	ppf f(p ph) { while (1) { } packet_drop(ph); }
	wiring { rx -> f; }
}`
	prog, _ := parser.Parse("t", src)
	tp, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := lower.Lower(tp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Profile(ip, []*packet.Packet{packet.New(make([]byte, 64), 4)})
	if err == nil {
		t.Fatal("expected runaway-loop error")
	}
}

// estHitRateBySort is EstHitRate as a sort of every line count: the share
// of reads on the 16 most-read lines.
func estHitRateBySort(g *GlobalStats) float64 {
	if g.Reads == 0 {
		return 0
	}
	var counts []uint64
	for _, c := range g.LineReads {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	var top uint64
	for i, c := range counts {
		if i < SWCacheEntries {
			top += c
		}
	}
	return float64(top) / float64(g.Reads)
}

// TestEstHitRateMatchesSort: EstHitRate keeps the 16 largest line counts
// as it goes instead of sorting them all, and its result is bit-identical
// to the sort's — with ties across the 16th place, fewer than 16 lines, no
// lines and no reads.
func TestEstHitRateMatchesSort(t *testing.T) {
	lines := func(counts ...uint64) map[uint32]uint64 {
		m := map[uint32]uint64{}
		for i, c := range counts {
			m[uint32(i)*7] = c
		}
		return m
	}
	var ramp, flat, steps []uint64
	for i := uint64(0); i < 40; i++ {
		ramp = append(ramp, i*i+1)
		flat = append(flat, 5)
		steps = append(steps, 1+i/3) // ties straddle the 16th place
	}
	cases := []struct {
		name string
		g    GlobalStats
	}{
		{"no reads", GlobalStats{}},
		{"reads, no lines", GlobalStats{Reads: 9}},
		{"one line", GlobalStats{Reads: 7, LineReads: lines(7)}},
		{"fewer than 16", GlobalStats{Reads: 100, LineReads: lines(3, 1, 4, 1, 5, 9, 2, 6)}},
		{"exactly 16", GlobalStats{Reads: 200, LineReads: lines(ramp[:16]...)}},
		{"ramp of 40", GlobalStats{Reads: 30000, LineReads: lines(ramp...)}},
		{"all tied", GlobalStats{Reads: 200, LineReads: lines(flat...)}},
		{"ties at the 16th", GlobalStats{Reads: 1000, LineReads: lines(steps...)}},
		{"zero counts", GlobalStats{Reads: 3, LineReads: lines(0, 0, 3, 0)}},
		{"huge counts", GlobalStats{Reads: 1 << 62, LineReads: lines(1<<60, 1<<59, 3, 1<<60)}},
	}
	for _, c := range cases {
		got, want := c.g.EstHitRate(), estHitRateBySort(&c.g)
		if got != want {
			t.Errorf("%s: EstHitRate %v, by sort %v", c.name, got, want)
		}
	}
}
