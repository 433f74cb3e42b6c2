package apps_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/lower"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
)

func buildApp(t *testing.T, a *apps.App) *profiler.Session {
	t.Helper()
	prog, err := lower.Lower(checkTypes(t, a))
	if err != nil {
		t.Fatalf("lower %s: %v", a.Name, err)
	}
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatalf("session %s: %v", a.Name, err)
	}
	for _, c := range a.Controls {
		if err := s.Control(c.Name, c.Args...); err != nil {
			t.Fatalf("control %s %s: %v", a.Name, c.Name, err)
		}
	}
	return s
}

func runTrace(t *testing.T, a *apps.App, s *profiler.Session, n int) {
	t.Helper()
	tr := a.Trace(s.Prog.Types, 42, n)
	if len(tr) != n {
		t.Fatalf("%s trace length %d, want %d", a.Name, len(tr), n)
	}
	for _, p := range tr {
		if err := s.Inject(p); err != nil {
			t.Fatalf("%s inject: %v", a.Name, err)
		}
	}
}

func TestAppsCompileAndForward(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			s := buildApp(t, a)
			runTrace(t, a, s, 400)
			fwd := float64(s.Stats.Forwarded) / 400
			t.Logf("%s: forwarded %d/400 (%.0f%%), dropped %d",
				a.Name, s.Stats.Forwarded, fwd*100, s.Stats.Dropped)
			if fwd < a.MinForwardFraction {
				t.Errorf("forward fraction %.2f below expected %.2f",
					fwd, a.MinForwardFraction)
			}
			if s.Stats.Forwarded+s.Stats.Dropped != 400 {
				t.Errorf("packets leaked: fwd %d + drop %d != 400",
					s.Stats.Forwarded, s.Stats.Dropped)
			}
		})
	}
}

func TestL3SwitchBehaviour(t *testing.T) {
	a := apps.L3Switch()
	s := buildApp(t, a)
	runTrace(t, a, s, 400)
	read := func(name string) uint32 {
		v, err := s.ReadGlobalWord("l3switch."+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	routed, bridged, arp := read("routed"), read("bridged")+read("flooded"), read("arp_seen")
	t.Logf("routed=%d bridged=%d arp=%d no_route=%d bad_ip=%d",
		routed, bridged, arp, read("no_route"), read("bad_ip"))
	if routed < 300 {
		t.Errorf("routed = %d, want most of 400", routed)
	}
	if bridged < 30 {
		t.Errorf("bridged = %d, want ~57", bridged)
	}
	if arp != 2 {
		t.Errorf("arp = %d, want 2 (1 in 200)", arp)
	}
	if read("no_route") != 0 {
		t.Errorf("no_route = %d; traces must always hit installed prefixes", read("no_route"))
	}
	// Routed packets must carry a rewritten destination MAC and a
	// decremented TTL.
	found := false
	tp := s.Prog.Types
	for _, o := range s.Out {
		b := o.P.Bytes()
		dhi, _ := o.P.ReadField(0, tp.Protocols["ether"].Field("dst_hi"))
		if dhi == 0x0bb0 {
			found = true
			ttl, _ := o.P.ReadField(14, tp.Protocols["ipv4"].Field("ttl"))
			if ttl < 16 || ttl >= 64 {
				t.Errorf("routed ttl = %d, want decremented original", ttl)
			}
		}
		_ = b
	}
	if !found {
		t.Error("no routed packet with neighbor MAC observed")
	}
}

func TestL3SwitchLongestPrefixMatch(t *testing.T) {
	a := apps.L3Switch()
	s := buildApp(t, a)
	tp := s.Prog.Types
	// 10.1.x.x must match 10.1/16 (nh 2), not 10/8 (nh 1).
	cases := []struct {
		dst    uint32
		wantNH uint32
	}{
		{0x0a010203, 2},
		{0x0a800001, 1},
		{0xc0a80105, 4},
		{0xc0a87777, 3},
		{0xac10aaaa, 5},
	}
	for _, c := range cases {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{
				{Name: "dst_hi", Value: 0x0a00}, {Name: "dst_lo", Value: 0x5e000000}, {Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 30}, {Name: "dst", Value: c.dst}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		p.Port = 0
		if err := s.Inject(p); err != nil {
			t.Fatal(err)
		}
		out := s.Out[len(s.Out)-1]
		nh := out.P.MetaField(tp.Metadata.Field("next_hop"))
		if nh != c.wantNH {
			t.Errorf("dst %08x: next_hop = %d, want %d", c.dst, nh, c.wantNH)
		}
	}
}

func TestMPLSBehaviour(t *testing.T) {
	a := apps.MPLS()
	s := buildApp(t, a)
	runTrace(t, a, s, 400)
	read := func(name string) uint32 {
		v, err := s.ReadGlobalWord("mplsapp."+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	t.Logf("swapped=%d popped=%d pushed=%d imposed=%d no_ilm=%d no_fec=%d",
		read("swapped"), read("popped"), read("pushed"), read("imposed"),
		read("no_ilm"), read("no_fec"))
	if read("swapped") < 150 {
		t.Errorf("swapped = %d, want majority", read("swapped"))
	}
	if read("popped") < 40 {
		t.Errorf("popped = %d", read("popped"))
	}
	if read("pushed") < 10 {
		t.Errorf("pushed = %d", read("pushed"))
	}
	if read("imposed") < 30 {
		t.Errorf("imposed = %d", read("imposed"))
	}
	if read("no_fec") != 0 || read("no_ilm") != 0 {
		t.Errorf("misses: no_fec=%d no_ilm=%d", read("no_fec"), read("no_ilm"))
	}
	// Pushed/imposed packets grow; swapped keep size. Check some frame
	// carries an extra 4-byte label (68-byte frame from 64).
	sawGrown := false
	for _, o := range s.Out {
		if len(o.P.Bytes())-o.Head > 64 {
			sawGrown = true
		}
	}
	if !sawGrown {
		t.Error("no grown frame observed (push/imposition should add labels)")
	}
}

func TestFirewallBehaviour(t *testing.T) {
	a := apps.Firewall()
	s := buildApp(t, a)
	runTrace(t, a, s, 400)
	read := func(name string) uint32 {
		v, err := s.ReadGlobalWord("firewall."+name, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	allowed, denied, unmatched := read("allowed"), read("denied"), read("unmatched")
	t.Logf("allowed=%d denied=%d unmatched=%d", allowed, denied, unmatched)
	if allowed < 220 {
		t.Errorf("allowed = %d, want ~70%%", allowed)
	}
	if denied < 50 {
		t.Errorf("denied = %d, want ~20%%", denied)
	}
	if unmatched < 20 {
		t.Errorf("unmatched = %d, want ~10%%", unmatched)
	}
	if allowed+denied+unmatched != 400 {
		t.Errorf("classification leak: %d+%d+%d != 400", allowed, denied, unmatched)
	}
	if uint64(allowed) != s.Stats.Forwarded {
		t.Errorf("forwarded %d != allowed %d", s.Stats.Forwarded, allowed)
	}
}
