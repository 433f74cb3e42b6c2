package profiler

import (
	"math"
	"slices"
	"testing"

	"shangrila/internal/packet"
)

// sinkOf runs the sink-only analysis on a module of four counters and a
// table around the given PPF body and reports the verdict per counter.
func sinkOf(t *testing.T, body string) map[string]bool {
	t.Helper()
	prog := lowerSrc(t, `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint tbl[8];
	uint a;
	uint b;
	uint c;
	uint d;
	channel out : p;
	ppf f(p ph) { `+body+` channel_put(out, ph); }
	wiring { rx -> f; out -> tx; }
}`)
	sink := sinkOnly(prog)
	got := map[string]bool{}
	for _, name := range []string{"a", "b", "c", "d", "tbl"} {
		got[name] = sink[prog.Types.Globals["m."+name].ID]
	}
	return got
}

// TestSinkOnly: a counter that only counts is sink-only, and so is one
// whose value only reaches other sink-only counters; a counter that is
// branched on, used as an index, written into a packet, or copied into a
// global that is any of these is not.
func TestSinkOnly(t *testing.T) {
	cases := []struct {
		name, body string
		want       map[string]bool
	}{
		{"counters", `a += 1; b = b + a * 3; c = tbl[ph->x & 7] + 1;`,
			map[string]bool{"a": true, "b": true, "c": true, "d": true, "tbl": true}},
		{"branched on", `a += 1; if (a > 3) { ph->y = 1; }`,
			map[string]bool{"a": false, "b": true, "c": true, "d": true, "tbl": true}},
		{"index", `a += 1; tbl[a & 7] = 1;`,
			map[string]bool{"a": false, "b": true, "c": true, "d": true, "tbl": true}},
		{"copied into a global branched on", `a += 1; b = a + 1; if (b == 9) { c += 1; }`,
			map[string]bool{"a": false, "b": false, "c": true, "d": true, "tbl": true}},
		// A zero divisor gives 0, so a divisor steers nothing.
		{"divisor", `a += 1; b = 100 / a; d = a / 3;`,
			map[string]bool{"a": true, "b": true, "c": true, "d": true, "tbl": true}},
		{"packet write", `a += 1; ph->y = tbl[ph->x & 7] + a;`,
			map[string]bool{"a": false, "b": true, "c": true, "d": true, "tbl": false}},
	}
	for _, c := range cases {
		got := sinkOf(t, c.body)
		for name, want := range c.want {
			if got[name] != want {
				t.Errorf("%s: %s sink-only %v, want %v", c.name, name, got[name], want)
			}
		}
	}
}

// TestFaultLeavesNoState: a packet that faults half-way leaves neither a
// queued channel message nor an open critical section behind, so the next
// packet runs as it would on a fresh session.
func TestFaultLeavesNoState(t *testing.T) {
	prog := lowerSrc(t, `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint tbl[4];
	uint seen;
	channel mid : p;
	channel out : p;
	ppf f(p ph) { p cp = packet_copy(ph); channel_put(mid, ph); channel_put(out, cp); }
	ppf g(p ph) { critical { tbl[ph->x] = 1; } seen += 1; channel_put(out, ph); }
	wiring { rx -> f; mid -> g; out -> tx; }
}`)
	pkt := func(x uint32) *packet.Packet {
		p := packet.New(make([]byte, 8), prog.Types.Metadata.Bytes)
		p.Bytes()[3] = byte(x)
		return p
	}
	faulted, err := NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := faulted.Inject(pkt(9)); err == nil { // tbl[9] is out of range, inside the critical section
		t.Fatal("an out-of-range index did not fault")
	}
	faulted.Out = nil
	fresh, err := NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{faulted, fresh} {
		if err := s.Inject(pkt(1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(faulted.Out) != len(fresh.Out) || faulted.Stats.Forwarded != fresh.Stats.Forwarded ||
		faulted.Stats.Dropped != fresh.Stats.Dropped {
		t.Errorf("after a fault: %d out, %d forwarded, %d dropped; on a fresh session %d, %d, %d",
			len(faulted.Out), faulted.Stats.Forwarded, faulted.Stats.Dropped,
			len(fresh.Out), fresh.Stats.Forwarded, fresh.Stats.Dropped)
	}
	if faulted.env.globals[prog.Types.Globals["m.seen"].ID].stats.InCritical {
		t.Error("an access outside any critical section was counted inside one after a fault")
	}
	a, _ := faulted.ReadGlobalWord("m.seen", 0)
	b, _ := fresh.ReadGlobalWord("m.seen", 0)
	if a != b {
		t.Errorf("after a fault the counter holds %d, on a fresh session %d", a, b)
	}
}

// TestIncrementalEpochWraps: the recorder's marks — per word, per cache
// line, per function, per global's writes and critical accesses, and per
// channel — start over before their epoch would wrap, and the profiles on
// either side of that still equal full ones.
func TestIncrementalEpochWraps(t *testing.T) {
	prog := lowerSrc(t, `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint tbl[4];
	uint hits;
	channel mid : p;
	channel out : p;
	ppf f(p ph) {
		uint i = ph->x & 3;
		critical { tbl[i] = tbl[i] + 1; }
		if ((tbl[i] & 2) == 2) { hits += 1; packet_drop(ph); } else { channel_put(mid, ph); }
	}
	ppf g(p ph) { channel_put(out, ph); }
	control func set_tbl(uint i, uint v) { tbl[i & 3] = v; }
	wiring { rx -> f; mid -> g; out -> tx; }
}`)
	var tr []*packet.Packet
	for i := 0; i < 16; i++ {
		p := packet.New(make([]byte, 8), prog.Types.Metadata.Bytes)
		p.Bytes()[3] = byte(i * 7)
		tr = append(tr, p)
	}
	var controls []Control
	in, _, err := NewIncremental(prog, tr, controls)
	if err != nil {
		t.Fatal(err)
	}
	r := in.rec
	r.epoch = math.MaxUint32/2 - 3
	for d := uint32(0); d < 8; d++ {
		controls = append(controls, Control{Name: "m.set_tbl", Args: []uint32{d, d * 5}})
		got, err := in.Profile(controls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ProfileWithControls(prog, tr, controls)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("write %d, epoch %d: the incremental profile differs from a full one in %s", d, r.epoch, got.Diff(prog, want))
		}
	}
	if r.epoch > 1000 {
		t.Fatalf("epoch %d: the marks never started over", r.epoch)
	}
	// Every array holds marks now; the next packet's begin at the last
	// epoch must clear them all.
	arrays := func() []struct {
		name  string
		marks []mark
	} {
		epochs := func(ms []uint32) []mark {
			marks := make([]mark, len(ms))
			for i, m := range ms {
				marks[i].epoch = m
			}
			return marks
		}
		return []struct {
			name  string
			marks []mark
		}{{"word", epochs(r.marks)}, {"line", epochs(r.lines)}, {"function", r.funcs}, {"write", r.gwrites},
			{"critical", r.gcrits}, {"channel", r.chans}}
	}
	for _, a := range arrays() {
		if !slices.ContainsFunc(a.marks, func(m mark) bool { return m.epoch != 0 }) {
			t.Errorf("no %s mark was made: the test does not reach that array", a.name)
		}
	}
	r.epoch = math.MaxUint32 / 2
	r.begin(in.work, &pktLog{})
	for _, a := range arrays() {
		if i := slices.IndexFunc(a.marks, func(m mark) bool { return m.epoch != 0 }); i >= 0 {
			t.Errorf("%s mark %d holds epoch %d after the marks started over", a.name, i, a.marks[i].epoch)
		}
	}
}
