package profiler_test

import (
	"bytes"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

func l3switchLowered(tb testing.TB) (*apps.App, *ir.Program) {
	tb.Helper()
	a := apps.L3Switch()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		tb.Fatal(err)
	}
	return a, prog
}

// TestProfileAllocations pins what one Figure-5 profile of L3-Switch
// lowered IR over its 512-packet trace allocates: 181 at PR 21 — the Stats
// maps, each global's backing and line counters, one decode per function,
// one argument slice per boot control — against 5152 before it, when every
// activation made a register file and every store a word slice. The
// ceiling is 1.3x the measured value.
func TestProfileAllocations(t *testing.T) {
	a, prog := l3switchLowered(t)
	tr := a.Trace(prog.Types, 7, 512)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := profiler.ProfileWithControls(prog, tr, a.Controls); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 240 {
		t.Errorf("ProfileWithControls allocates %.0f times, ceiling 240", allocs)
	}
}

// TestProfileLeavesTraceUntouched: the applications rewrite the packets
// they run (MACs, TTLs, pushed and swapped labels, the receive port mirrored
// into metadata), but a profile runs a copy of each trace packet, so every
// trace packet keeps its bytes, headroom, head, metadata and port.
func TestProfileLeavesTraceUntouched(t *testing.T) {
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		tr := a.Trace(prog.Types, 7, 512)
		pristine := make([]*packet.Packet, len(tr))
		for i, p := range tr {
			pristine[i] = p.Clone()
		}
		stats, err := profiler.ProfileWithControls(prog, tr, a.Controls)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Forwarded == 0 {
			t.Fatalf("%s: the profile forwarded nothing, so rewrote nothing", a.Name)
		}
		for i, p := range tr {
			want := pristine[i]
			got, err := p.ReadRaw(0, -packet.Headroom, packet.Headroom+p.Len())
			if err != nil {
				t.Fatalf("%s: packet %d lost its headroom: %v", a.Name, i, err)
			}
			whole, _ := want.ReadRaw(0, -packet.Headroom, packet.Headroom+want.Len())
			if !bytes.Equal(got, whole) || !bytes.Equal(p.Meta, want.Meta) || p.Port != want.Port {
				t.Fatalf("%s: profiling rewrote trace packet %d", a.Name, i)
			}
		}
	}
}

// TestInjectSteadyStateAllocs: once every function is decoded and the
// register stack and channel queue have grown, injecting a packet allocates
// nothing in the executor (6-7 allocations per packet before PR 21). What
// remains belongs to the caller or the packet model and does not occur on
// these traces: Out's amortized growth when the caller lets it accumulate
// (the test truncates it), and packet.Packet growth in packet_copy,
// packet_create, packet_add_tail and an encap beyond the headroom.
func TestInjectSteadyStateAllocs(t *testing.T) {
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		s, err := profiler.NewSession(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range a.Controls {
			if err := s.Control(c.Name, c.Args...); err != nil {
				t.Fatal(err)
			}
		}
		tr := a.Trace(prog.Types, 7, 612)
		for _, p := range tr[:100] {
			if err := s.Inject(p); err != nil {
				t.Fatal(err)
			}
		}
		next := 100
		allocs := testing.AllocsPerRun(500, func() {
			s.Out = s.Out[:0]
			if err := s.Inject(tr[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per warmed Inject, want 0", a.Name, allocs)
		}
	}
}

// BenchmarkProfile is the "profile" layer on its own: one Figure-5 profile
// of L3-Switch lowered IR over its 512-packet trace per iteration.
func BenchmarkProfile(b *testing.B) {
	a, prog := l3switchLowered(b)
	tr := a.Trace(prog.Types, 7, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.ProfileWithControls(prog, tr, a.Controls); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(512, "packets/op")
}

// TestDecodeFusesConstants is a census of the constant superinstructions:
// decode fuses 171 of the 210 OpConst instructions of the three apps'
// lowered IR (81 %) into the word op, comparison or table load after them.
// A refactor that switches fusion off, or narrows it, fails here; no
// wall-clock time is checked.
func TestDecodeFusesConstants(t *testing.T) {
	consts, fused := 0, 0
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		c, f, err := profiler.FusedConsts(prog)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		consts, fused = consts+c, fused+f
	}
	if consts == 0 || 4*fused < 3*consts {
		t.Errorf("decode fused %d of %d constants, want at least three quarters", fused, consts)
	}
}
