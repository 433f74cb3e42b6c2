package analysis_test

import (
	"reflect"
	"testing"

	"shangrila/internal/analysis"
	"shangrila/internal/apps"
	"shangrila/internal/ir"
	"shangrila/internal/testutil"
)

const diamondSrc = `
protocol p { x:32; demux { 4 }; }
module m {
	uint g;
	ppf f(p ph) {
		uint v = ph->x;
		if (v > 10) { g = 1; } else { g = 2; }
		g = v;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}`

func TestDominators(t *testing.T) {
	prog := testutil.BuildIR(t, diamondSrc)
	f := prog.Func("m.f")
	var dom analysis.Dominators
	dom.Compute(f)
	entry := f.Entry
	for _, b := range f.Blocks {
		if !dom.Dominates(entry, b) {
			t.Errorf("entry must dominate b%d", b.ID)
		}
		if !dom.Dominates(b, b) {
			t.Errorf("dominance must be reflexive (b%d)", b.ID)
		}
	}
	// The two branch arms must not dominate each other or the join.
	term := entry.Terminator()
	if term.Op != ir.OpCondBr {
		t.Fatalf("entry terminator = %v", term.Op)
	}
	thenB, elseB := term.Blocks[0], term.Blocks[1]
	if dom.Dominates(thenB, elseB) || dom.Dominates(elseB, thenB) {
		t.Error("branch arms must not dominate each other")
	}
	// The join block (successor of both arms) is not dominated by either arm.
	if len(thenB.Succs) == 1 {
		join := thenB.Succs[0]
		if dom.Dominates(thenB, join) {
			t.Error("then-arm must not dominate join")
		}
		if !dom.Dominates(entry, join) {
			t.Error("entry must dominate join")
		}
	}
}

func TestLiveness(t *testing.T) {
	prog := testutil.BuildIR(t, diamondSrc)
	f := prog.Func("m.f")
	var lv analysis.Liveness
	lv.Compute(f)
	// The handle parameter is used by packet_drop at the end, so it must
	// be live-out of the entry block.
	h := f.Params[0]
	if !lv.Out(f.Entry).Has(int(h)) {
		t.Errorf("handle %v not live-out of entry", h)
	}
	// Nothing is live out of the exit block.
	for _, b := range f.Blocks {
		if t2 := b.Terminator(); t2 != nil && t2.Op == ir.OpRet {
			lv.Out(b).ForEach(func(r int) {
				t.Errorf("exit block b%d has live-out reg %v", b.ID, ir.Reg(r))
			})
		}
	}
}

func TestDefCountsIncludesParams(t *testing.T) {
	prog := testutil.BuildIR(t, diamondSrc)
	f := prog.Func("m.f")
	counts := analysis.DefCounts(f, nil)
	if counts[f.Params[0]] == 0 {
		t.Error("param must count as a definition")
	}
	// Counting into storage left over from a larger count starts from zero.
	dirty := make([]int, f.NumRegs+3)
	for i := range dirty {
		dirty[i] = 7
	}
	if again := analysis.DefCounts(f, dirty); !reflect.DeepEqual(again, counts) {
		t.Errorf("DefCounts into used storage = %v, want %v", again, counts)
	}
}

// TestSolveBackward pins the solver on a hand-built loop: 0 -> 1 -> {1, 2}.
// Bit 0 is used in block 2 only, so it is live around the loop; bit 1 is
// defined in block 0 and used in block 1; bit 65 (second word) is used in
// block 1 before block 1 redefines it, so it is live into block 0 too.
func TestSolveBackward(t *testing.T) {
	const w = 2
	succs := [][]int{{1}, {1, 2}, nil}
	gen, kill := make([]uint64, 3*w), make([]uint64, 3*w)
	row := func(s []uint64, b int) analysis.Bits { return s[b*w : (b+1)*w] }
	row(kill, 0).Set(1)
	row(gen, 1).Set(1)
	row(gen, 1).Set(65)
	row(kill, 1).Set(65)
	row(gen, 2).Set(0)
	in, out := make([]uint64, 3*w), make([]uint64, 3*w)
	for i := range in {
		in[i], out[i] = ^uint64(0), ^uint64(0) // overwritten, not added to
	}
	analysis.SolveBackward(succs, gen, kill, in, out)
	members := func(s analysis.Bits) (m []int) {
		s.ForEach(func(i int) { m = append(m, i) })
		return m
	}
	want := []struct{ in, out []int }{
		{in: []int{0, 65}, out: []int{0, 1, 65}},
		{in: []int{0, 1, 65}, out: []int{0, 1, 65}},
		{in: []int{0}, out: nil},
	}
	for b, wnt := range want {
		if got := members(row(in, b)); !reflect.DeepEqual(got, wnt.in) {
			t.Errorf("in[%d] = %v, want %v", b, got, wnt.in)
		}
		if got := members(row(out, b)); !reflect.DeepEqual(got, wnt.out) {
			t.Errorf("out[%d] = %v, want %v", b, got, wnt.out)
		}
	}
}

// BenchmarkComputeLiveness solves liveness for the largest function of the
// lowered L3-Switch (its route-insertion control function: three loops),
// into storage kept across iterations as the optimizer keeps it.
func BenchmarkComputeLiveness(b *testing.B) {
	prog := testutil.BuildIR(b, apps.L3Switch().Source)
	var f *ir.Func
	for _, g := range prog.Funcs {
		if f == nil || len(g.Blocks) > len(f.Blocks) {
			f = g
		}
	}
	var lv analysis.Liveness
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv.Compute(f)
	}
}
