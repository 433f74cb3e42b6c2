package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// TestLadderMatchesCold pins the level ladder to the compiles it replaces:
// whatever levels are asked for and in whatever order, each level's final
// IR, image and report are those of a cold harness.Compile at that level.
// The three applications, every checked-in fuzz-corpus reproducer and 25
// generated programs from the fuzz-ci window are compared at all seven
// levels; the applications and the corpus also in reversed order (every
// level, +SWC included, compiles before the first is handed back, because
// each rung resumes from a lower rung's fork) and as the subsets
// {BASE, +SWC} and {+PHR}.
func TestLadderMatchesCold(t *testing.T) {
	type program struct {
		app    *apps.App
		seed   uint64
		orders [][]driver.Level
	}
	reversed := driver.Levels()
	slices.Reverse(reversed)
	every := [][]driver.Level{driver.Levels(), reversed,
		{driver.LevelBase, driver.LevelSWC}, {driver.LevelPHR}}

	var programs []program
	for _, a := range apps.All() {
		programs = append(programs, program{a, 7, every})
	}
	for _, spec := range corpusSpecs(t) {
		programs = append(programs, program{spec.Build(), spec.Seed, every})
	}
	for seed := uint64(4242); seed <= 4266; seed++ {
		programs = append(programs, program{bakergen.NewSpec(seed).Build(), seed, every[:1]})
	}

	for _, p := range programs {
		p := p
		t.Run(fmt.Sprintf("%s-%d", p.app.Name, p.seed), func(t *testing.T) {
			t.Parallel()
			cold := map[driver.Level]*driver.Result{}
			for _, lvl := range driver.Levels() {
				res, err := Compile(p.app, lvl, p.seed)
				if err != nil {
					t.Fatalf("cold compile at %v: %v", lvl, err)
				}
				cold[lvl] = res
			}
			for _, order := range p.orders {
				prog, err := driver.LowerSource(p.app.Name+".baker", p.app.Source)
				if err != nil {
					t.Fatal(err)
				}
				ld, err := newLadder(p.app, prog, p.seed, order)
				if err != nil {
					t.Fatal(err)
				}
				for _, lvl := range order {
					res, err := ld.Compile(lvl)
					if err != nil {
						t.Fatalf("ladder %v at %v: %v", order, lvl, err)
					}
					if diff := compareCompiles(res, cold[lvl]); diff != "" {
						t.Errorf("ladder %v at %v differs from the cold compile: %s", order, lvl, diff)
					}
				}
			}
		})
	}
}

// compareCompiles names the first difference between two compiles of one
// program at one level, timings aside; "" when there is none.
func compareCompiles(got, want *driver.Result) string {
	gotIR, err := got.DumpIR()
	if err != nil {
		return err.Error()
	}
	wantIR, err := want.DumpIR()
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(gotIR, wantIR) {
		return "final IR"
	}

	gi, wi := got.Image, want.Image
	if len(gi.MECode) != len(wi.MECode) || len(gi.XScale) != len(wi.XScale) {
		return "aggregate counts"
	}
	for i, g := range gi.MECode {
		w := wi.MECode[i]
		if fmt.Sprint(g.Program.Code) != fmt.Sprint(w.Program.Code) {
			return fmt.Sprintf("ME %d code", i)
		}
		if g.Program.Name != w.Program.Name || g.Program.StackBytes != w.Program.StackBytes ||
			g.Program.SRAMSpillWords != w.Program.SRAMSpillWords ||
			!reflect.DeepEqual(g.InputRings, w.InputRings) || !reflect.DeepEqual(g.Agg, w.Agg) {
			return fmt.Sprintf("ME %d frame, rings or aggregate", i)
		}
	}
	for i, g := range gi.XScale {
		if !reflect.DeepEqual(g.Agg, wi.XScale[i].Agg) {
			return fmt.Sprintf("XScale aggregate %d", i)
		}
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"layout", gi.Layout, wi.Layout},
		{"ring wiring", gi.RingOf, wi.RingOf},
		{"channel facts", gi.ChanFacts, wi.ChanFacts},
		{"codegen options", gi.Opts, wi.Opts},
		{"image plan", gi.Plan, wi.Plan},
		{"report level", got.Report.Level, want.Report.Level},
		{"report plan", got.Report.Plan, want.Report.Plan},
		{"profile stats", got.Report.ProfileStats, want.Report.ProfileStats},
		{"SOAR stats", got.Report.SOAR, want.Report.SOAR},
		{"PAC stats", got.Report.PAC, want.Report.PAC},
		{"PHR stats", got.Report.PHR, want.Report.PHR},
		{"code sizes", got.Report.CodeSizes, want.Report.CodeSizes},
		{"SWC candidates", candidates(got), candidates(want)},
		{"pass rows", passRows(got), passRows(want)},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Sprintf("%s: %+v, cold %+v", f.name, f.got, f.want)
		}
	}
	return ""
}

// candidates renders the SWC selection by name: the candidates point into
// the program's types, which the two compiles lowered separately.
func candidates(r *driver.Result) []string {
	var out []string
	for _, c := range r.Report.SWCCands {
		out = append(out, fmt.Sprintf("%s %s %s %d %v", c.Global.Name, c.Flag.Name, c.Seen.Name,
			c.CheckLimit, c.HitRate))
	}
	return out
}

// passRows is Report.Passes without what differs by construction: wall
// time, and whether the row was executed or taken over from a lower level.
func passRows(r *driver.Result) []driver.PassTiming {
	rows := append([]driver.PassTiming(nil), r.Report.Passes...)
	for i := range rows {
		rows[i].Nanos, rows[i].VerifyNanos, rows[i].Skipped = 0, 0, false
	}
	return rows
}

// TestDifferentialLevelOrder: a differential asked for levels in descending
// order compiles all of them before simulating the first, and must reach
// the verdict and cycle counts of the ascending one.
func TestDifferentialLevelOrder(t *testing.T) {
	a := apps.L3Switch()
	up := DifferentialWith(DiffConfig{}, a)
	levels := driver.Levels()
	slices.Reverse(levels)
	down := DifferentialWith(DiffConfig{}, a, levels...)
	if !up.OK() || !down.OK() {
		t.Fatalf("differential diverges:\n%s\n%s", up, down)
	}
	if !reflect.DeepEqual(up.LevelCycles, down.LevelCycles) {
		t.Errorf("level cycles depend on the order levels were asked for: %v vs %v",
			up.LevelCycles, down.LevelCycles)
	}
	if got := strings.Join(down.Levels, " "); got != "+SWC +PHR +SOAR +PAC -O2 -O1 BASE" {
		t.Errorf("report lists levels as %q, want the requested order", got)
	}
}

// BenchmarkDifferential is the fuzz oracle on its own: one generated
// program (the first of the fuzz-ci window, built outside the timer)
// through the reference interpreter, the seven-level ladder with the
// verifier on, and seven short simulations — what `make fuzz-ci` and the
// benchmark's fuzz_campaign pay per program.
func BenchmarkDifferential(b *testing.B) {
	const seed = 4242
	app := bakergen.NewSpec(seed).Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := DifferentialWith(DiffConfig{Seed: seed, TraceN: 12}, app); !rep.OK() {
			b.Fatal(rep)
		}
	}
}
