package driver_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
)

// compileApp lowers one benchmark app and runs the pipeline with the given
// configuration (Level/ProfileTrace/Controls are filled in).
func compileApp(t *testing.T, a *apps.App, lvl driver.Level, cfg driver.Config) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Level = lvl
	cfg.ProfileTrace = a.Trace(prog.Types, 7, 256)
	cfg.Controls = a.Controls
	res, err := driver.CompileIR(prog, cfg)
	if err != nil {
		t.Fatalf("%s at %v: %v", a.Name, lvl, err)
	}
	return res
}

// expectedPipeline is the names PipelineFor must schedule at each level,
// in pipeline order.
func expectedPipeline(lvl driver.Level) []string {
	var names []string
	add := func(name string, on bool) {
		if on {
			names = append(names, name)
		}
	}
	add("profile", true)
	add("inline+scalar", true)
	add("soar", lvl >= driver.LevelPAC)
	add("pac", lvl >= driver.LevelPAC)
	add("aggregate", true)
	add("merge", true)
	add("agg-opt", true)
	add("phr", lvl >= driver.LevelPHR)
	add("swc", lvl >= driver.LevelSWC)
	add("final-opt", true)
	add("codegen", true)
	return names
}

// TestPassNames: PassNames lists every pass, in pipeline order.
func TestPassNames(t *testing.T) {
	want := expectedPipeline(driver.LevelSWC) // all passes enabled
	got := driver.PassNames()
	if len(got) != len(want) {
		t.Fatalf("PassNames has %d passes %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PassNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestPipelineForEachLevel(t *testing.T) {
	for _, lvl := range driver.Levels() {
		var got []string
		for _, p := range driver.PipelineFor(driver.Config{Level: lvl}) {
			got = append(got, p.Name())
		}
		want := expectedPipeline(lvl)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v pipeline = %v, want %v", lvl, got, want)
		}
	}
}

// TestVerifyAfterEveryPassAllAppsAllLevels is the golden invariant: every
// pass of every per-level pipeline leaves the IR verifiable for every
// benchmark application.
func TestVerifyAfterEveryPassAllAppsAllLevels(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				res := compileApp(t, a, lvl, driver.Config{VerifyIR: driver.VerifyOn})
				want := expectedPipeline(lvl)
				if len(res.Report.Passes) != len(want) {
					t.Fatalf("%v: %d pass timings %v, want %d",
						lvl, len(res.Report.Passes), res.Report.Passes, len(want))
				}
				for i, pt := range res.Report.Passes {
					if pt.Pass != want[i] {
						t.Errorf("%v: pass[%d] = %q, want %q", lvl, i, pt.Pass, want[i])
					}
					if pt.Nanos <= 0 {
						t.Errorf("%v: pass %q has no timing", lvl, pt.Pass)
					}
					if pt.InstrsBefore <= 0 || pt.InstrsAfter <= 0 {
						t.Errorf("%v: pass %q sizes %d -> %d", lvl, pt.Pass,
							pt.InstrsBefore, pt.InstrsAfter)
					}
				}
			}
		})
	}
}

func TestPerPassMetricsExposed(t *testing.T) {
	a := apps.MPLS()
	res := compileApp(t, a, driver.LevelSWC, driver.Config{VerifyIR: driver.VerifyOn})
	snap := res.Report.Metrics
	for _, name := range expectedPipeline(driver.LevelSWC) {
		if got := snap.Counters["compile.pass."+name+".runs"]; got != 1 {
			t.Errorf("counter %s.runs = %d, want 1", name, got)
		}
		if snap.Counters["compile.pass."+name+".nanos"] <= 0 {
			t.Errorf("counter %s.nanos missing", name)
		}
		if _, ok := snap.Counters["compile.pass."+name+".verify_nanos"]; !ok {
			t.Errorf("counter %s.verify_nanos missing", name)
		}
		if _, ok := snap.Gauges["compile.pass."+name+".size_delta"]; !ok {
			t.Errorf("gauge %s.size_delta missing", name)
		}
	}
	// The size-delta gauges must agree with the report rows.
	for _, pt := range res.Report.Passes {
		want := float64(pt.InstrsAfter - pt.InstrsBefore)
		if got := snap.Gauges["compile.pass."+pt.Pass+".size_delta"]; got != want {
			t.Errorf("gauge %s.size_delta = %v, want %v", pt.Pass, got, want)
		}
	}
}

// TestVerifyOffSkips checks the production default: with verification off,
// no verify time is recorded.
func TestVerifyOffSkips(t *testing.T) {
	a := apps.MPLS()
	res := compileApp(t, a, driver.LevelPAC, driver.Config{VerifyIR: driver.VerifyOff})
	for _, pt := range res.Report.Passes {
		if pt.VerifyNanos != 0 {
			t.Errorf("pass %q recorded verify time %d with VerifyOff", pt.Pass, pt.VerifyNanos)
		}
	}
}

// TestDumpIRDeterministic compiles the same app twice with -dump-ir=all
// into buffers: the dumps must be byte-identical run to run.
func TestDumpIRDeterministic(t *testing.T) {
	a := apps.Firewall()
	dump := func() []byte {
		var buf bytes.Buffer
		compileApp(t, a, driver.LevelSWC, driver.Config{
			DumpPass:   "all",
			DumpWriter: &buf,
			DumpPrefix: a.Name,
		})
		return buf.Bytes()
	}
	first, second := dump(), dump()
	if len(first) == 0 {
		t.Fatal("dump produced no output")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("IR dump differs between identical runs (%d vs %d bytes)",
			len(first), len(second))
	}
	for _, name := range expectedPipeline(driver.LevelSWC) {
		header := fmt.Sprintf(";; %s after pass %s\n", a.Name, name)
		if !bytes.Contains(first, []byte(header)) {
			t.Errorf("dump is missing the %q section", strings.TrimSpace(header))
		}
	}
}

// TestDumpSinglePass selects one pass by name and gets exactly one section.
func TestDumpSinglePass(t *testing.T) {
	a := apps.MPLS()
	var buf bytes.Buffer
	compileApp(t, a, driver.LevelPAC, driver.Config{
		DumpPass:   "pac",
		DumpWriter: &buf,
		DumpPrefix: a.Name,
	})
	if got := strings.Count(buf.String(), ";; "+a.Name+" after pass "); got != 1 {
		t.Fatalf("dump has %d sections, want 1:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "after pass pac\n") {
		t.Errorf("dump section is not for the pac pass")
	}
}

// TestDumpUnknownPassRejected: a dump pass no pass is named is
// an error from both entry points, listing the valid names, and dumps
// nothing.
func TestDumpUnknownPassRejected(t *testing.T) {
	a := apps.MPLS()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := driver.Config{Level: driver.LevelPAC, ProfileTrace: a.Trace(prog.Types, 7, 8),
		Controls: a.Controls, DumpPass: "bogus", DumpWriter: &buf}
	_, compileErr := driver.CompileIR(prog, cfg)
	_, sessionErr := driver.NewSession(prog, cfg)
	for what, err := range map[string]error{"CompileIR": compileErr, "NewSession": sessionErr} {
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) ||
			!strings.Contains(err.Error(), "all, "+strings.Join(driver.PassNames(), ", ")) {
			t.Errorf("%s with DumpPass bogus: %v, want an error listing the valid passes", what, err)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("rejected compile dumped %d bytes", buf.Len())
	}
}

// TestUnknownLevelRejected: a level outside Levels() is refused by every
// entry point, naming it. NewLadder checks each level of its list, and
// cfg.Level not at all.
func TestUnknownLevelRejected(t *testing.T) {
	a := apps.MPLS()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []driver.Level{-1, 7} {
		cfg := driver.Config{Level: lvl, ProfileTrace: a.Trace(prog.Types, 7, 8), Controls: a.Controls}
		res, compileErr := driver.CompileIR(prog, cfg)
		sess, sessionErr := driver.NewSession(prog, cfg)
		ld, ladderErr := driver.NewLadder(prog, cfg, driver.LevelBase, lvl)
		for what, err := range map[string]error{"CompileIR": compileErr, "NewSession": sessionErr, "NewLadder": ladderErr} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Level(%d)", lvl)) {
				t.Errorf("%s at level %d: %v, want an error naming the level", what, int(lvl), err)
			}
		}
		if res != nil || sess != nil || ld != nil {
			t.Errorf("level %d: a refused entry point returned a compile, session or ladder", int(lvl))
		}
		if _, err := driver.NewLadder(prog, cfg, driver.LevelBase); err != nil {
			t.Errorf("NewLadder with cfg.Level %d and a valid list: %v", int(lvl), err)
		}
	}
}

// TestVerifierCatchesBrokenPass runs a compile whose IR is corrupted before
// CompileIR and checks that the first pass's post-verification reports it
// with the pass name in the error chain. The corruption, an unreachable
// empty block, sits in a function the profile never runs: the executor
// verifies only the functions it activates, and refuses the same block in
// one it runs, inside the profile pass.
func TestVerifierCatchesBrokenPass(t *testing.T) {
	a := apps.MPLS()
	compile := func(corrupt func(*ir.Program)) error {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(prog)
		_, err = driver.CompileIR(prog, driver.Config{
			Level:        driver.LevelBase,
			ProfileTrace: a.Trace(prog.Types, 7, 8),
			Controls:     a.Controls,
			VerifyIR:     driver.VerifyOn,
		})
		return err
	}
	err := compile(func(prog *ir.Program) {
		unused := prog.Funcs[0].Clone()
		unused.Name, unused.Kind = "mplsapp.unused", ir.FuncHelper
		unused.NewBlock()
		prog.Funcs = append(prog.Funcs, unused)
	})
	if err == nil {
		t.Fatal("compiling corrupted IR with VerifyOn must fail")
	}
	if !strings.Contains(err.Error(), "after profile: IR verification failed") {
		t.Errorf("error %q does not mention IR verification after profile", err)
	}

	err = compile(func(prog *ir.Program) { prog.Funcs[0].NewBlock() })
	var ve *ir.VerifyError
	if !errors.As(err, &ve) || !strings.HasPrefix(err.Error(), "profile: ") {
		t.Errorf("a run function with an empty block: got %v, want the profile pass's *ir.VerifyError", err)
	}
}
