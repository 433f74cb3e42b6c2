package driver_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
)

// ladderOver prepares a ladder over a freshly lowered L3-Switch.
func ladderOver(t *testing.T, cfg driver.Config, levels ...driver.Level) (*driver.Ladder, *ir.Program) {
	t.Helper()
	a := apps.L3Switch()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProfileTrace = a.Trace(prog.Types, 7, 256)
	cfg.Controls = a.Controls
	ld, err := driver.NewLadder(prog, cfg, levels...)
	if err != nil {
		t.Fatal(err)
	}
	return ld, prog
}

// TestLadderRunsSharedPassOnce counts pass executions over the seven
// levels: 28 distinct passes run where seven cold compiles run 60, each of
// the 28 verified, and every level's report still lists its whole pipeline
// — the rows it took over from a lower level marked Skipped.
func TestLadderRunsSharedPassOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	ld, _ := ladderOver(t, driver.Config{VerifyIR: driver.VerifyOn, Metrics: reg})
	executed := map[string]int{}
	for _, lvl := range driver.Levels() {
		res, err := ld.Compile(lvl)
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		var names []string
		for _, row := range res.Report.Passes {
			names = append(names, row.Pass)
			if row.Skipped {
				if row.Nanos != 0 || row.VerifyNanos != 0 {
					t.Errorf("%v: skipped row %+v carries time", lvl, row)
				}
				continue
			}
			executed[row.Pass]++
			if row.VerifyNanos == 0 {
				t.Errorf("%v: executed pass %s was not verified", lvl, row.Pass)
			}
		}
		if got, want := strings.Join(names, " "), strings.Join(expectedPipeline(lvl), " "); got != want {
			t.Errorf("%v: report lists passes %q, want %q", lvl, got, want)
		}
		if (res.Report.SOAR != nil) != (lvl >= driver.LevelSOAR) {
			t.Errorf("%v: Report.SOAR = %v", lvl, res.Report.SOAR)
		}
	}
	want := map[string]int64{"profile": 1, "inline+scalar": 2, "soar": 1, "pac": 1, "aggregate": 3,
		"merge": 3, "agg-opt": 3, "phr": 1, "swc": 1, "final-opt": 5, "codegen": 7}
	snap := reg.Snapshot()
	for _, name := range expectedPipeline(driver.LevelSWC) {
		runs := snap.Counters[string(metrics.PassRuns(name))]
		if runs != want[name] || int64(executed[name]) != runs {
			t.Errorf("pass %s: %d runs counted, %d executed rows, want %d",
				name, runs, executed[name], want[name])
		}
		if snap.Counters[string(metrics.PassVerifyNanos(name))] == 0 {
			t.Errorf("pass %s: no verification time recorded", name)
		}
		levels := int64(0)
		for _, lvl := range driver.Levels() {
			if slices.Contains(expectedPipeline(lvl), name) {
				levels++
			}
		}
		if skips := snap.Counters[string(metrics.PassSkips(name))]; runs+skips != levels {
			t.Errorf("pass %s: %d runs + %d skips, scheduled at %d levels", name, runs, skips, levels)
		}
	}
}

// TestLadderSOARReportIsTheAnalysis: the statistics +SOAR and the levels
// above it publish are the one object the shared soar pass computed.
func TestLadderSOARReportIsTheAnalysis(t *testing.T) {
	ld, _ := ladderOver(t, driver.Config{}, driver.LevelPAC, driver.LevelSOAR, driver.LevelSWC)
	pac, err := ld.Compile(driver.LevelPAC)
	if err != nil {
		t.Fatal(err)
	}
	soar, err := ld.Compile(driver.LevelSOAR)
	if err != nil {
		t.Fatal(err)
	}
	swc, err := ld.Compile(driver.LevelSWC)
	if err != nil {
		t.Fatal(err)
	}
	if pac.Report.SOAR != nil {
		t.Error("+PAC publishes SOAR statistics")
	}
	if soar.Report.SOAR == nil || soar.Report.SOAR != swc.Report.SOAR {
		t.Errorf("+SOAR and +SWC publish %p and %p, want one analysis", soar.Report.SOAR, swc.Report.SOAR)
	}
}

// TestLadderLeavesProgramUntouched: the differential interprets the lowered
// program as its reference while the ladder compiles from it, which is
// sound only because the ladder's first rung starts from a clone.
func TestLadderLeavesProgramUntouched(t *testing.T) {
	ld, prog := ladderOver(t, driver.Config{})
	var before, after bytes.Buffer
	if err := ir.Fprint(&before, prog); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range driver.Levels() {
		res, err := ld.Compile(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Prog == prog {
			t.Errorf("%v hands back the caller's program", lvl)
		}
	}
	if err := ir.Fprint(&after, prog); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("compiling the ladder rewrote the lowered program it was given")
	}
}

// TestLadderRejectsDump: dump files are named for one level, so the
// multi-level entry refuses a dump selection rather than write a shared
// pass's IR under whichever level happened to run it; CompileIR dumps as
// it always has (TestDumpIRDeterministic, TestDumpSinglePass).
func TestLadderRejectsDump(t *testing.T) {
	a := apps.L3Switch()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = driver.NewLadder(prog, driver.Config{DumpPass: "pac", DumpWriter: &out})
	if err == nil || !strings.Contains(err.Error(), "dump") {
		t.Fatalf("NewLadder with DumpPass set: %v, want a dump error", err)
	}
	if out.Len() != 0 {
		t.Error("the rejected ladder wrote a dump")
	}
}

// TestLadderHandsEachLevelBack: a level is handed back as often as it was
// listed (the ladder lets the result go with the last one); asking again,
// or for a level the ladder was not built for, is an error, not a silent
// compile.
func TestLadderHandsEachLevelBack(t *testing.T) {
	ld, _ := ladderOver(t, driver.Config{}, driver.LevelPHR, driver.LevelBase, driver.LevelPHR)
	if _, err := ld.Compile(driver.LevelO2); err == nil {
		t.Error("Compile of a level not on the ladder succeeded")
	}
	first, err := ld.Compile(driver.LevelPHR)
	if err != nil {
		t.Fatalf("+PHR after the failed request: %v", err)
	}
	if again, err := ld.Compile(driver.LevelPHR); err != nil || again != first {
		t.Errorf("+PHR was listed twice; the second request returned %p, %v, want %p", again, err, first)
	}
	if _, err := ld.Compile(driver.LevelPHR); err == nil {
		t.Error("a third request for +PHR succeeded")
	}
	if _, err := ld.Compile(driver.LevelBase); err != nil {
		t.Errorf("BASE, compiled on the way to +PHR and not yet asked for: %v", err)
	}
}
