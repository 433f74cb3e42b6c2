package harness

import (
	"fmt"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/rts"
)

// TestWheelCoversScheduleHorizon holds the event wheel's window to the
// horizon the model schedules: in every simulating shape the benchmark
// and the fuzzer run, at most one schedule in a thousand may land beyond
// the window in the far heap, and none before it in the past heap. The
// far bound has teeth: with a 1024-bucket wheel the steady shape at +SWC
// sends over a tenth of its schedules there. So does the past one: a
// wakeup drain that peeks through the wheel moves its base past the
// clock and sends 0.1–0.3 % of the schedules there.
//
// Shapes: the three apps at BASE and +SWC in the steady shape (six MEs,
// a 384-packet trace, 150 k cycles of warm-up and 1 M measured), and
// bakergen programs 4242–4249 at every level in the fuzz differential's
// shape (two MEs, a 12-packet trace, one 60 k-cycle chunk).
func TestWheelCoversScheduleHorizon(t *testing.T) {
	check := func(name string, c ixp.QueueCounts) {
		t.Helper()
		t.Logf("%s: %d schedules, %d far, %d past", name, c.Schedules, c.Far, c.Past)
		if c.Schedules == 0 || c.Far*1000 > c.Schedules {
			t.Errorf("%s: %d of %d schedules went beyond the wheel's window, want at most 0.1 %%",
				name, c.Far, c.Schedules)
		}
		if c.Past != 0 {
			t.Errorf("%s: %d of %d schedules went before the wheel's base, want none",
				name, c.Past, c.Schedules)
		}
	}
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
		for _, a := range []*apps.App{apps.L3Switch(), apps.Firewall(), apps.MPLS()} {
			name := fmt.Sprintf("steady %s %v", a.Name, lvl)
			check(name, horizonRun(t, name, a, lvl, 1, 2, 384, 6, 1_150_000))
		}
	}
	var fuzz ixp.QueueCounts
	for seed := uint64(4242); seed <= 4249; seed++ {
		a := bakergen.NewSpec(seed).Build()
		for _, lvl := range driver.Levels() {
			c := horizonRun(t, fmt.Sprintf("bakergen %d %v", seed, lvl), a, lvl, seed, seed, 12, 2, 60_000)
			fuzz.Schedules += c.Schedules
			fuzz.Far += c.Far
			fuzz.Past += c.Past
		}
	}
	check("bakergen 4242-4249", fuzz)
}

// horizonRun compiles a at lvl, boots it on mes MEs over an n-packet
// trace with the app's controls applied, runs it cycles cycles and
// returns its machine's event-queue tallies.
func horizonRun(t *testing.T, name string, a *apps.App, lvl driver.Level,
	compileSeed, traceSeed uint64, n, mes int, cycles int64) ixp.QueueCounts {
	t.Helper()
	res, err := Compile(a, lvl, compileSeed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	trc := a.Trace(res.Prog.Types, traceSeed, n)
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: mes})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatalf("%s control %s: %v", name, c.Name, err)
		}
	}
	if err := rt.Run(cycles); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rt.M.QueueCounts()
}
