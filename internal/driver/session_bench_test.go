package driver_test

import (
	"slices"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/workload"
)

// churner is one application under the churn stream the repository
// benchmark's compile_incr workload replays (seed, 25 % withdraws): the
// lowered program, the pristine profile trace, and the controls so far.
type churner struct {
	app      *apps.App
	base     *ir.Program
	trace    []*packet.Packet
	controls []profiler.Control
	stream   *workload.ChurnStream
}

func newChurner(tb testing.TB, a *apps.App, seed uint64) *churner {
	tb.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := workload.NewChurnStream(workload.ChurnSpec{Seed: seed, UpdatesPerSec: 1000,
		Items: len(a.Churn.Targets), WithdrawFraction: 0.25})
	if err != nil {
		tb.Fatal(err)
	}
	return &churner{app: a, base: prog, trace: a.Trace(prog.Types, seed, 512),
		controls: slices.Clip(a.Controls), stream: stream}
}

// next draws the stream's next policy change and appends it to the
// controls.
func (c *churner) next() driver.Delta {
	ev := c.stream.Next()
	return c.add(c.app.Churn.State(ev.Item, ev.Version, ev.Withdraw))
}

// add appends control calls to the controls and returns the delta that
// adds them. It appends in place, so the benchmark's timed loop does not
// copy the growing list: a Session owns a copy of the controls it was
// given, and every list config handed out keeps its elements.
func (c *churner) add(ctls ...profiler.Control) driver.Delta {
	c.controls = append(c.controls, ctls...)
	return driver.Delta{AddControls: ctls}
}

func (c *churner) config(lvl driver.Level, verify driver.VerifyMode) driver.Config {
	return driver.Config{Level: lvl, ProfileTrace: c.trace, Controls: c.controls, VerifyIR: verify}
}

// session starts a warm Session: created and compiled once.
func (c *churner) session(tb testing.TB, lvl driver.Level, verify driver.VerifyMode) *driver.Session {
	tb.Helper()
	s, err := driver.NewSession(c.base, c.config(lvl, verify))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Compile(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// cold is what a caller without a session pays for the current controls:
// CompileIR on a copy of the lowered program.
func (c *churner) cold(tb testing.TB, lvl driver.Level, verify driver.VerifyMode) *driver.Result {
	tb.Helper()
	res, err := driver.CompileIR(ir.CloneProgram(c.base), c.config(lvl, verify))
	if err != nil {
		tb.Fatalf("%s: cold compile: %v", c.app.Name, err)
	}
	return res
}

// BenchmarkRecompileVsCold is the number the Session exists for: one churn
// delta through a warm Session against driver.CompileIR on the same lowered
// program, trace and controls, +SWC, the three applications in turn,
// verification off as in a production compile, and so is the test-time
// cut-off check. The recompile side reports the share of passes it skipped.
func BenchmarkRecompileVsCold(b *testing.B) {
	defer driver.SetCutoffCheck(driver.SetCutoffCheck(false))
	b.Run("recompile", func(b *testing.B) {
		var cs []*churner
		var ss []*driver.Session
		for _, a := range apps.All() {
			c := newChurner(b, a, 1)
			cs = append(cs, c)
			ss = append(ss, c.session(b, driver.LevelSWC, driver.VerifyOff))
		}
		last := make([]*driver.Result, len(ss))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := ss[i%len(ss)].Recompile(cs[i%len(cs)].next())
			if err != nil {
				b.Fatal(err)
			}
			last[i%len(ss)] = res
		}
		b.StopTimer()
		// Each session's counters, as its last result reports them.
		var passes, skipped int64
		for _, res := range last {
			if res == nil {
				continue
			}
			c := res.Report.Metrics.Counters
			passes += (c[metrics.SessionCompiles.String()] - 1) * int64(len(res.Report.Passes)) // less the warm-up compile
			for _, row := range res.Report.Passes {
				skipped += c[metrics.PassSkips(row.Pass).String()]
			}
		}
		b.ReportMetric(float64(skipped)/float64(passes), "skip_ratio")
	})
	b.Run("cold", func(b *testing.B) {
		var cs []*churner
		for _, a := range apps.All() {
			cs = append(cs, newChurner(b, a, 1))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cs[i%len(cs)]
			c.next()
			c.cold(b, driver.LevelSWC, driver.VerifyOff)
		}
	})
}
