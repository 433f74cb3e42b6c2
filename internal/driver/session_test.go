package driver_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
	"shangrila/internal/profiler"
)

// newSessionFor builds a Session over a fresh lowering of the app.
func newSessionFor(t *testing.T, a *apps.App, lvl driver.Level) *driver.Session {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg := driver.Config{
		Level:        lvl,
		ProfileTrace: a.Trace(prog.Types, 7, 256),
		Controls:     a.Controls,
		VerifyIR:     driver.VerifyOn,
	}
	s, err := driver.NewSession(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// coldCompile runs a from-scratch CompileIR with the given configuration
// over a fresh lowering of the app.
func coldCompile(t *testing.T, a *apps.App, cfg driver.Config) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ProfileTrace = a.Trace(prog.Types, 7, 256)
	cfg.Metrics = nil
	res, err := driver.CompileIR(prog, cfg)
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	return res
}

// deltaFor returns a single-rule policy delta for the app: one route,
// firewall rule, or label entry beyond the boot configuration.
func deltaFor(a *apps.App) driver.Delta {
	switch a.Name {
	case "l3switch":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "l3switch.add_route", Args: []uint32{0x0b000000, 8, 2}},
		}}
	case "firewall":
		// One more allow rule past the installed set: HTTPS from 10/8 to
		// 192.168/16 (args follow the app's add_rule signature).
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "firewall.add_rule", Args: []uint32{
				6,                      // idx
				0x0a000000, 0xff000000, // src, smask
				0xc0a80000, 0xffff0000, // dst, dmask
				0, 0xffff, // sport range
				443, 443, // dport range
				6, // proto tcp
				1, // action allow
				2, // nh
			}},
		}}
	case "mpls":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "mplsapp.add_ilm", Args: []uint32{900, 1, 1000, 3}},
		}}
	}
	return driver.Delta{}
}

func dumpIR(t *testing.T, res *driver.Result) []byte {
	t.Helper()
	b, err := res.DumpIR()
	if err != nil {
		t.Fatalf("DumpIR: %v", err)
	}
	return b
}

// passCounts tallies executed and skipped rows of one compile's report.
func passCounts(res *driver.Result) (executed, skipped int) {
	for _, pt := range res.Report.Passes {
		if pt.Skipped {
			skipped++
		} else {
			executed++
		}
	}
	return
}

// TestSessionIncrementalMatchesColdAllAppsAllLevels is the tentpole
// differential: for every app at every optimization level, an incremental
// recompile of a single-rule policy delta must (a) execute strictly fewer
// passes than the cold pipeline — asserted through the compile.pass.*
// metrics — and (b) produce bit-identical final IR to a cold compile of
// the post-delta configuration.
func TestSessionIncrementalMatchesColdAllAppsAllLevels(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				s := newSessionFor(t, a, lvl)
				if _, err := s.Compile(); err != nil {
					t.Fatalf("%v: cold session compile: %v", lvl, err)
				}

				d := deltaFor(a)
				if len(d.AddControls) == 0 {
					t.Fatalf("no delta defined for %s", a.Name)
				}
				inc, err := s.Recompile(d)
				if err != nil {
					t.Fatalf("%v: incremental recompile: %v", lvl, err)
				}

				executed, skipped := passCounts(inc)
				total := len(inc.Report.Passes)
				if skipped == 0 || executed >= total {
					t.Errorf("%v: incremental recompile executed %d of %d passes (skipped %d), want strictly fewer",
						lvl, executed, total, skipped)
				}
				// The same claim through the metrics registry: skip
				// counters present, and runs < 2 per skipped pass.
				snap := inc.Report.Metrics
				var metricSkips int64
				for _, pt := range inc.Report.Passes {
					if pt.Skipped {
						metricSkips += snap.Counters[metrics.PassSkips(pt.Pass).String()]
						if runs := snap.Counters[metrics.PassRuns(pt.Pass).String()]; runs != 1 {
							t.Errorf("%v: skipped pass %q has %d runs, want 1", lvl, pt.Pass, runs)
						}
					}
				}
				if metricSkips < int64(skipped) {
					t.Errorf("%v: compile.pass.*.skips total %d < %d skipped rows", lvl, metricSkips, skipped)
				}

				// Bit-identity against a cold compile of the post-delta
				// configuration.
				cfg := s.Config()
				cold := coldCompile(t, a, cfg)
				if !bytes.Equal(dumpIR(t, inc), dumpIR(t, cold)) {
					t.Errorf("%v: incremental final IR differs from cold compile", lvl)
				}

				compiles := snap.Counters[metrics.SessionCompiles.String()]
				if incr := snap.Counters[metrics.SessionIncremental.String()]; compiles != 2 || incr != 1 {
					t.Errorf("%v: %d compiles / %d incremental, want 2 / 1", lvl, compiles, incr)
				}
			}
		})
	}
}

// TestSessionFullCacheHit pins the no-delta case: recompiling with nothing
// changed reuses every pass.
func TestSessionFullCacheHit(t *testing.T) {
	a := apps.L3Switch()
	s := newSessionFor(t, a, driver.LevelSWC)
	first, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	executed, skipped := passCounts(second)
	if executed != 0 || skipped != len(first.Report.Passes) {
		t.Fatalf("no-delta recompile executed %d / skipped %d of %d passes, want full reuse",
			executed, skipped, len(first.Report.Passes))
	}
	if !bytes.Equal(dumpIR(t, first), dumpIR(t, second)) {
		t.Error("cache-hit recompile changed the final IR")
	}
	if second.Image == nil || second.Report.Plan == nil || second.Report.ProfileStats == nil {
		t.Error("cache-hit result is missing image/plan/profile")
	}
}

// executedPasses names the passes of one compile that ran, in order.
func executedPasses(res *driver.Result) string {
	var names []string
	for _, pt := range res.Report.Passes {
		if !pt.Skipped {
			names = append(names, pt.Pass)
		}
	}
	return strings.Join(names, " ")
}

// candidateNames renders a compile's SWC selection.
func candidateNames(res *driver.Result) string {
	var names []string
	for _, c := range res.Report.SWCCands {
		names = append(names, c.Global.Name)
	}
	return strings.Join(names, " ")
}

// swcRewrite renders what of a compile's SWC selection shapes the rewrite:
// the cached globals and the smallest check limit, which the entry check
// counts to. The other limits and the hit rates only reach the report.
func swcRewrite(res *driver.Result) string {
	limit := uint32(0)
	for _, c := range res.Report.SWCCands {
		if limit == 0 || c.CheckLimit < limit {
			limit = c.CheckLimit
		}
	}
	return fmt.Sprintf("%s every %d", candidateNames(res), limit)
}

// swcReport renders everything of a compile's SWC selection.
func swcReport(res *driver.Result) string {
	var b strings.Builder
	for _, c := range res.Report.SWCCands {
		fmt.Fprintf(&b, "%s/%d/%v ", c.Global.Name, c.CheckLimit, c.HitRate)
	}
	return b.String()
}

// heldModel is the test's model of one pipeline position's history in a
// Session: the executions it holds, most recently used first, at most
// driver.KeepPerPass. Each is named by the input state it ran on, the keys
// of the facts it read and what it produced, and carries the key its
// product is known by.
type heldModel struct{ held []modelEntry }

type modelEntry struct {
	in, read, out string
	key           int
}

// step models one compile of the position: a held execution with the same
// input and reads is reused and moves to the front; otherwise the position
// executes, and its product takes the key of a held execution from the
// same input to the same product, which it replaces (the early cut-off),
// or a fresh key. It reports whether the position executed and returns the
// product's key.
func (m *heldModel) step(in, read, out string, keys *int) (bool, int) {
	for j, e := range m.held {
		if e.in == in && e.read == read {
			m.held = modelPromote(m.held, e, j)
			return false, e.key
		}
	}
	e := modelEntry{in: in, read: read, out: out}
	j := slices.IndexFunc(m.held, func(h modelEntry) bool { return h.in == in && h.out == out })
	if j >= 0 {
		e.key = m.held[j].key
	} else {
		*keys++
		e.key = *keys
	}
	m.held = modelPromote(m.held, e, j)
	return true, e.key
}

// modelPromote puts e first, drops held[drop] (none when drop is -1) and
// keeps at most driver.KeepPerPass, as the session does.
func modelPromote[E any](held []E, e E, drop int) []E {
	next := []E{e}
	for j, h := range held {
		if j != drop && len(next) < driver.KeepPerPass {
			next = append(next, h)
		}
	}
	return next
}

// profileModel models the profile position, which runs after every delta:
// each of its views takes the key of an equal view some held profile
// published, or a fresh one, and an execution replaces a held one only
// when the whole profile is equal.
type profileModel struct{ held []profileEntry }

type profileEntry struct {
	prof       *profiler.Stats
	sel        string
	wKey, sKey int
}

func (m *profileModel) step(res *driver.Result, keys *int) (wKey, sKey int) {
	e := profileEntry{prof: res.Report.ProfileStats, sel: swcReport(res)}
	for _, h := range m.held {
		if e.wKey == 0 && h.prof.Weights.Equal(&e.prof.Weights) {
			e.wKey = h.wKey
		}
		if e.sKey == 0 && h.sel == e.sel {
			e.sKey = h.sKey
		}
	}
	for _, k := range []*int{&e.wKey, &e.sKey} {
		if *k == 0 {
			*keys++
			*k = *keys
		}
	}
	j := slices.IndexFunc(m.held, func(h profileEntry) bool { return h.prof.Equal(e.prof) })
	m.held = modelPromote(m.held, e, j)
	return e.wKey, e.sKey
}

// sessionModel predicts which passes a +SWC session executes from what its
// results show: the profile's weights and SWC selection, the plan's
// decisions and the SWC rewrite. Each position after profile is keyed as
// the session keys it: aggregate by the weights it reads; merge by the
// plan's key, on IR no delta changes; agg-opt, phr, final-opt and codegen
// by the IR the plan (and the rewrite) make and the plan's key; swc by its
// IR and the selection's key. The SOAR fact they read is PAC's, the same
// in every compile.
type sessionModel struct {
	keys                                    int
	plans                                   []*aggregate.Plan
	profile                                 profileModel
	aggregate, merge, aggOpt, swc, finalOpt heldModel
}

// planID names a plan's decisions.
func (m *sessionModel) planID(p *aggregate.Plan) string {
	j := slices.IndexFunc(m.plans, p.SameDecisions)
	if j < 0 {
		m.plans, j = append(m.plans, p), len(m.plans)
	}
	return fmt.Sprint("plan", j)
}

// step returns the passes the session executes for the compile that
// produced res.
func (m *sessionModel) step(res *driver.Result) string {
	wKey, sKey := m.profile.step(res, &m.keys)
	plan, rewrite := m.planID(res.Report.Plan), swcRewrite(res)
	ran := "profile"
	run, pKey := m.aggregate.step("", fmt.Sprint(wKey), plan, &m.keys)
	if run {
		ran += " aggregate"
	}
	if run, _ := m.merge.step("", fmt.Sprint(pKey), plan, &m.keys); run {
		ran += " merge"
	}
	if run, _ := m.aggOpt.step(plan, fmt.Sprint(pKey), "", &m.keys); run {
		ran += " agg-opt phr"
	}
	if run, _ := m.swc.step(plan, fmt.Sprint(sKey), rewrite, &m.keys); run {
		ran += " swc"
	}
	if run, _ := m.finalOpt.step(plan+" "+rewrite, fmt.Sprint(pKey), "", &m.keys); run {
		ran += " final-opt codegen"
	}
	return ran
}

// TestSessionProfileDeltaReattaches pins both sides of the early cut-off
// after a delta, against every result the session still holds. The
// profiler re-runs; its readers re-run only when the view each reads
// matches no held run's — aggregation when the profile's weights do not,
// SWC when its candidate selection does not — and the scalar/SOAR/PAC
// transforms never do. A re-run that reproduces a
// held run's output takes that run's keys, so the held results after it
// apply again: a plan whose decisions a held plan made reuses the merged
// programs and everything after them, or everything when aggregation's
// held run for those weights made that plan. The firewall under the
// benchmark's churn stream produces within its first 24 deltas the four
// pass lists — only profile; profile aggregate; profile aggregate swc
// final-opt codegen; everything from aggregate — the first two also where
// the plan changed, and profile aggregate where it did not: the weights
// moved, the plan held, and merge was skipped.
func TestSessionProfileDeltaReattaches(t *testing.T) {
	t.Run("unchanged", func(t *testing.T) {
		a := apps.L3Switch()
		s := newSessionFor(t, a, driver.LevelSWC)
		if _, err := s.Compile(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Recompile(deltaFor(a))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := executedPasses(res), "profile"; got != want {
			t.Errorf("a route add that changes neither weights nor candidates executed %q, want %q", got, want)
		}
	})
	t.Run("changed", func(t *testing.T) {
		c := newChurner(t, apps.Firewall(), 1)
		s := c.session(t, driver.LevelSWC, driver.VerifyOn)
		prev := c.cold(t, driver.LevelSWC, driver.VerifyOn)
		var m sessionModel
		m.step(prev) // the session's first compile, which a cold compile equals
		seen := map[string]int{}
		for i := 0; i < 24; i++ {
			res, err := s.Recompile(c.next())
			if err != nil {
				t.Fatal(err)
			}
			want := m.step(res)
			if got := executedPasses(res); got != want {
				t.Errorf("delta %d (plan\n%vwas\n%vcandidates %q, were %q) executed %q, want %q", i,
					res.Report.Plan, prev.Report.Plan, swcRewrite(res), swcRewrite(prev), got, want)
			}
			seen[want]++
			if res.Report.Plan.SameDecisions(prev.Report.Plan) {
				seen[want+" (plan held)"]++
			} else {
				seen[want+" (plan changed)"]++
			}
			prev = res
		}
		for _, shape := range []string{
			"profile",
			"profile aggregate",
			"profile aggregate swc final-opt codegen",
			"profile aggregate merge agg-opt phr swc final-opt codegen",
			"profile aggregate (plan held)",
			"profile (plan changed)",
			"profile aggregate (plan changed)",
		} {
			if seen[shape] == 0 {
				t.Errorf("the stream no longer exercises %q: %v", shape, seen)
			}
		}
	})
}

// TestSessionDecisionRecords reads the session's decisions back as data:
// why each executed pass ran, how often a re-executed pass reproduced a
// held output so that its successors stayed reusable, and how often a skip
// reused a held result older than its pass's most recent one. A cold
// CompileIR records none of it.
func TestSessionDecisionRecords(t *testing.T) {
	a := apps.Firewall()
	s := newSessionFor(t, a, driver.LevelSWC)
	first, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	counters := first.Report.Metrics.Counters
	for _, pt := range first.Report.Passes {
		if n := counters[metrics.PassRerun(pt.Pass, "cold").String()]; n != 1 {
			t.Errorf("first compile: %s ran cold %d times, want 1", pt.Pass, n)
		}
	}
	if n := counters[metrics.SessionCutoffs.String()]; n != 0 {
		t.Errorf("first compile counted %d cut-offs", n)
	}
	if n := counters[metrics.ProfileFull("cold").String()]; n != 1 {
		t.Errorf("first compile: %d cold full profiles, want 1", n)
	}

	// One more allow rule shifts the profile's weights and the rule
	// table's estimated hit rate, but neither the plan nor the rewrite.
	res, err := s.Recompile(deltaFor(a))
	if err != nil {
		t.Fatal(err)
	}
	counters = res.Report.Metrics.Counters
	for _, want := range []struct {
		pass, reason string
	}{
		{"profile", "controls"},       // the delta added a control
		{"aggregate", "fact_weights"}, // it reads the new weights
		{"swc", "fact_swc_selection"}, // and it the new selection
	} {
		if n := counters[metrics.PassRerun(want.pass, want.reason).String()]; n != 1 {
			t.Errorf("%s re-ran for reason %q %d times, want 1 (counters %v)", want.pass, want.reason, n, counters)
		}
	}
	if got := executedPasses(res); got != "profile aggregate swc" {
		t.Errorf("the rule add executed %q, want profile aggregate swc", got)
	}
	// aggregate and swc reproduced their outputs; the profile did not.
	if n := counters[metrics.SessionCutoffs.String()]; n != 2 {
		t.Errorf("%d cut-offs, want 2", n)
	}
	// The session's first recompile profiles in full once more, to keep
	// the profiler state; the first compile kept none.
	if n := counters[metrics.ProfileFull("cold").String()]; n != 2 {
		t.Errorf("%d cold full profiles after the first recompile, want 2", n)
	}

	// A delta that adds no control re-runs the profile, which reproduces
	// the held one: the cut-off skips every later pass.
	res, err = s.Recompile(driver.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	counters = res.Report.Metrics.Counters
	if n := counters[metrics.PassRerun("profile", "controls").String()]; n != 2 {
		t.Errorf("profile re-ran on new controls %d times, want 2", n)
	}
	if got := executedPasses(res); got != "profile" {
		t.Errorf("an empty delta executed %q, want only profile", got)
	}

	// A control that faults when the profile replays it fails the
	// incremental profile, which drops the kept state: the next profile is
	// a full one, for that reason.
	if _, err := s.Recompile(driver.Delta{AddControls: []profiler.Control{{Name: "firewall.add_rule",
		Args: []uint32{1 << 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}}}); err == nil {
		t.Fatal("a rule past the table did not fail the recompile")
	}
	if res, err = s.Recompile(deltaFor(a)); err != nil {
		t.Fatal(err)
	}
	counters = res.Report.Metrics.Counters
	if n := counters[metrics.ProfileFull("error").String()]; n != 1 {
		t.Errorf("after a failed profile: %d full profiles for an error, want 1", n)
	}
	// From there the profile is incremental: a rule rewritten in place
	// reaches only the packets whose scan gets that far. (The counters
	// also hold the empty delta's incremental profile.)
	packets := func(k metrics.Key) int64 { return counters[k.String()] }
	again, reused, checked := packets(metrics.ProfilePacketsReinterpreted), packets(metrics.ProfilePacketsReused),
		packets(metrics.ProfilePacketsChecked)
	res, err = s.Recompile(driver.Delta{AddControls: []profiler.Control{{Name: "firewall.add_rule",
		Args: []uint32{5, 0x0a000000, 0xff000000, 0, 0, 0, 0xffff, 443, 443, 6, 1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	counters = res.Report.Metrics.Counters
	again, reused, checked = packets(metrics.ProfilePacketsReinterpreted)-again, packets(metrics.ProfilePacketsReused)-reused,
		packets(metrics.ProfilePacketsChecked)-checked
	if again == 0 || reused == 0 || again+reused != 256 {
		t.Errorf("rewriting a rule re-interpreted %d and skipped %d of 256 packets, want some of each", again, reused)
	}
	if checked < again || checked > 256 {
		t.Errorf("rewriting a rule checked %d packets, re-interpreting %d: want at least those and at most 256", checked, again)
	}
	if n := counters[metrics.SessionHistoryHits.String()]; n != 0 {
		t.Errorf("%d skips reused a held result other than the most recent one, want 0", n)
	}

	// Under the benchmark's trace, switching rule 0 off changes the SWC
	// rewrite, and switching it on again returns to the one held from
	// before: swc, final-opt and codegen each reuse their older result.
	c := newChurner(t, a, 1)
	hs := c.session(t, driver.LevelSWC, driver.VerifyOn)
	for _, step := range [][2]int{{0, 1}, {1, 0}} {
		if res, err = hs.Recompile(switchRules(c, step[0], step[1])); err != nil {
			t.Fatal(err)
		}
	}
	if got := executedPasses(res); got != "profile aggregate" {
		t.Errorf("switching rule 0 back on executed %q, want profile aggregate", got)
	}
	if n := res.Report.Metrics.Counters[metrics.SessionHistoryHits.String()]; n != 3 {
		t.Errorf("switching rule 0 back on: %d skips reused an older held result, want 3", n)
	}

	cold := coldCompile(t, a, s.Config())
	for name := range cold.Report.Metrics.Counters {
		if strings.Contains(name, ".rerun.") || strings.HasPrefix(name, "compile.session.") {
			t.Errorf("a cold CompileIR recorded %s", name)
		}
	}
}

// TestSessionStreamCensus pins what the repository benchmark's compile_incr
// workload does on its seed-1 stream, 80 deltas per application at +SWC in
// turn: which passes the 240 recompiles execute, how many skips a result
// older than its pass's most recent one served, and how much of the trace
// their profiles interpret again. With one result held per pass the same
// stream executed aggregate 88 times, agg-opt and phr 24, swc, final-opt
// and codegen 36: the plan and the SWC rewrite flip between a few states,
// and the history serves the returns. Aggregation re-runs whenever the
// weights match no held run's, but merging only when the plan's decisions
// match no held plan's: once in the 240. A session's first recompile keeps
// the profiler state, in a full profile, and every later profile is
// incremental: it re-interprets only the packets the delta reaches, and
// compares the read logs only of the packets that read a word the delta's
// controls or a re-interpreted packet's writes touched.
func TestSessionStreamCensus(t *testing.T) {
	var cs []*churner
	var ss []*driver.Session
	for _, a := range apps.All() {
		c := newChurner(t, a, 1)
		cs = append(cs, c)
		ss = append(ss, c.session(t, driver.LevelSWC, driver.VerifyOff))
	}
	runs := map[string]int{}
	const deltas = 240
	for i := 0; i < deltas; i++ {
		res, err := ss[i%len(ss)].Recompile(cs[i%len(cs)].next())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range strings.Fields(executedPasses(res)) {
			runs[p]++
		}
	}
	want := map[string]int{"profile": 240, "aggregate": 77, "merge": 1, "agg-opt": 1, "phr": 1, "swc": 5, "final-opt": 2, "codegen": 2}
	for p, n := range want {
		if runs[p] != n {
			t.Errorf("%s executed %d times in %d recompiles, want %d", p, runs[p], deltas, n)
		}
	}
	const incremental = deltas - 3 // less each session's first recompile
	// Each app's re-interpreted packets over its 79 incremental profiles,
	// as a walk that checks every packet counts them. The index checks a
	// packet's read log only when a word in it may have changed; on this
	// stream those are exactly the packets that then run differently.
	wantPackets := map[string]int64{"l3switch": 3506, "mpls": 3396, "firewall": 7161}
	var hits int64
	for i, s := range ss {
		res, err := s.Compile() // a full cache hit, for the registry's snapshot
		if err != nil {
			t.Fatal(err)
		}
		name, c := cs[i].app.Name, res.Report.Metrics.Counters
		a, r := c[metrics.ProfilePacketsReinterpreted.String()], c[metrics.ProfilePacketsReused.String()]
		checked := c[metrics.ProfilePacketsChecked.String()]
		t.Logf("%s: %.1f of 512 packets re-interpreted and %.1f checked per profile", name,
			float64(a)/float64(incremental/len(ss)), float64(checked)/float64(incremental/len(ss)))
		if full := c[metrics.ProfileFull("cold").String()]; full != 2 || a+r != incremental/int64(len(ss))*512 {
			t.Errorf("%s: %d full profiles and %d incremental packets, want the first two and %d", name,
				full, a+r, incremental/len(ss)*512)
		}
		if a > checked {
			t.Errorf("%s: %d packets re-interpreted, but only %d checked", name, a, checked)
		}
		if a != wantPackets[name] || checked != wantPackets[name] {
			t.Errorf("%s: %d packets re-interpreted and %d checked, want %d of each", name, a, checked, wantPackets[name])
		}
		hits += c[metrics.SessionHistoryHits.String()]
	}
	if hits != 179 {
		t.Errorf("%d skips reused a held result other than the most recent one, want 179", hits)
	}
}

// fwRuleOff is the Firewall's boot rule i, switched off (to a destination
// port no trace packet carries) or on again.
func fwRuleOff(i int, off bool) profiler.Control {
	c := apps.Firewall().Controls[i]
	args := slices.Clone(c.Args)
	if off {
		args[7], args[8] = 9, 9
	}
	return profiler.Control{Name: c.Name, Args: args}
}

// fwRuleMasks are Firewall rule sets, rule i off where bit i is set, whose
// profiles select six different SWC candidate sets.
var fwRuleMasks = []int{0, 1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 5}

// switchRules returns the delta that takes the Firewall's rules from mask
// from to mask to.
func switchRules(c *churner, from, to int) driver.Delta {
	var ctls []profiler.Control
	for i := 0; i < 6; i++ {
		if (from^to)>>i&1 != 0 {
			ctls = append(ctls, fwRuleOff(i, to>>i&1 != 0))
		}
	}
	return c.add(ctls...)
}

// TestSessionHistoryBound: a session holds at most KeepPerPass results per
// pipeline position, however many states its passes see. Firewall rule
// sets that select six different SWC candidate sets, more than a position
// holds, are compiled in turn three times over: from the second round on
// each returns after its held results were dropped, so swc executes every
// time, and every result is a cold compile's equal with the test-time
// checks on. Then 1,000 stream deltas, compiled as in production over a
// 64-packet trace, never hold more either, the history serves some of
// their returns, and the last is a cold compile's equal.
func TestSessionHistoryBound(t *testing.T) {
	checkBound := func(s *driver.Session, step int) {
		t.Helper()
		for pos, held := range s.Held() {
			if len(held) > driver.KeepPerPass {
				t.Fatalf("step %d: position %d holds %d results, more than %d", step, pos, len(held), driver.KeepPerPass)
			}
		}
	}
	c := newChurner(t, apps.Firewall(), 1)
	s := c.session(t, driver.LevelSWC, driver.VerifyOn)
	selections := map[string]bool{}
	cur := 0
	for round := 0; round < 3; round++ {
		for _, m := range fwRuleMasks {
			res, err := s.Recompile(switchRules(c, cur, m))
			if err != nil {
				t.Fatal(err)
			}
			cur = m
			checkBound(s, round)
			if !bytes.Equal(dumpIR(t, res), dumpIR(t, c.cold(t, driver.LevelSWC, driver.VerifyOff))) {
				t.Fatalf("round %d, rules off %06b: the result differs from a cold compile", round, m)
			}
			selections[swcReport(res)] = true
			if round > 0 && !strings.Contains(executedPasses(res), "swc") {
				t.Errorf("round %d, rules off %06b: swc reused a selection the session dropped (executed %q)",
					round, m, executedPasses(res))
			}
		}
	}
	if len(selections) <= driver.KeepPerPass {
		t.Fatalf("the rule sets select %d candidate sets, no more than a position holds", len(selections))
	}

	defer driver.SetCutoffCheck(driver.SetCutoffCheck(false))
	c = newChurner(t, apps.Firewall(), 1)
	c.trace = c.trace[:64]
	s = c.session(t, driver.LevelSWC, driver.VerifyOff)
	var res *driver.Result
	for i := 0; i < 1000; i++ {
		var err error
		if res, err = s.Recompile(c.next()); err != nil {
			t.Fatal(err)
		}
		checkBound(s, i)
	}
	if !bytes.Equal(dumpIR(t, res), dumpIR(t, c.cold(t, driver.LevelSWC, driver.VerifyOff))) {
		t.Error("the 1,000th delta differs from a cold compile")
	}
	if n := res.Report.Metrics.Counters[metrics.SessionHistoryHits.String()]; n == 0 {
		t.Error("no skip in 1,000 deltas reused a held result other than its pass's most recent one")
	}
}

// TestBadDeltaLeavesSession: a delta the session refuses — an unknown
// control, a function that is not a control, a control with the wrong
// number of arguments — is a *DeltaError naming what
// it refused, and a delta whose control faults when the profiler replays it
// fails with the profiler's error, prefixed once. Either way the session is
// left as it was — after a history hit too, its history in the order the
// hit left it — the next valid delta executes what it executes on a
// session that never saw the bad ones, and compiles what a cold compile
// does.
func TestBadDeltaLeavesSession(t *testing.T) {
	a := apps.L3Switch()
	s, twin := newSessionFor(t, a, driver.LevelSWC), newSessionFor(t, a, driver.LevelSWC)
	for _, ss := range []*driver.Session{s, twin} {
		if _, err := ss.Compile(); err != nil {
			t.Fatal(err)
		}
	}
	ctl := func(name string, args ...uint32) driver.Delta {
		return driver.Delta{AddControls: []profiler.Control{{Name: name, Args: args}}}
	}
	for _, c := range []struct {
		d       driver.Delta
		control string
	}{
		{ctl("no_such_control"), "no_such_control"},
		{ctl("l3switch.l2_clsfr", 0), "l3switch.l2_clsfr"},
		{ctl("l3switch.add_route", 0x0b000000, 8), "l3switch.add_route"},
	} {
		_, err := s.Recompile(c.d)
		var de *driver.DeltaError
		if !errors.As(err, &de) || de.Control != c.control {
			t.Errorf("delta %+v: got %v, want a *DeltaError naming %q", c.d, err, c.control)
		}
	}
	_, err := s.Recompile(ctl("l3switch.set_port_mac", 1<<20, 0, 0))
	if err == nil || !strings.Contains(err.Error(), "profile: control l3switch.set_port_mac: ") ||
		strings.Contains(err.Error(), "profile: profile:") {
		t.Errorf("a faulting control: got %v, want the profile pass's error naming it once", err)
	}
	if n := len(s.Config().Controls); n != len(a.Controls) {
		t.Fatalf("the session kept %d controls after refusing every delta, want %d", n, len(a.Controls))
	}

	got, err := s.Recompile(deltaFor(a))
	if err != nil {
		t.Fatalf("a valid delta after the bad ones: %v", err)
	}
	want, err := twin.Recompile(deltaFor(a))
	if err != nil {
		t.Fatal(err)
	}
	if executedPasses(got) != executedPasses(want) {
		t.Errorf("the valid delta executed %q, on a session without the bad ones %q", executedPasses(got), executedPasses(want))
	}
	if !bytes.Equal(dumpIR(t, got), dumpIR(t, coldCompile(t, a, s.Config()))) {
		t.Error("the valid delta after the bad ones differs from a cold compile")
	}

	// A faulting delta right after a skip that an older held result served
	// leaves the history as that skip left it: the same results in the
	// same order.
	c, tc := newChurner(t, apps.Firewall(), 1), newChurner(t, apps.Firewall(), 1)
	fw, fwTwin := c.session(t, driver.LevelSWC, driver.VerifyOn), tc.session(t, driver.LevelSWC, driver.VerifyOn)
	var res *driver.Result
	for _, step := range [][2]int{{0, 1}, {1, 0}} { // rule 0 off, and on again
		if res, err = fw.Recompile(switchRules(c, step[0], step[1])); err != nil {
			t.Fatal(err)
		}
		if _, err = fwTwin.Recompile(switchRules(tc, step[0], step[1])); err != nil {
			t.Fatal(err)
		}
	}
	if res.Report.Metrics.Counters[metrics.SessionHistoryHits.String()] == 0 {
		t.Fatalf("switching rule 0 back on reused no older held result (executed %q)", executedPasses(res))
	}
	held := fw.Held()
	if _, err := fw.Recompile(driver.Delta{AddControls: []profiler.Control{{Name: "firewall.add_rule",
		Args: []uint32{1 << 20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}}}); err == nil {
		t.Fatal("a rule past the table did not fail the recompile")
	}
	if after := fw.Held(); !slices.EqualFunc(after, held, slices.Equal) {
		t.Errorf("a faulting delta after a history hit left the history\n%v\nwas\n%v", after, held)
	}
	if got, err = fw.Recompile(switchRules(c, 0, 1<<1)); err != nil {
		t.Fatal(err)
	}
	if want, err = fwTwin.Recompile(switchRules(tc, 0, 1<<1)); err != nil {
		t.Fatal(err)
	}
	if executedPasses(got) != executedPasses(want) {
		t.Errorf("after a history hit and a fault: executed %q, on a session without the fault %q",
			executedPasses(got), executedPasses(want))
	}
	if !bytes.Equal(dumpIR(t, got), dumpIR(t, c.cold(t, driver.LevelSWC, driver.VerifyOff))) {
		t.Error("after a history hit and a fault: the next delta differs from a cold compile")
	}
}

// TestSessionOwnsControls: a Session appends each delta's controls to a
// list of its own. Appending to the list a caller passed to NewSession, or
// to any list Config returned, reaches neither the session's controls nor
// the state a failed Recompile rolls back to, and the session's appends
// never reach a caller's list.
func TestSessionOwnsControls(t *testing.T) {
	a := apps.L3Switch()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	mine := make([]profiler.Control, len(a.Controls), len(a.Controls)+4) // room to append in place
	copy(mine, a.Controls)
	s, err := driver.NewSession(prog, driver.Config{Level: driver.LevelSWC, Controls: mine,
		ProfileTrace: a.Trace(prog.Types, 7, 256)})
	if err != nil {
		t.Fatal(err)
	}
	stray := profiler.Control{Name: "l3switch.add_route", Args: []uint32{0x0c000000, 8, 3}}
	want := slices.Clone(a.Controls)
	handed := [][]profiler.Control{mine}
	// check appends to every list handed out so far, then compares the
	// session's controls with want.
	check := func(when string) {
		t.Helper()
		for _, h := range handed {
			_ = append(h, stray)
		}
		if got := s.Config().Controls; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the session's controls are\n%v\nwant\n%v", when, got, want)
		}
		handed = append(handed, s.Config().Controls)
	}

	check("a new session")
	strayed := append(mine, stray)
	d := deltaFor(a)
	if _, err := s.Recompile(d); err != nil {
		t.Fatal(err)
	}
	want = append(want, d.AddControls...)
	if !reflect.DeepEqual(strayed[len(mine)], stray) {
		t.Fatal("the session's append reached the list a caller passed")
	}
	check("a delta")
	if _, err := s.Recompile(driver.Delta{AddControls: []profiler.Control{{Name: "l3switch.set_port_mac",
		Args: []uint32{1 << 20, 0, 0}}}}); err == nil {
		t.Fatal("a faulting control did not fail the recompile")
	}
	check("a failed recompile")
	res, err := s.Recompile(d)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, d.AddControls...)
	check("a delta after the rollback")
	if !bytes.Equal(dumpIR(t, res), dumpIR(t, coldCompile(t, a, s.Config()))) {
		t.Error("the delta after the rollback differs from a cold compile")
	}
}

// TestRecompileAllocsBelowCold is the clock-free guard on what the Session
// is for: a steady-state recompile of one churn delta allocates well under
// a cold CompileIR on the same program, trace and controls. The ceilings
// are the measurement with the incremental profile's reader index and
// first-touch contributions (165 / 104 / 1,070 allocations per recompile,
// against 8,285 / 10,591 / 7,458 per cold compile) plus a tenth. With the
// recorder that differenced every counter it was 189 / 114 / 1,079, and
// 201 / 125 / 1,090 just after aggregation split into plan and merge.
// Re-merging on every re-run of the plan it was 555 / 124 / 1,669;
// holding one result per pass, 564 / 129 / 3,763; profiling the whole
// trace after every delta, 716 / 263 / 3,863;
// re-running aggregation and SWC on every delta and copying the trace for
// every profile, 3,845 / 4,640 / 5,866; with whole-program clones per
// snapshot 5,016 / 5,431 / 7,072; and before the cut-off and the shared
// snapshots three times the cold compile's.
func TestRecompileAllocsBelowCold(t *testing.T) {
	defer driver.SetCutoffCheck(driver.SetCutoffCheck(false))
	ceiling := map[string]float64{"l3switch": 182, "mpls": 115, "firewall": 1177}
	for _, a := range apps.All() {
		c := newChurner(t, a, 1)
		s := c.session(t, driver.LevelSWC, driver.VerifyOff)
		for i := 0; i < 3; i++ { // past the first recompile, which keeps the profiler state, and buffers' growth
			if _, err := s.Recompile(c.next()); err != nil {
				t.Fatal(err)
			}
		}
		inc := testing.AllocsPerRun(10, func() {
			if _, err := s.Recompile(c.next()); err != nil {
				t.Fatal(err)
			}
		})
		cold := testing.AllocsPerRun(10, func() { c.cold(t, driver.LevelSWC, driver.VerifyOff) })
		t.Logf("%s: %.0f allocations per recompile, %.0f per cold compile", a.Name, inc, cold)
		if inc > ceiling[a.Name] {
			t.Errorf("%s: a recompile allocates %.0f objects, ceiling %.0f (a cold compile %.0f)",
				a.Name, inc, ceiling[a.Name], cold)
		}
	}
}

// TestEditingResultLeavesSession: a result a Session hands out shares the
// session's frozen functions instead of copying them. A caller that edits
// them through ir.Program.Edit — the whole program and every merged view,
// destructively — writes copies of its own, and the session's next
// recompile is still a cold compile's equal. A caller that writes one in
// place instead is named by the next compile (under `go test`).
func TestEditingResultLeavesSession(t *testing.T) {
	a := apps.L3Switch()
	s := newSessionFor(t, a, driver.LevelSWC)
	res, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	progs := []*ir.Program{res.Prog}
	for _, m := range res.Merged {
		progs = append(progs, m.Prog)
	}
	for _, p := range progs {
		for _, f := range p.Funcs {
			if !f.Frozen() {
				t.Fatalf("the result hands out %s unfrozen", f.Name)
			}
			w := p.Edit(f.Name)
			w.Entry.Instrs, w.NumRegs = nil, 0
		}
	}
	inc, err := s.Recompile(deltaFor(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpIR(t, inc), dumpIR(t, coldCompile(t, a, s.Config()))) {
		t.Fatal("editing a handed-out result through ir.Program.Edit changed the next recompile")
	}

	f := inc.Prog.Funcs[0]
	f.Entry.Instrs[0].Imm += 99
	var caught string
	func() {
		defer func() {
			if r := recover(); r != nil {
				caught = fmt.Sprint(r)
			}
		}()
		s.Compile()
	}()
	if !strings.Contains(caught, f.Name) {
		t.Errorf("a result function written in place: next compile panicked with %q, want it named", caught)
	}
}
