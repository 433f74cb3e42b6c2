package harness

import (
	"bytes"
	"slices"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// churnTestCfg keeps churn measurement runs short, with the
// software-cache check interval clamped to 64 packets.
func churnTestCfg(sp *workload.ChurnSpec) RunConfig {
	cfg := DefaultRunConfig()
	cfg.NumMEs, cfg.Seed, cfg.TraceN = 4, 7, 192
	cfg.Warmup, cfg.Measure = 60_000, 400_000
	cfg.Churn, cfg.SWCMaxCheck = sp, 64
	return cfg
}

// TestChurnRunTimeline: the churn experiment applies updates mid-run,
// reports a bucketed timeline that keeps forwarding throughout, and the
// incremental compile-latency comparison executes strictly fewer passes
// than the cold pipeline.
func TestChurnRunTimeline(t *testing.T) {
	sp := &workload.ChurnSpec{UpdatesPerSec: 60_000, Burst: 2}
	r, err := ChurnRun(apps.L3Switch(), churnTestCfg(sp))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Buckets) != churnBuckets {
		t.Fatalf("got %d buckets, want %d", len(r.Buckets), churnBuckets)
	}
	if r.Updates.Applied == 0 || r.Updates.Failed != 0 {
		t.Errorf("update stats %+v: want applied > 0 and no failures", r.Updates)
	}
	var applied int
	var tx uint64
	for i, b := range r.Buckets {
		applied += b.UpdatesApplied
		tx += b.TxPackets
		if b.GoodputGbps <= 0 {
			t.Errorf("bucket %d: forwarding stopped (%.3f Gbps)", i, b.GoodputGbps)
		}
	}
	if applied != r.Updates.Applied {
		t.Errorf("bucket updates sum %d != applied %d", applied, r.Updates.Applied)
	}
	if tx == 0 {
		t.Error("no packets transmitted across the whole timeline")
	}
	c := r.Compile
	if c == nil {
		t.Fatal("no compile-latency comparison recorded")
	}
	if c.IncSkipped == 0 || c.IncExecuted >= c.ColdPasses {
		t.Errorf("incremental recompile executed %d of %d passes (skipped %d), want strictly fewer",
			c.IncExecuted, c.ColdPasses, c.IncSkipped)
	}
	rep := &BenchReport{Schema: ReportSchema, Churn: []*ChurnResult{r}}
	canon, err := rep.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(canon, []byte(`"cold_p50_nanos": 0`)) == false {
		t.Error("canonical report keeps wall-clock compile latency")
	}
}

// TestChurnDeterminism: the churn section of the canonical report is
// byte-identical across repeated runs. Run with -cpu 1,4 to vary
// scheduler width.
func TestChurnDeterminism(t *testing.T) {
	report := func() []byte {
		rs, err := ChurnExperiment([]*apps.App{apps.L3Switch()}, churnTestCfg(
			&workload.ChurnSpec{UpdatesPerSec: 40_000, Arrival: workload.ChurnArrivalPoisson, WithdrawFraction: 0.25}))
		if err != nil {
			t.Fatal(err)
		}
		rep := &BenchReport{Schema: ReportSchema, Churn: rs}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := report()
	b := report()
	if !bytes.Equal(a, b) {
		t.Fatalf("churn reports differ between identical runs:\n%s\n--- vs ---\n%s", a, b)
	}
}

// compileWithCheckLimit compiles an app at +SWC with the software-cache
// update-check interval clamped to limit packets.
func compileWithCheckLimit(t *testing.T, a *apps.App, limit uint32) *driver.Result {
	t.Helper()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	swcCfg := swc.DefaultConfig()
	swcCfg.MaxCheckLimit = limit
	res, err := driver.CompileIR(prog, driver.Config{
		Level:        driver.LevelSWC,
		ProfileTrace: a.Trace(prog.Types, 7, 512),
		Controls:     a.Controls,
		SWC:          swcCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func be16(b []byte) uint32 { return uint32(b[0])<<8 | uint32(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// scheduleChurnStorm expands a churn spec against the app policy over
// [now, now+span) and registers the updates.
func scheduleChurnStorm(t *testing.T, rt *rts.Runtime, a *apps.App, sp workload.ChurnSpec, span int64) *rts.ChurnStats {
	t.Helper()
	ups, err := churnEvents(a, sp, rt.M.Cfg.ClockMHz, rt.M.Now(), span)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) < 10 {
		t.Fatalf("storm too weak: only %d updates scheduled", len(ups))
	}
	return rt.ScheduleUpdates(ups)
}

// TestSWCCoherencyUnderChurnStorm is the delayed-update coherency claims
// test (§5.2): while a seeded storm of route add/withdraw updates flips
// the L3-Switch tables through the XScale path, no transmitted frame may
// ever observe a half-applied rule set — every routed frame's dst MAC,
// src MAC and output port must be consistent with a single next hop, and
// that next hop must be one some applied table version installed. After
// the storm, with the check interval clamped, every ME converges to the
// final table state within the staleness bound.
func TestSWCCoherencyUnderChurnStorm(t *testing.T) {
	a := apps.L3Switch()
	res := compileWithCheckLimit(t, a, 64)
	rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 256),
		rts.Options{NumMEs: 4, CaptureLimit: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}

	st := scheduleChurnStorm(t, rt, a, workload.ChurnSpec{
		Seed: 5, UpdatesPerSec: 150_000, Burst: 3, Items: 3, WithdrawFraction: 0.3,
	}, 400_000)
	if err := rt.Run(400_000); err != nil {
		t.Fatal(err)
	}
	if st.Applied < 10 || st.Failed != 0 {
		t.Fatalf("storm update stats %+v", st)
	}

	// Per churned /24, the next hops any applied version installs.
	allowedNH := map[uint32]map[uint32]bool{
		0xc0a80100: {4: true, 7: true},
		0x08080800: {6: true, 5: true},
		0x01010100: {7: true, 8: true},
	}
	checkFrames := func(frames []rts.TxPkt, finalNH map[uint32]uint32) {
		routed := 0
		for _, f := range frames {
			if len(f.Frame) < 34 || be16(f.Frame[12:14]) != 0x0800 {
				continue
			}
			dstHi, dstLo := be16(f.Frame[0:2]), be32(f.Frame[2:6])
			srcHi, srcLo := be16(f.Frame[6:8]), be32(f.Frame[8:12])
			if dstHi != 0x0bb0 {
				continue // bridged or flooded, not a routed frame
			}
			routed++
			nh := dstLo - 0x11000000
			if nh < 1 || nh > 8 {
				t.Fatalf("routed frame with dst MAC %04x:%08x: next hop %d out of range (torn neighbor read?)",
					dstHi, dstLo, nh)
			}
			wantHi, wantLo := routerMACHalves(nh % 3)
			if srcHi != wantHi || srcLo != wantLo {
				t.Fatalf("routed frame mixes table versions: next hop %d but src MAC %04x:%08x (want %04x:%08x)",
					nh, srcHi, srcLo, wantHi, wantLo)
			}
			ipDst := be32(f.Frame[30:34])
			if set, churned := allowedNH[ipDst&0xffffff00]; churned {
				if !set[nh] {
					t.Fatalf("frame to churned %08x/24 routed via next hop %d, never installed by any version",
						ipDst&0xffffff00, nh)
				}
				if finalNH != nil && finalNH[ipDst&0xffffff00] != nh {
					t.Fatalf("after convergence window, frame to %08x/24 still uses next hop %d (want %d)",
						ipDst&0xffffff00, nh, finalNH[ipDst&0xffffff00])
				}
			}
		}
		if routed == 0 {
			t.Fatal("no routed frames captured; the claims check exercised nothing")
		}
	}
	checkFrames(rt.TxCapture, nil)

	// Tail convergence: pin every churned route to its first announce
	// state, let in-flight packets drain and every ME pass the 64-packet
	// check bound, then require all churned-destination frames to use
	// the final tables.
	for _, tgt := range a.Churn.Targets {
		c := tgt.States[0]
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tailStart := len(rt.TxCapture)
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tail := rt.TxCapture[tailStart:]
	if len(tail) == 0 {
		t.Fatal("no frames captured in the convergence window")
	}
	checkFrames(tail, map[uint32]uint32{
		0xc0a80100: 4, 0x08080800: 6, 0x01010100: 7,
	})
}

// routerMACHalves mirrors the app's per-port router MAC assignment.
func routerMACHalves(port uint32) (hi, lo uint32) {
	return 0x0a00, 0x5e000000 | port
}

// TestFirewallRuleFlipConverges: flipping a firewall rule to deny
// through the churn path stops matching traffic once the software caches
// converge — no packet is forwarded under the withdrawn permission.
func TestFirewallRuleFlipConverges(t *testing.T) {
	a := apps.Firewall()
	res := compileWithCheckLimit(t, a, 64)
	rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 256),
		rts.Options{NumMEs: 4, CaptureLimit: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	st := scheduleChurnStorm(t, rt, a, workload.ChurnSpec{
		Seed: 9, UpdatesPerSec: 150_000, Burst: 2, Items: 4,
	}, 300_000)
	if err := rt.Run(300_000); err != nil {
		t.Fatal(err)
	}
	if st.Applied < 10 || st.Failed != 0 {
		t.Fatalf("storm update stats %+v", st)
	}

	// Final state: rule 0 (allow internal web, the first churn target)
	// flipped to deny, every other churned rule back at its boot action.
	deny := a.Churn.Targets[0].States[0]
	if err := rt.Control(deny.Name, deny.Args...); err != nil {
		t.Fatal(err)
	}
	for _, tgt := range a.Churn.Targets[1:] {
		c := tgt.States[1]
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tailStart := len(rt.TxCapture)
	if err := rt.Run(200_000); err != nil {
		t.Fatal(err)
	}
	tail := rt.TxCapture[tailStart:]
	if len(tail) == 0 {
		t.Fatal("no frames captured in the convergence window")
	}
	for _, f := range tail {
		if len(f.Frame) < 38 || be16(f.Frame[12:14]) != 0x0800 {
			continue
		}
		src, dst := be32(f.Frame[26:30]), be32(f.Frame[30:34])
		proto := uint32(f.Frame[23])
		dport := be16(f.Frame[36:38])
		if src&0xff000000 == 0x0a000000 && dst&0xffff0000 == 0xc0a80000 &&
			proto == 6 && dport == 80 {
			t.Fatalf("packet %08x->%08x:80 forwarded after its allow rule converged to deny", src, dst)
		}
	}
}

// churnDelta mirrors the driver session tests' single-rule deltas.
func churnDelta(a *apps.App) driver.Delta {
	switch a.Name {
	case "l3switch":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "l3switch.add_route", Args: []uint32{0x0b000000, 8, 2}}}}
	case "firewall":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "firewall.add_rule", Args: []uint32{
				6, 0x0a000000, 0xff000000, 0xc0a80000, 0xffff0000,
				0, 0xffff, 443, 443, 6, 1, 2}}}}
	case "mpls":
		return driver.Delta{AddControls: []profiler.Control{
			{Name: "mplsapp.add_ilm", Args: []uint32{900, 1, 1000, 3}}}}
	}
	return driver.Delta{}
}

// TestIncrementalPacketDifferential: an incrementally recompiled image
// must be packet-for-packet identical to a cold compile of the same
// post-delta configuration — every transmitted frame byte-equal — for
// every app at every optimization level, and so must the compile itself:
// IR, image and report (compareCompiles).
func TestIncrementalPacketDifferential(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, lvl := range driver.Levels() {
				prog, err := driver.LowerSource(a.Name+".baker", a.Source)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := driver.NewSession(prog, driver.Config{
					Level:        lvl,
					ProfileTrace: a.Trace(prog.Types, 7, 256),
					Controls:     a.Controls,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Compile(); err != nil {
					t.Fatalf("%v: cold session compile: %v", lvl, err)
				}
				inc, err := sess.Recompile(churnDelta(a))
				if err != nil {
					t.Fatalf("%v: incremental recompile: %v", lvl, err)
				}
				coldProg, err := driver.LowerSource(a.Name+".baker", a.Source)
				if err != nil {
					t.Fatal(err)
				}
				coldCfg := sess.Config()
				coldCfg.ProfileTrace = a.Trace(coldProg.Types, 7, 256)
				cold, err := driver.CompileIR(coldProg, coldCfg)
				if err != nil {
					t.Fatalf("%v: cold compile: %v", lvl, err)
				}
				if diff := compareCompiles(inc, cold); diff != "" {
					t.Fatalf("%v: incremental recompile differs from a cold compile in %s", lvl, diff)
				}

				capture := func(res *driver.Result) []rts.TxPkt {
					rt, err := rts.New(res.Image, res.Prog, a.Trace(res.Prog.Types, 11, 128),
						rts.Options{NumMEs: 3, CaptureLimit: 4096})
					if err != nil {
						t.Fatalf("%v: %v", lvl, err)
					}
					for _, c := range coldCfg.Controls {
						if err := rt.Control(c.Name, c.Args...); err != nil {
							t.Fatalf("%v: control %s: %v", lvl, c.Name, err)
						}
					}
					if err := rt.Run(150_000); err != nil {
						t.Fatalf("%v: run: %v", lvl, err)
					}
					return rt.TxCapture
				}
				fi, fc := capture(inc), capture(cold)
				if len(fi) != len(fc) {
					t.Fatalf("%v: incremental transmitted %d frames, cold %d", lvl, len(fi), len(fc))
				}
				if len(fi) == 0 {
					t.Fatalf("%v: no frames transmitted; differential exercised nothing", lvl)
				}
				for i := range fi {
					if !bytes.Equal(fi[i].Frame, fc[i].Frame) {
						t.Fatalf("%v: frame %d differs between incremental and cold images", lvl, i)
					}
				}
			}
		})
	}
}

// sessionMatchesCold drives one warm Session through a sequence of policy
// deltas and holds every recompile to a cold CompileIR of a fresh lowering
// under the accumulated controls: final IR bytes, the CGIR listing, frame
// and rings of every ME image, the layout, the plan (the model's costs
// included) in the report, the image and the merged views, the profile, the
// per-pass statistics, the SWC candidates and the code sizes
// (compareCompiles). It returns how many passes the recompiles skipped.
func sessionMatchesCold(t *testing.T, a *apps.App, lvl driver.Level, deltas []profiler.Control) (skipped int) {
	t.Helper()
	lowered := func() (*ir.Program, driver.Config) {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		return prog, driver.Config{Level: lvl, ProfileTrace: a.Trace(prog.Types, 7, 256),
			Controls: a.Controls, VerifyIR: driver.VerifyOff}
	}
	sess, err := driver.NewSession(lowered())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Compile(); err != nil {
		t.Fatalf("%s at %v: session compile: %v", a.Name, lvl, err)
	}
	for i, ctl := range deltas {
		inc, err := sess.Recompile(driver.Delta{AddControls: []profiler.Control{ctl}})
		if err != nil {
			t.Fatalf("%s at %v: recompile %d: %v", a.Name, lvl, i, err)
		}
		prog, cfg := lowered()
		cfg.Controls = sess.Config().Controls
		cold, err := driver.CompileIR(prog, cfg)
		if err != nil {
			t.Fatalf("%s at %v: cold compile %d: %v", a.Name, lvl, i, err)
		}
		var executed []string
		for _, row := range inc.Report.Passes {
			if row.Skipped {
				skipped++
			} else {
				executed = append(executed, row.Pass)
			}
		}
		if diff := compareCompiles(inc, cold); diff != "" {
			t.Fatalf("%s at %v: recompile %d (executed %v) differs from a cold compile in %s",
				a.Name, lvl, i, executed, diff)
		}
		for j, m := range inc.Merged {
			if m.Agg != inc.Report.Plan.Aggregates[j] {
				t.Fatalf("%s at %v: recompile %d: merged view %d names an aggregate of another plan", a.Name, lvl, i, j)
			}
		}
	}
	return skipped
}

// TestSessionChurnSequenceMatchesCold: incremental ≡ cold is a property of
// every step of a long session, not of the first delta after a cold
// compile. The three applications take 60 deltas each of the churn stream
// the repository benchmark replays, at +PHR and at +SWC — among them the
// ones that change the aggregation plan or the SWC candidate set and the
// many that change neither, where the cut-off keeps everything after
// aggregation cached. Thirty generated programs have their own boot
// controls re-issued with other values.
func TestSessionChurnSequenceMatchesCold(t *testing.T) {
	for _, a := range apps.All() {
		for _, lvl := range []driver.Level{driver.LevelPHR, driver.LevelSWC} {
			stream, err := workload.NewChurnStream(workload.ChurnSpec{Seed: 1, UpdatesPerSec: 1000,
				Items: len(a.Churn.Targets), WithdrawFraction: 0.25})
			if err != nil {
				t.Fatal(err)
			}
			deltas := make([]profiler.Control, 60)
			for i := range deltas {
				ev := stream.Next()
				deltas[i] = a.Churn.State(ev.Item, ev.Version, ev.Withdraw)
			}
			if skipped := sessionMatchesCold(t, a, lvl, deltas); skipped == 0 {
				t.Errorf("%s at %v: no pass was ever reused", a.Name, lvl)
			}
		}
	}
	for seed := uint64(4242); seed < 4272; seed++ {
		a := bakergen.NewSpec(seed).Build()
		deltas := make([]profiler.Control, 8)
		for i := range deltas {
			boot := a.Controls[i%len(a.Controls)]
			args := slices.Clone(boot.Args)
			args[len(args)-1] ^= uint32(seed)*2654435761 + uint32(i)
			deltas[i] = profiler.Control{Name: boot.Name, Args: args}
		}
		sessionMatchesCold(t, a, driver.LevelSWC, deltas)
	}
}
