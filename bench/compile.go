package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"shangrila/internal/apps"
	"shangrila/internal/baker/ast"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	wl "shangrila/internal/workload"
)

// profileTraceN is the profile trace length harness.Compile uses.
const profileTraceN = 512

// ---------------------------------------------------------------------
// compile_cold

func compileColdWorkload() *workload {
	return &workload{
		name: "compile_cold", unit: "cold compiles",
		why:   "source to image with no simulation, 3 apps x 7 levels, so time spreads from frontend + codegen (BASE) to all ten passes (+SWC)",
		alias: "compiles_per_cs", rawAlias: "raw.compiles_per_s",
		// 15 repetitions of the 21-job grid in a 10-second budget.
		period:       21,
		opsPerSecond: 31.5,
		setup:        setupCompileCold,
		probes: func(st state, seed uint64, m *meter, tr *tracer, out map[string]float64) error {
			return compileProbes(st.(*coldState).apps, seed, m, tr, out)
		},
	}
}

type coldJob struct {
	app   int
	level driver.Level
}

type coldState struct {
	seed uint64
	apps []*apps.App
	jobs []coldJob
	// last is the most recent result per job; dump is the first
	// repetition's DumpIR hash, which every later one must reproduce.
	last []*driver.Result
	dump []uint64
	// lowered is the IR size LowerSource produced, per application.
	lowered []int
}

func setupCompileCold(seed uint64, _ int) (state, error) {
	s := &coldState{seed: seed, apps: benchApps()}
	for ai := range s.apps {
		for _, lvl := range driver.Levels() {
			s.jobs = append(s.jobs, coldJob{app: ai, level: lvl})
		}
	}
	s.last = make([]*driver.Result, len(s.jobs))
	s.dump = make([]uint64, len(s.jobs))
	s.lowered = make([]int, len(s.apps))
	// Warm-up: one full-pipeline compile per application, untimed.
	for _, a := range s.apps {
		if _, err := harness.Compile(a, driver.LevelSWC, seed); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return s, nil
}

func (s *coldState) op(i int, tr *tracer) (float64, error) {
	ji := i % len(s.jobs)
	job := s.jobs[ji]
	a := s.apps[job.app]
	var res *driver.Result
	var err error
	if tr == nil {
		res, err = harness.Compile(a, job.level, s.seed)
	} else {
		res, err = s.compileTraced(a, job, tr)
	}
	if err != nil {
		return 0, fmt.Errorf("%s at %v: %w", a.Name, job.level, err)
	}
	s.last[ji] = res
	return 1, nil
}

// compileTraced is harness.Compile call for call: frontend (parse, check,
// lower), profile trace, pass pipeline.
func (s *coldState) compileTraced(a *apps.App, job coldJob, tr *tracer) (*driver.Result, error) {
	prog, err := lowerTraced(a, tr)
	if err != nil {
		return nil, err
	}
	s.lowered[job.app] = irInstrs(prog)
	var ptrace []*packet.Packet
	tr.do("apps.profile_trace", func() { ptrace = a.Trace(prog.Types, s.seed, profileTraceN) })
	var res *driver.Result
	tr.do("driver.compile_ir", func() {
		res, err = driver.CompileIR(prog, driver.Config{Level: job.level, ProfileTrace: ptrace,
			Controls: a.Controls, DumpPrefix: a.Name + "-" + job.level.String()})
	})
	return res, err
}

// lowerTraced is driver.LowerSource call for call.
func lowerTraced(a *apps.App, tr *tracer) (*ir.Program, error) {
	var prog *ir.Program
	err := tr.doErr("driver.lower_source", func() error {
		var astProg *ast.Program
		var tp *types.Program
		var err error
		tr.do("baker.parser.parse", func() { astProg, err = parser.Parse(a.Name+".baker", a.Source) })
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		tr.do("baker.types.check", func() { tp, err = types.Check(astProg) })
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		tr.do("lower.lower", func() { prog, err = lower.Lower(tp) })
		if err != nil {
			return fmt.Errorf("lower: %w", err)
		}
		return nil
	})
	return prog, err
}

func (s *coldState) check(i int) error {
	ji := i % len(s.jobs)
	res := s.last[ji]
	if len(res.Image.MECode) == 0 {
		return fmt.Errorf("job %d: image has no ME code", ji)
	}
	if err := ir.Verify(res.Prog); err != nil {
		return fmt.Errorf("job %d: %w", ji, err)
	}
	h, err := dumpHash(res)
	if err != nil {
		return err
	}
	if i < len(s.jobs) {
		s.dump[ji] = h
	} else if h != s.dump[ji] {
		return fmt.Errorf("job %d: final IR differs from the first repetition's", ji)
	}
	return nil
}

func dumpHash(res *driver.Result) (uint64, error) {
	b, err := res.DumpIR()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// lastPasses hands the runner the pass timings of operation i.
func (s *coldState) lastPasses(i int) []driver.PassTiming {
	return s.last[i%len(s.jobs)].Report.Passes
}

func (s *coldState) finish() (uint64, error) {
	d := newDigest()
	d.u64(s.dump...)
	return d.sum(), nil
}

// report sums the code sizes and simulates each job's latest image for
// one short window, so the run time of the generated code is read beside
// the time to generate it.
func (s *coldState) report(v *layerView) {
	imageSizes(v.out, s.last...)
	var runs []imageRun
	for ji, res := range s.last {
		if res != nil {
			runs = append(runs, imageRun{s.apps[s.jobs[ji].app], res})
		}
	}
	v.out["sim.fwd_gbps"] = meanGbps(runs, s.seed)
	for _, n := range s.lowered {
		v.out["lower.ir_instrs"] += float64(n)
	}
}

// imageRun pairs a compiled image with the application (and controls) it
// runs under.
type imageRun struct {
	app *apps.App
	res *driver.Result
}

// meanGbps simulates each image for one short window and returns the
// mean forwarding rate (0 when none ran).
func meanGbps(runs []imageRun, seed uint64) float64 {
	var sum float64
	var n int
	for _, r := range runs {
		res, err := harness.Run(r.app, harness.WithCompiled(r.res), harness.WithSeed(seed),
			harness.WithWindows(sweepWarmup, sweepMeasure))
		if err == nil {
			sum += res.Gbps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func irInstrs(p *ir.Program) int {
	n := 0
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// passTotals sums driver.Report.Passes — the per-pass timing the driver
// already publishes — over a run.
type passTotals struct {
	cms         map[string]float64
	instrsAfter map[string]float64
	executed    int
	skipped     int
}

// add folds one compile's passes in; factor is the calibration factor of
// the slice the compile ran in.
func (t *passTotals) add(passes []driver.PassTiming, factor float64) {
	if t.cms == nil {
		t.cms, t.instrsAfter = map[string]float64{}, map[string]float64{}
	}
	for _, p := range passes {
		if p.Skipped {
			t.skipped++
			continue
		}
		t.executed++
		t.cms[p.Pass] += float64(p.Nanos) / 1e6 * factor
		t.instrsAfter[p.Pass] += float64(p.InstrsAfter)
	}
}

func (t *passTotals) report(out map[string]float64) {
	for _, p := range passNames {
		out[passMetric(p, "ms")] = t.cms[p]
		out[passMetric(p, "instrs_after")] = t.instrsAfter[p]
	}
	// A cold compile executes every pass; only a session skips any.
	out["driver.session.passes_executed"] = float64(t.executed)
	out["driver.session.passes_skipped"] = float64(t.skipped)
	if tot := t.executed + t.skipped; tot > 0 {
		out["driver.session.skip_ratio"] = float64(t.skipped) / float64(tot)
	}
}

// ---------------------------------------------------------------------
// compile_incr

func compileIncrWorkload() *workload {
	return &workload{
		name: "compile_incr", unit: "incremental recompiles",
		why:   "one policy delta per recompile through a warm driver.Session: IR hashing, fact-read checks, snapshot clones, partial re-execution",
		alias: "", rawAlias: "",
		// 80 rounds over the three applications in a 10-second budget.
		period:       3,
		opsPerSecond: 24,
		setup:        setupCompileIncr,
		probes: func(st state, seed uint64, m *meter, tr *tracer, out map[string]float64) error {
			return sessionProbes(st.(*incrState), m, tr, out)
		},
	}
}

type incrApp struct {
	app    *apps.App
	cfg    driver.Config
	sess   *driver.Session
	stream *wl.ChurnStream
	last   *driver.Result
	rounds int
}

type incrState struct {
	seed uint64
	apps []*incrApp
}

// incrCheckEvery is how often a recompile is checked against a fresh
// cold compile with the same accumulated controls.
const incrCheckEvery = 10

func setupCompileIncr(seed uint64, _ int) (state, error) {
	s := &incrState{seed: seed}
	for _, a := range benchApps() {
		ia, err := newIncrApp(a, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		if _, err := ia.sess.Compile(); err != nil {
			return nil, fmt.Errorf("%s session cold compile: %w", a.Name, err)
		}
		s.apps = append(s.apps, ia)
	}
	return s, nil
}

func newIncrApp(a *apps.App, seed uint64) (*incrApp, error) {
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		return nil, err
	}
	cfg := driver.Config{Level: driver.LevelSWC, Controls: a.Controls,
		ProfileTrace: a.Trace(prog.Types, seed, profileTraceN)}
	sess, err := driver.NewSession(prog, cfg)
	if err != nil {
		return nil, err
	}
	stream, err := wl.NewChurnStream(wl.ChurnSpec{Seed: seed, UpdatesPerSec: 1000,
		Items: len(a.Churn.Targets), WithdrawFraction: 0.25})
	if err != nil {
		return nil, err
	}
	return &incrApp{app: a, cfg: cfg, sess: sess, stream: stream}, nil
}

func (s *incrState) op(i int, tr *tracer) (float64, error) {
	ia := s.apps[i%len(s.apps)]
	ev := ia.stream.Next()
	ctl := ia.app.Churn.State(ev.Item, ev.Version, ev.Withdraw)
	err := tr.doErr("driver.session.recompile", func() (err error) {
		ia.last, err = ia.sess.Recompile(driver.Delta{AddControls: []profiler.Control{ctl}})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", ia.app.Name, err)
	}
	ia.rounds++
	return 1, nil
}

func (s *incrState) check(i int) error {
	ia := s.apps[i%len(s.apps)]
	if len(ia.last.Image.MECode) == 0 {
		return fmt.Errorf("%s: image has no ME code", ia.app.Name)
	}
	if ia.rounds%incrCheckEvery != 0 {
		return nil
	}
	prog, err := driver.LowerSource(ia.app.Name+".baker", ia.app.Source)
	if err != nil {
		return err
	}
	cfg := ia.cfg
	cfg.Controls = ia.sess.Config().Controls
	cfg.ProfileTrace = ia.app.Trace(prog.Types, s.seed, profileTraceN)
	cold, err := driver.CompileIR(prog, cfg)
	if err != nil {
		return fmt.Errorf("%s cold reference: %w", ia.app.Name, err)
	}
	want, err := cold.DumpIR()
	if err != nil {
		return err
	}
	got, err := ia.last.DumpIR()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: recompile %d differs from a cold compile with the same controls",
			ia.app.Name, ia.rounds)
	}
	return nil
}

func (s *incrState) lastPasses(i int) []driver.PassTiming {
	return s.apps[i%len(s.apps)].last.Report.Passes
}

func (s *incrState) finish() (uint64, error) {
	d := newDigest()
	for _, ia := range s.apps {
		if ia.last == nil {
			continue
		}
		h, err := dumpHash(ia.last)
		if err != nil {
			return 0, err
		}
		d.u64(h)
	}
	return d.sum(), nil
}

func (s *incrState) report(v *layerView) {
	var runs []imageRun
	for _, ia := range s.apps {
		if ia.last == nil {
			continue
		}
		imageSizes(v.out, ia.last)
		// The final images run with the accumulated policy.
		a := *ia.app
		a.Controls = ia.sess.Config().Controls
		runs = append(runs, imageRun{&a, ia.last})
	}
	v.out["sim.fwd_gbps"] = meanGbps(runs, s.seed)
	v.out["recompile_p50_cms"] = median(v.opCms)
	v.out["raw.recompile_p50_ms"] = median(v.opRawMs)
	v.out["driver.session.recompile_tail_cms"] = percentile(v.opCms, tailPercentile(len(v.opCms)))
	if cold := v.rows["driver.session.cold"]; cold.Calls > 0 && len(v.opCms) > 0 {
		// Mean over the three applications on both sides.
		var sum float64
		for _, c := range v.opCms {
			sum += c
		}
		v.out["driver.session.incr_over_cold"] = (sum / float64(len(v.opCms))) /
			(cold.TotalMs / float64(cold.Calls))
	}
}
