package main

import (
	"fmt"
	"runtime"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ixp"
	"shangrila/internal/packet"
	"shangrila/internal/rts"
)

// Steady-state shape, shared by steady_opt and steady_base: six MEs,
// saturating playback of a 384-packet trace, 150 k cycles of warm-up in
// set-up, then slices of two million simulated cycles (about 45 ms, so
// the 5 ms calibration kernel between slices stays near a tenth of the
// run) round-robin over the three applications.
const (
	steadyMEs         = 6
	steadyTraceN      = 384
	steadyWarmup      = 150_000
	steadySliceCycles = 2_000_000
)

func steadyWorkload(name string) *workload {
	w := &workload{
		name: name, unit: "simulated cycles",
		alias: "simcycles_per_cs", rawAlias: "raw.simcycles_per_s",
		period:       len(steadyApps),
		opsPerSecond: 20,
	}
	level := driver.LevelSWC
	w.why = "optimized images: few memory references, so scheduling, dispatch and run interiors do the work and construction none"
	if name == "steady_base" {
		level = driver.LevelBase
		w.why = "same apps unoptimized: 3-5x the memory references, so threads block every run and the event queue and controllers dominate"
	}
	w.setup = func(seed uint64, _ int) (state, error) { return setupSteady(level, seed) }
	w.probes = func(st state, seed uint64, m *meter, tr *tracer, out map[string]float64) error {
		return steadyProbes(st.(*steadyState), seed, m, tr, out)
	}
	return w
}

type steadyApp struct {
	app    *apps.App
	res    *driver.Result
	rt     *rts.Runtime
	lastTx uint64
}

type steadyState struct {
	apps []*steadyApp
}

// setupSteady compiles the three applications at level, checks each
// image packet-for-packet against the host interpreter, and leaves one
// warmed machine per application on the default engine.
func setupSteady(level driver.Level, seed uint64) (*steadyState, error) {
	s := &steadyState{}
	for _, a := range benchApps() {
		if rep := harness.DifferentialWith(harness.DiffConfig{Seed: seed}, a, level); !rep.OK() {
			return nil, fmt.Errorf("differential pre-check: %s", rep)
		}
		res, err := harness.Compile(a, level, seed)
		if err != nil {
			return nil, fmt.Errorf("%s at %v: %w", a.Name, level, err)
		}
		sa := &steadyApp{app: a, res: res}
		if err := sa.boot(seed, nil, nil, nil); err != nil {
			return nil, err
		}
		s.apps = append(s.apps, sa)
	}
	return s, nil
}

// boot builds the application's machine and warms it: trace, runtime,
// boot-time controls, warm-up run, statistics reset. engine selects the
// simulation engine (nil = the default a user gets); tracer, when
// non-nil, is attached before warm-up.
func (sa *steadyApp) boot(seed uint64, engine ixp.EngineSpec,
	tracer func(*ixp.Machine) ixp.Tracer, tr *tracer) error {
	a, res := sa.app, sa.res
	var err error
	var trc []*packet.Packet
	tr.do("apps.trace", func() { trc = a.Trace(res.Prog.Types, seed+1, steadyTraceN) })
	tr.do("rts.new", func() {
		sa.rt, err = rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: steadyMEs, Engine: engine})
	})
	if err != nil {
		return fmt.Errorf("%s: %w", a.Name, err)
	}
	tr.do("rts.control", func() {
		for _, c := range a.Controls {
			if err = sa.rt.Control(c.Name, c.Args...); err != nil {
				err = fmt.Errorf("%s control %s: %w", a.Name, c.Name, err)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if tracer != nil {
		sa.rt.M.Observer().SetTracer(tracer(sa.rt.M))
	}
	if err := sa.rt.Run(steadyWarmup); err != nil {
		return fmt.Errorf("%s warm-up: %w", a.Name, err)
	}
	sa.rt.M.ResetStats()
	return nil
}

func (s *steadyState) op(i int, tr *tracer) (float64, error) {
	sa := s.apps[i%len(s.apps)]
	err := tr.doErr("ixp.run."+sa.app.Name, func() error { return sa.rt.Run(steadySliceCycles) })
	return steadySliceCycles, err
}

func (s *steadyState) check(i int) error {
	sa := s.apps[i%len(s.apps)]
	if err := sa.rt.M.Err(); err != nil {
		return err
	}
	tx := sa.rt.M.Snapshot().TxPackets
	if tx <= sa.lastTx {
		return fmt.Errorf("%s: no packet transmitted in slice %d", sa.app.Name, i)
	}
	sa.lastTx = tx
	return nil
}

func (s *steadyState) finish() (uint64, error) {
	d := newDigest()
	for _, sa := range s.apps {
		st := sa.rt.M.Snapshot()
		d.stats(&st)
	}
	return d.sum(), nil
}

func (s *steadyState) totals() *simTotals {
	var t simTotals
	for _, sa := range s.apps {
		st := sa.rt.M.Snapshot()
		t.add(&st, sa.rt.M.Cfg.ClockMHz)
	}
	return &t
}

func (s *steadyState) report(v *layerView) {
	t := s.totals()
	t.report(v.out)
	for _, sa := range s.apps {
		imageSizes(v.out, sa.res)
	}
	// Engine speed per application, and raw host time per simulated
	// instruction and memory reference, from the run spans.
	var runNs float64
	for _, sa := range s.apps {
		r := v.rows["ixp.run."+sa.app.Name]
		if r.TotalMs > 0 {
			v.out["ixp.run."+sa.app.Name+".simcycles_per_cs"] = float64(r.Calls) * steadySliceCycles / (r.TotalMs / 1e3)
		}
		runNs += r.RawMs * 1e6
	}
	if t.instrs > 0 {
		v.out["ixp.run.ns_per_instr"] = runNs / float64(t.instrs)
	}
	if t.memrefs > 0 {
		v.out["ixp.run.ns_per_memref"] = runNs / float64(t.memrefs)
	}
}

// Engine and tracer comparisons run a fixed short window each: they are
// ratios for deciding whether a variant earns its keep, not gated
// numbers.
const steadyVariantOps = 6

// steadyProbes measures what the operations cannot: each registered
// engine on the same images, the stall tracer's cost and breakdown, and
// the lifecycle calls (construction, controls, snapshot) that set-up pays
// once per machine.
func steadyProbes(s *steadyState, seed uint64, m *meter, tr *tracer, out map[string]float64) error {
	// Lifecycle: one fresh machine per application through the same boot
	// sequence set-up used, each layer in its own span, then a snapshot.
	if _, err := m.run(0, true, func() error {
		for _, sa := range s.apps {
			fresh := &steadyApp{app: sa.app, res: sa.res}
			if err := fresh.boot(seed, nil, nil, tr); err != nil {
				return err
			}
			tr.do("ixp.snapshot", func() { fresh.rt.M.Snapshot() })
		}
		return nil
	}); err != nil {
		return err
	}

	variant := func(engine ixp.EngineSpec, tracer func(*ixp.Machine) ixp.Tracer) (*steadyState, float64, error) {
		v := &steadyState{}
		for _, sa := range s.apps {
			va := &steadyApp{app: sa.app, res: sa.res}
			if err := va.boot(seed, engine, tracer, nil); err != nil {
				return nil, 0, err
			}
			v.apps = append(v.apps, va)
		}
		var work, cs float64
		for i := 0; i < steadyVariantOps; i++ {
			var w float64
			id, err := m.run(0, true, func() (err error) { w, err = v.op(i, nil); return })
			if err != nil {
				return nil, 0, err
			}
			work += w
			cs += m.slices[id].cs()
		}
		return v, work / cs, nil
	}

	for _, name := range engineNames {
		shards := 0
		if name == "parallel" {
			shards = 2
		}
		spec, err := ixp.ParseEngine(name, shards)
		if err != nil {
			continue // engine removed: its metric stays 0
		}
		if shards > 0 {
			// The sharded engine needs a second P to run its workers;
			// everything else in the benchmark is single-threaded.
			runtime.GOMAXPROCS(2)
		}
		_, rate, err := variant(spec, nil)
		runtime.GOMAXPROCS(1)
		if err != nil {
			return fmt.Errorf("engine %s: %w", name, err)
		}
		out["ixp.engine."+name+".simcycles_per_cs"] = rate
	}

	_, plain, err := variant(nil, nil)
	if err != nil {
		return err
	}
	traced, withTracer, err := variant(nil, func(mc *ixp.Machine) ixp.Tracer {
		return ixp.NewStallTracer(mc.Cfg.NumMEs, mc.Cfg.ThreadsPerME)
	})
	if err != nil {
		return err
	}
	out["ixp.tracer.stall_overhead"] = plain / withTracer
	var window float64
	shares := map[string]float64{}
	for _, va := range traced.apps {
		tot := va.rt.M.Observer().StallReport().ActiveTotals()
		window += float64(tot.Cycles)
		for _, cat := range []string{"compute", "mem_latency", "mem_queue", "ring", "idle"} {
			shares[cat] += tot.StallShare(cat) * float64(tot.Cycles)
		}
	}
	for cat, v := range shares {
		out["ixp.stall."+cat] = v / window
	}

	return nil
}
