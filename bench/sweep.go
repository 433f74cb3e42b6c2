package main

import (
	"fmt"
	"io"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ixp"
	"shangrila/internal/packet"
	"shangrila/internal/rts"
)

// One sweep repetition is Figure 6's 48 kernel points plus 18
// compiled-application points (3 apps x 1..6 MEs at +SWC), every point
// on a fresh machine with short windows, then the report assembly.
const (
	sweepWarmup       = 20_000
	sweepMeasure      = 60_000
	sweepKernelMEs    = 6
	sweepPointsPerOp  = 8
	sweepKernelPoints = 48
	sweepAppPoints    = 18
	sweepPoints       = sweepKernelPoints + sweepAppPoints
)

// sweepOpsPerRep is the operations in one repetition: the points cut
// into slices of eight (about 35 ms), the last slice also assembling the
// report.
const sweepOpsPerRep = (sweepPoints + sweepPointsPerOp - 1) / sweepPointsPerOp

func sweepWorkload() *workload {
	return &workload{
		name: "sweep_short", unit: "simulation points",
		why:   "short runs on fresh machines: construction, trace generation, predecode, boot controls and report assembly dominate, the engine does little",
		alias: "points_per_cs", rawAlias: "raw.points_per_s",
		// 24 repetitions in a 10-second budget.
		period:       sweepOpsPerRep,
		opsPerSecond: 2.4 * sweepOpsPerRep,
		setup:        setupSweep,
	}
}

// sweepPoint is one point of the repetition and its latest result.
type sweepPoint struct {
	// Kernel point: level/words/accesses. App point: app index and MEs.
	kernel          bool
	level           cg.MemLevel
	words, accesses int
	app, mes        int

	gbps float64
	tx   uint64
	res  *harness.Result // app points: input of the report
}

type sweepState struct {
	seed   uint64
	apps   []*apps.App
	images []*driver.Result
	points []sweepPoint
	// first holds the first repetition's Gbps per point: later
	// repetitions must reproduce it exactly.
	first  []float64
	totals simTotals
	allocs float64 // bytes ixp.New allocated, traced path only
	news   int
}

func setupSweep(seed uint64, _ int) (state, error) {
	s := &sweepState{seed: seed, apps: benchApps()}
	for _, a := range s.apps {
		res, err := harness.Compile(a, driver.LevelSWC, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		s.images = append(s.images, res)
	}
	for _, series := range harness.Fig6Series {
		for _, n := range harness.Fig6Counts {
			s.points = append(s.points, sweepPoint{kernel: true, level: series.Level,
				words: series.Bytes / 4, accesses: n})
		}
	}
	for ai := range s.apps {
		for mes := 1; mes <= 6; mes++ {
			s.points = append(s.points, sweepPoint{app: ai, mes: mes})
		}
	}
	if len(s.points) != sweepPoints {
		return nil, fmt.Errorf("sweep has %d points, want %d", len(s.points), sweepPoints)
	}
	s.first = make([]float64, len(s.points))
	// Warm-up: one kernel point and one application point, untimed.
	for _, pi := range []int{0, sweepKernelPoints} {
		if err := s.point(pi, nil); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sweepSpan returns operation i's point indexes [lo, hi) within a repetition.
func sweepSpan(i int) (lo, hi int) {
	lo = (i % sweepOpsPerRep) * sweepPointsPerOp
	hi = lo + sweepPointsPerOp
	if hi > sweepPoints {
		hi = sweepPoints
	}
	return
}

func (s *sweepState) op(i int, tr *tracer) (float64, error) {
	lo, hi := sweepSpan(i)
	for pi := lo; pi < hi; pi++ {
		if err := s.point(pi, tr); err != nil {
			return 0, err
		}
	}
	if hi == sweepPoints {
		var results []*harness.Result
		for pi := sweepKernelPoints; pi < sweepPoints; pi++ {
			results = append(results, s.points[pi].res)
		}
		if err := tr.doErr("harness.report", func() error {
			return harness.BuildReport(results).WriteJSON(io.Discard)
		}); err != nil {
			return 0, err
		}
	}
	return float64(hi - lo), nil
}

// point measures one point, on the composite path (harness.RunKernel,
// harness.Run) or its public decomposition.
func (s *sweepState) point(pi int, tr *tracer) error {
	p := &s.points[pi]
	switch {
	case p.kernel && tr == nil:
		g, err := harness.RunKernel(harness.Figure6Kernel(p.level, p.words, p.accesses),
			sweepKernelMEs, sweepWarmup, sweepMeasure)
		if err != nil {
			return err
		}
		p.gbps = g
	case p.kernel:
		return tr.doErr("harness.run_kernel", func() error { return s.kernelTraced(p, tr) })
	case tr == nil:
		res, err := harness.Run(s.apps[p.app], harness.WithCompiled(s.images[p.app]),
			harness.WithMEs(p.mes), harness.WithSeed(s.seed),
			harness.WithWindows(sweepWarmup, sweepMeasure))
		if err != nil {
			return err
		}
		p.res, p.gbps, p.tx = res, res.Gbps, res.TxPackets
	default:
		return tr.doErr("harness.run_point", func() error { return s.appTraced(p, tr) })
	}
	return nil
}

// kernelTraced is harness.RunKernel call for call, with a span per layer.
func (s *sweepState) kernelTraced(p *sweepPoint, tr *tracer) error {
	prog := harness.Figure6Kernel(p.level, p.words, p.accesses)
	cfg := ixp.DefaultConfig()
	cfg.RingSlots = 256
	var m *ixp.Machine
	var err error
	before := allocBytes()
	tr.do("ixp.new", func() { m, err = ixp.New(cfg, ixp.WithMedia(&ixp.FixedDescMedia{})) })
	s.allocs += allocBytes() - before
	s.news++
	if err != nil {
		return err
	}
	tr.do("ixp.load_program", func() {
		m.GrowRing(cg.RingFree, 600)
		for id := 0; id < 512; id++ {
			m.Rings[cg.RingFree].Put(uint32(id), 64<<16|128)
		}
		for me := 0; me < sweepKernelMEs; me++ {
			m.LoadProgram(me, prog)
		}
	})
	st, err := runWindows(m, tr, "kernel")
	if err != nil {
		return err
	}
	p.gbps = st.Gbps(cfg.ClockMHz)
	s.totals.add(&st, cfg.ClockMHz)
	return nil
}

// appTraced is harness.Run(WithCompiled) call for call: trace, runtime,
// boot controls, warm-up, reset, measure, snapshot, result assembly.
func (s *sweepState) appTraced(p *sweepPoint, tr *tracer) error {
	a, res := s.apps[p.app], s.images[p.app]
	var trc []*packet.Packet
	tr.do("apps.trace", func() { trc = a.Trace(res.Prog.Types, s.seed+1, harness.DefaultRunConfig().TraceN) })
	var rt *rts.Runtime
	var err error
	tr.do("rts.new", func() {
		rt, err = rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: p.mes})
	})
	if err != nil {
		return err
	}
	if err := tr.doErr("rts.control", func() error {
		for _, c := range a.Controls {
			if err := rt.Control(c.Name, c.Args...); err != nil {
				return fmt.Errorf("%s control %s: %w", a.Name, c.Name, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	st, err := runWindows(rt.M, tr, a.Name)
	if err != nil {
		return err
	}
	engName, engShards := rt.M.EngineInfo()
	p.res = &harness.Result{
		App: a.Name, Level: res.Report.Level, NumMEs: p.mes, Seed: s.seed,
		Engine: engName, Shards: engShards,
		Gbps:          st.Gbps(rt.M.Cfg.ClockMHz),
		PktScratch:    st.PerPacket(cg.MemScratch, cg.ClassPacketRing),
		PktSRAM:       st.PerPacket(cg.MemSRAM, cg.ClassPacketMeta),
		PktDRAM:       st.PerPacket(cg.MemDRAM, cg.ClassPacketData),
		AppScratch:    st.PerPacket(cg.MemScratch, cg.ClassAppData),
		AppSRAM:       st.PerPacket(cg.MemSRAM, cg.ClassAppData),
		TxPackets:     st.TxPackets,
		CodeSizes:     res.Report.CodeSizes,
		Stages:        len(res.Image.MECode),
		CompilePasses: res.Report.Passes,
	}
	p.gbps, p.tx = p.res.Gbps, st.TxPackets
	s.totals.add(&st, rt.M.Cfg.ClockMHz)
	return nil
}

// runWindows is the warm-up / reset / measure / snapshot tail both point
// kinds share.
func runWindows(m *ixp.Machine, tr *tracer, name string) (ixp.Stats, error) {
	var st ixp.Stats
	err := tr.doErr("ixp.run."+name, func() error {
		if err := m.Run(sweepWarmup); err != nil {
			return err
		}
		m.ResetStats()
		return m.Run(sweepMeasure)
	})
	if err != nil {
		return st, err
	}
	tr.do("ixp.snapshot", func() { st = m.Snapshot() })
	return st, nil
}

func (s *sweepState) check(i int) error {
	lo, hi := sweepSpan(i)
	// Packets queued before the window opens can leave inside it, so a
	// saturated point may read a hair over the port rate; the heaviest
	// kernel points forward nothing in a window this short.
	slack := ixp.DefaultConfig().PortGbps * 0.01
	limit := ixp.DefaultConfig().PortGbps + slack
	for pi := lo; pi < hi; pi++ {
		p := &s.points[pi]
		if !(p.gbps >= 0 && p.gbps <= limit) || (!p.kernel && p.gbps == 0) {
			return fmt.Errorf("point %d: %.4f Gbps outside (0, %.2f]", pi, p.gbps, limit)
		}
		if i < sweepOpsPerRep {
			s.first[pi] = p.gbps
		} else if p.gbps != s.first[pi] {
			return fmt.Errorf("point %d: %.6f Gbps, first repetition gave %.6f", pi, p.gbps, s.first[pi])
		}
		// Within one Figure-6 series more accesses per packet can never
		// forward faster (beyond the same window-edge slack).
		if p.kernel && pi%len(harness.Fig6Counts) != 0 && p.gbps > s.points[pi-1].gbps+slack {
			return fmt.Errorf("point %d: series not monotone (%.4f after %.4f Gbps)",
				pi, p.gbps, s.points[pi-1].gbps)
		}
	}
	return nil
}

func (s *sweepState) finish() (uint64, error) {
	d := newDigest()
	for _, p := range s.points {
		d.f64(p.gbps)
		d.u64(p.tx)
	}
	return d.sum(), nil
}

func (s *sweepState) report(v *layerView) {
	s.totals.report(v.out)
	var sum float64
	for _, p := range s.points {
		sum += p.gbps
	}
	v.out["sim.fwd_gbps"] = sum / float64(len(s.points))
	if s.news > 0 {
		v.out["ixp.new_alloc_mb"] = s.allocs / float64(s.news) / (1 << 20)
	}
	imageSizes(v.out, s.images...)
}
