package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/ixp"
	"shangrila/internal/metrics"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// The churn experiment: dynamic policy updates end-to-end. A seeded
// control-plane update storm (route add/withdraw, rule flips, label
// rewrites) is applied through the XScale control path while the data
// plane forwards an open-loop workload; goodput and latency are reported
// as a timeline of equal cycle buckets so update bursts are visible, and
// the same policy deltas drive an incremental-compilation session to
// compare full-vs-incremental compile latency.

// churnBuckets is the timeline resolution of one churn run.
const churnBuckets = 8

// churnColdSamples / churnIncSamples size the compile-latency
// comparison: cold full compiles vs single-delta incremental recompiles.
const (
	churnColdSamples = 3
	churnIncSamples  = 8
)

// ChurnBucket is one timeline segment of a churn run. Counters reset at
// every bucket boundary, so rates and latency quantiles are local to the
// segment.
type ChurnBucket struct {
	StartCycle  int64   `json:"start_cycle"`
	EndCycle    int64   `json:"end_cycle"`
	GoodputGbps float64 `json:"goodput_gbps"`
	TxPackets   uint64  `json:"tx_packets"`
	// UpdatesApplied counts control-plane updates that fired in this
	// segment; CAMClears counts the software-cache flushes they induced
	// across all MEs (the delayed-update protocol's visible cost).
	UpdatesApplied int                       `json:"updates_applied"`
	CAMClears      uint64                    `json:"cam_clears"`
	Latency        metrics.HistogramSnapshot `json:"latency_cycles"`
}

// ChurnCompileLatency compares the control plane's recompile cost with
// and without the incremental session: wall-clock percentiles (zeroed in
// canonical reports) plus the deterministic executed/skipped pass counts
// behind them. "Cold" is what a caller without a session pays per policy
// change — driver.CompileIR on a freshly lowered program — not a Session's
// first Compile, which also fingerprints and snapshots every pass boundary
// to fill its cache.
type ChurnCompileLatency struct {
	ColdSamples  int   `json:"cold_samples"`
	IncSamples   int   `json:"inc_samples"`
	ColdP50Nanos int64 `json:"cold_p50_nanos"`
	ColdP99Nanos int64 `json:"cold_p99_nanos"`
	IncP50Nanos  int64 `json:"inc_p50_nanos"`
	IncP99Nanos  int64 `json:"inc_p99_nanos"`
	// ColdPasses is the pipeline length; IncExecuted/IncSkipped split it
	// for the median incremental recompile.
	ColdPasses  int `json:"cold_passes"`
	IncExecuted int `json:"inc_executed"`
	IncSkipped  int `json:"inc_skipped"`
}

// ChurnResult is one app × level churn run.
type ChurnResult struct {
	App    string `json:"app"`
	Level  string `json:"level"`
	NumMEs int    `json:"num_mes"`
	Seed   uint64 `json:"seed"`
	Engine string `json:"engine"`
	Shards int    `json:"shards,omitempty"`

	Churn    workload.ChurnSpec `json:"churn"`
	Workload workload.Spec      `json:"workload"`
	Updates  rts.ChurnStats     `json:"updates"`

	Buckets []ChurnBucket        `json:"buckets"`
	Compile *ChurnCompileLatency `json:"compile_latency,omitempty"`
}

// defaultChurnSpec is the standard update storm: ~30 updates across the
// default measurement window (900k cycles at 600 MHz ≈ 1.5 ms), arriving
// in bursts of two.
func defaultChurnSpec() workload.ChurnSpec {
	return workload.ChurnSpec{UpdatesPerSec: 20_000, Burst: 2}
}

// defaultChurnWorkload offers moderate fixed-rate 64B traffic, below
// saturation so latency shifts from update churn stay visible.
func defaultChurnWorkload() workload.Spec {
	return workload.Spec{OfferedGbps: 1.5}
}

// churnEvents expands the spec into scheduled control calls covering
// [start, start+span) cycles against the app's churn policy.
func churnEvents(a *apps.App, sp workload.ChurnSpec, clockMHz float64, start, span int64) ([]rts.Update, error) {
	if a.Churn == nil || len(a.Churn.Targets) == 0 {
		return nil, fmt.Errorf("harness: app %s declares no churn policy", a.Name)
	}
	cs, err := workload.NewChurnStream(sp)
	if err != nil {
		return nil, err
	}
	var ups []rts.Update
	at := start
	for {
		ev := cs.Next()
		at += int64(ev.GapSeconds * clockMHz * 1e6)
		if at >= start+span {
			return ups, nil
		}
		ups = append(ups, rts.Update{
			At:      at,
			Control: a.Churn.State(ev.Item, ev.Version, ev.Withdraw),
		})
	}
}

// nanoPercentile returns the p-th percentile of the sorted samples.
func nanoPercentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// measureCompileLatency times cold full compiles (driver.CompileIR, no
// session) against single-delta incremental recompiles through a warm
// driver.Session, feeding the session the same churn policy states the
// runtime applies.
func measureCompileLatency(a *apps.App, sp workload.ChurnSpec, s *settings) (*ChurnCompileLatency, error) {
	lowered := func() (*ir.Program, driver.Config, error) {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			return nil, driver.Config{}, err
		}
		cfg := driverConfig(a, s.level, a.Trace(prog.Types, s.run.Seed, profileTraceN), s)
		cfg.DumpPass, cfg.DumpDir = "", "" // latency sampling never dumps
		return prog, cfg, nil
	}
	cl := &ChurnCompileLatency{}
	var cold []int64
	for i := 0; i < churnColdSamples; i++ {
		prog, cfg, err := lowered()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := driver.CompileIR(prog, cfg)
		if err != nil {
			return nil, err
		}
		cold = append(cold, time.Since(t0).Nanoseconds())
		cl.ColdPasses = len(res.Report.Passes)
	}
	prog, cfg, err := lowered()
	if err != nil {
		return nil, err
	}
	sess, err := driver.NewSession(prog, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sess.Compile(); err != nil {
		return nil, err
	}
	cs, err := workload.NewChurnStream(sp)
	if err != nil {
		return nil, err
	}
	var inc []int64
	for i := 0; i < churnIncSamples; i++ {
		ev := cs.Next()
		ctl := a.Churn.State(ev.Item, ev.Version, ev.Withdraw)
		t0 := time.Now()
		res, err := sess.Recompile(driver.Delta{AddControls: []profiler.Control{ctl}})
		if err != nil {
			return nil, err
		}
		inc = append(inc, time.Since(t0).Nanoseconds())
		exec, skip := 0, 0
		for _, pt := range res.Report.Passes {
			if pt.Skipped {
				skip++
			} else {
				exec++
			}
		}
		cl.IncExecuted, cl.IncSkipped = exec, skip
	}
	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(inc, func(i, j int) bool { return inc[i] < inc[j] })
	cl.ColdSamples, cl.IncSamples = len(cold), len(inc)
	cl.ColdP50Nanos = nanoPercentile(cold, 50)
	cl.ColdP99Nanos = nanoPercentile(cold, 99)
	cl.IncP50Nanos = nanoPercentile(inc, 50)
	cl.IncP99Nanos = nanoPercentile(inc, 99)
	return cl, nil
}

// ChurnRun measures one app under a control-plane update storm. The
// churn stream comes from WithChurn (default: defaultChurnSpec), the
// data-plane workload from WithWorkload (default: 1.5 Gbps fixed 64B),
// and WithSWCMaxCheck bounds how stale any ME's cached view may get.
func ChurnRun(a *apps.App, opts ...Option) (*ChurnResult, error) {
	s := defaultSettings()
	s.apply(opts)

	csp := defaultChurnSpec()
	if s.churn != nil {
		csp = *s.churn
		if csp.UpdatesPerSec == 0 {
			csp.UpdatesPerSec = defaultChurnSpec().UpdatesPerSec
		}
	}
	if csp.Seed == 0 {
		csp.Seed = s.run.Seed + 2 // distinct from profile (seed) and traffic (seed+1)
	}
	if csp.Items == 0 && a.Churn != nil {
		csp.Items = len(a.Churn.Targets)
	}
	csp, err := csp.Normalize()
	if err != nil {
		return nil, err
	}

	wsp := defaultChurnWorkload()
	if s.workload != nil {
		wsp = *s.workload
	}
	if wsp.Seed == 0 {
		wsp.Seed = s.run.Seed + 1
	}
	wsp, err = wsp.Normalize()
	if err != nil {
		return nil, err
	}

	res := s.compiled
	if res == nil {
		res, err = compile(a, s.level, s.run.Seed, &s)
		if err != nil {
			return nil, fmt.Errorf("%s at %v: %w", a.Name, s.level, err)
		}
	}

	trc := a.Trace(res.Prog.Types, s.run.Seed+1, s.run.TraceN)
	var cfg ixp.Config
	if s.metricsReg != nil {
		cfg = ixp.DefaultConfig()
		cfg.Metrics = s.metricsReg
	}
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
		NumMEs: s.run.NumMEs, Cfg: cfg, Workload: &wsp,
	})
	if err != nil {
		return nil, err
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			return nil, fmt.Errorf("%s control %s: %w", a.Name, c.Name, err)
		}
	}
	if err := rt.Run(s.run.Warmup); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", a.Name, err)
	}

	ups, err := churnEvents(a, csp, rt.M.Cfg.ClockMHz, rt.M.Now(), s.run.Measure)
	if err != nil {
		return nil, err
	}
	st := rt.ScheduleUpdates(ups)

	engName, engShards := rt.M.EngineInfo()
	out := &ChurnResult{
		App:      a.Name,
		Level:    res.Report.Level.String(),
		NumMEs:   s.run.NumMEs,
		Seed:     s.run.Seed,
		Engine:   engName,
		Shards:   engShards,
		Churn:    csp,
		Workload: wsp,
	}

	bucket := s.run.Measure / churnBuckets
	applied := 0
	for i := 0; i < churnBuckets; i++ {
		rt.M.ResetStats()
		start := rt.M.Now()
		span := bucket
		if i == churnBuckets-1 {
			span = s.run.Measure - int64(i)*bucket // absorb rounding
		}
		if err := rt.Run(span); err != nil {
			return nil, fmt.Errorf("%s churn bucket %d: %w", a.Name, i, err)
		}
		snap := rt.M.Snapshot()
		var clears uint64
		for _, c := range snap.CAMClears {
			clears += c
		}
		out.Buckets = append(out.Buckets, ChurnBucket{
			StartCycle:     start,
			EndCycle:       rt.M.Now(),
			GoodputGbps:    snap.Gbps(rt.M.Cfg.ClockMHz),
			TxPackets:      snap.TxPackets,
			UpdatesApplied: st.Applied - applied,
			CAMClears:      clears,
			Latency:        rt.M.Observer().Latency(),
		})
		applied = st.Applied
	}
	out.Updates = *st

	cl, err := measureCompileLatency(a, csp, &s)
	if err != nil {
		return nil, err
	}
	out.Compile = cl
	return out, nil
}

// ChurnExperiment runs the churn experiment for every app that declares
// a churn policy, at the configured level (default +SWC).
func ChurnExperiment(appList []*apps.App, opts ...Option) ([]*ChurnResult, error) {
	var out []*ChurnResult
	for _, a := range appList {
		if a.Churn == nil {
			continue
		}
		r, err := ChurnRun(a, opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatChurn renders churn timelines and compile-latency comparisons as
// aligned text tables.
func FormatChurn(results []*ChurnResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s %s (%d MEs, seed %d, %.0f upd/s burst %d, %.2fG offered)\n",
			r.App, r.Level, r.NumMEs, r.Seed,
			r.Churn.UpdatesPerSec, r.Churn.Burst, r.Workload.OfferedGbps)
		fmt.Fprintf(&b, "  %12s %8s %7s %7s %10s %10s\n",
			"cycles", "goodput", "updates", "flushes", "p50(cyc)", "p99(cyc)")
		for _, bk := range r.Buckets {
			fmt.Fprintf(&b, "  %5d-%-6d %7.2fG %7d %7d %10d %10d\n",
				bk.StartCycle, bk.EndCycle, bk.GoodputGbps,
				bk.UpdatesApplied, bk.CAMClears, bk.Latency.P50, bk.Latency.P99)
		}
		fmt.Fprintf(&b, "  updates: %d scheduled, %d applied, %d failed\n",
			r.Updates.Scheduled, r.Updates.Applied, r.Updates.Failed)
		if c := r.Compile; c != nil {
			fmt.Fprintf(&b, "  compile: cold CompileIR p50 %v p99 %v (%d passes) | warm Session recompile p50 %v p99 %v (%d run / %d skipped)\n",
				time.Duration(c.ColdP50Nanos), time.Duration(c.ColdP99Nanos), c.ColdPasses,
				time.Duration(c.IncP50Nanos), time.Duration(c.IncP99Nanos), c.IncExecuted, c.IncSkipped)
		}
	}
	return b.String()
}
