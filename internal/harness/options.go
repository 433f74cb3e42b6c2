package harness

import (
	"fmt"
	"io"
	"runtime"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/metrics"
	"shangrila/internal/packet"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// Option configures a Run or Sweep call. Options compose left to right;
// later options override earlier ones.
type Option func(*settings)

// settings is the resolved option set for one measurement.
type settings struct {
	run            RunConfig
	level          driver.Level
	telemetry      bool
	sampleInterval int64
	compiled       *driver.Result
	workload       *workload.Spec
	workers        int
	verify         driver.VerifyMode
	dumpPass       string
	dumpDir        string
	stalls         bool
	chromeTrace    io.Writer
	churn          *workload.ChurnSpec
	swcMaxCheck    uint32
}

func defaultSettings() settings {
	return settings{
		run:            DefaultRunConfig(),
		level:          driver.LevelSWC,
		sampleInterval: 10_000,
	}
}

func (s *settings) apply(opts []Option) {
	for _, o := range opts {
		o(s)
	}
}

// WithLevel selects the optimization level (default +SWC, the paper's
// full pipeline).
func WithLevel(lvl driver.Level) Option {
	return func(s *settings) { s.level = lvl }
}

// WithMEs sets the number of enabled packet-processing microengines.
func WithMEs(n int) Option {
	return func(s *settings) { s.run.NumMEs = n }
}

// WithSeed sets the seed for both the profile trace and the measurement
// trace (the measurement trace uses seed+1, as the paper separates
// training and evaluation traffic).
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.run.Seed = seed }
}

// WithTrace sets the number of distinct packets in the cycled
// measurement trace.
func WithTrace(n int) Option {
	return func(s *settings) { s.run.TraceN = n }
}

// WithWindows sets the warm-up and measured cycle windows.
func WithWindows(warmup, measure int64) Option {
	return func(s *settings) {
		s.run.Warmup = warmup
		s.run.Measure = measure
	}
}

// WithTelemetry enables simulator telemetry collection. interval is the
// sampling period in cycles (0 keeps the default of 10k cycles); the
// sampled series land in Result.Telemetry.Series alongside the aggregate
// utilization/saturation/occupancy summaries.
func WithTelemetry(interval int64) Option {
	return func(s *settings) {
		s.telemetry = true
		if interval > 0 {
			s.sampleInterval = interval
		}
	}
}

// WithCompiled supplies an already-compiled image, skipping compilation.
// The result's level is taken from the compile report; WithLevel is
// ignored.
func WithCompiled(res *driver.Result) Option {
	return func(s *settings) { s.compiled = res }
}

// WithWorkload drives the machine from a deterministic open-loop traffic
// stream instead of the legacy closed-loop line-rate trace playback: the
// spec's arrival process, size mix and Zipf flow locality shape arrivals,
// saturation losses are counted instead of retried, and the Result gains
// offered load, drop causes and the Rx→Tx latency histogram. A spec with
// Seed 0 inherits the measurement seed (WithSeed + 1, like the trace).
func WithWorkload(sp *workload.Spec) Option {
	return func(s *settings) { s.workload = sp }
}

// WithChurn sets the control-plane update stream for the churn
// experiment (nil keeps ChurnRun's default storm). A spec with Seed 0
// inherits the measurement seed; Items 0 churns every policy item the
// app declares.
func WithChurn(sp *workload.ChurnSpec) Option {
	return func(s *settings) { s.churn = sp }
}

// WithSWCMaxCheck clamps the software-cache update-check interval
// (Equation 2's limit) so MEs observe control-plane updates within at
// most n packets. 0 keeps the unclamped error-rate-derived interval.
func WithSWCMaxCheck(n uint32) Option {
	return func(s *settings) { s.swcMaxCheck = n }
}

// WithStallBreakdown attaches a cycle-level stall tracer to the measured
// machine: every simulated cycle of the measurement window is attributed
// to compute, per-level memory latency, per-level memory-controller
// queueing, ring backpressure, or idle. The conservative per-ME breakdown
// lands in Result.Stalls, in the bench report's stall_breakdown section,
// and as stall.share.* gauges in the machine's metrics registry.
func WithStallBreakdown() Option {
	return func(s *settings) { s.stalls = true }
}

// WithChromeTrace streams the measured run (warm-up included) to w as a
// Chrome trace_event JSON document viewable in chrome://tracing or
// Perfetto. Run-only: Sweep and LoadLatency measure many points
// concurrently and drop the writer rather than interleave documents.
func WithChromeTrace(w io.Writer) Option {
	return func(s *settings) { s.chromeTrace = w }
}

// WithWorkers bounds sweep parallelism (Run ignores it). 0 or negative
// means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *settings) { s.workers = n }
}

// WithVerifyIR sets the compiler's post-pass IR verification mode (default
// driver.VerifyAuto: on under `go test`, off otherwise).
func WithVerifyIR(m driver.VerifyMode) Option {
	return func(s *settings) { s.verify = m }
}

// WithDumpIR dumps the IR after the named compiler pass ("all" dumps every
// pass). With dir non-empty each dump is written to
// <dir>/<app>-<level>-<NN>-<pass>.ir; otherwise dumps go to stdout.
func WithDumpIR(pass, dir string) Option {
	return func(s *settings) {
		s.dumpPass = pass
		s.dumpDir = dir
	}
}

// measurementTrace generates the cycled measurement trace (seed+1: the
// paper separates training and evaluation traffic). A negative WithTrace
// length is an error here, for every runner that reads it.
func (s *settings) measurementTrace(a *apps.App, res *driver.Result) ([]*packet.Packet, error) {
	if s.run.TraceN < 0 {
		return nil, fmt.Errorf("harness: %s: trace length %d is negative", a.Name, s.run.TraceN)
	}
	return a.Trace(res.Prog.Types, s.run.Seed+1, s.run.TraceN), nil
}

func (s *settings) workerCount() int {
	if s.workers > 0 {
		return s.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Telemetry is the simulator-side measurement data attached to a Result
// when telemetry is enabled.
type Telemetry struct {
	// SampleInterval is the cycle period of the sampled series.
	SampleInterval int64 `json:"sample_interval"`
	// MEUtilization is each ME's busy fraction over the measured window.
	MEUtilization []float64 `json:"me_utilization"`
	// CtrlSaturation maps controller name (scratch/sram/dram) to busy
	// fraction of the measured window.
	CtrlSaturation map[string]float64 `json:"controller_saturation"`
	// RingMaxOcc is each scratch ring's max occupancy since warm-up.
	RingMaxOcc []int `json:"ring_max_occupancy"`
	// Series holds the sampled time-series (me{i}.util,
	// ctrl.{name}.sat, ctrl.{name}.queue, ring{i}.occ).
	Series map[string][]metrics.Sample `json:"series,omitempty"`
}

// Result is one measured data point of the evaluation engine.
type Result struct {
	App    string
	Level  driver.Level
	NumMEs int
	Seed   uint64
	// Engine and Shards are always "serial" and 0 (ixp.Machine.EngineInfo).
	// They stay because bench/ fills them and the report schema records
	// them.
	Engine string
	Shards int
	Gbps   float64
	// Table 1 columns: packet Scratch/SRAM/DRAM, app Scratch/SRAM.
	PktScratch, PktSRAM, PktDRAM float64
	AppScratch, AppSRAM          float64
	TxPackets                    uint64
	CodeSizes                    []int
	Stages                       int
	// CompilePasses are the per-stage compile timings (Figure 5 pipeline).
	CompilePasses []driver.PassTiming
	// Telemetry is non-nil when the point ran with WithTelemetry.
	Telemetry *Telemetry
	// Stalls is the conservative per-ME stall breakdown over the measured
	// window, non-nil when the point ran with WithStallBreakdown.
	Stalls *ixp.StallReport

	// Workload-mode accounting (WithWorkload): the load the stream
	// offered over the measured window, how many packets arrived versus
	// were lost to Rx-ring saturation, channel-ring backpressure events,
	// packets the application itself dropped, and the Rx→Tx latency
	// distribution (in cycles) of the transmitted packets.
	Workload      *workload.Spec
	OfferedGbps   float64
	RxPackets     uint64
	RxDropped     uint64
	ChanOverflows uint64
	AppDrops      uint64
	Latency       *metrics.HistogramSnapshot
}

// DropRate returns the fraction of offered packets lost to Rx-ring
// saturation (workload mode; 0 otherwise).
func (r *Result) DropRate() float64 {
	offered := r.RxPackets + r.RxDropped
	if offered == 0 {
		return 0
	}
	return float64(r.RxDropped) / float64(offered)
}

// Total returns the Table 1 "Total" column.
func (r *Result) Total() float64 {
	return r.PktScratch + r.PktSRAM + r.PktDRAM + r.AppScratch + r.AppSRAM
}

// Run compiles (unless WithCompiled) and measures one data point:
//
//	res, err := harness.Run(apps.L3Switch(),
//	    harness.WithLevel(driver.LevelPAC),
//	    harness.WithMEs(4),
//	    harness.WithSeed(7),
//	    harness.WithTelemetry(0))
func Run(a *apps.App, opts ...Option) (*Result, error) {
	s := defaultSettings()
	s.apply(opts)
	res := s.compiled
	if res == nil {
		var err error
		res, err = compile(a, s.level, s.run.Seed, &s)
		if err != nil {
			return nil, fmt.Errorf("%s at %v: %w", a.Name, s.level, err)
		}
	}
	return measure(a, res, &s)
}

// measure runs one compiled app on the machine model. Counters reset
// after warm-up so the steady state is measured.
func measure(a *apps.App, res *driver.Result, s *settings) (*Result, error) {
	trc, err := s.measurementTrace(a, res)
	if err != nil {
		return nil, err
	}
	var cfg ixp.Config
	if s.telemetry {
		cfg = ixp.DefaultConfig()
		cfg.SampleInterval = s.sampleInterval
	}
	var wl *workload.Spec
	if s.workload != nil {
		sp := *s.workload
		if sp.Seed == 0 {
			sp.Seed = s.run.Seed + 1
		}
		wl = &sp
	}
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
		NumMEs: s.run.NumMEs, Cfg: cfg, Workload: wl,
	})
	if err != nil {
		return nil, err
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			return nil, fmt.Errorf("%s control %s: %w", a.Name, c.Name, err)
		}
	}
	var chrome *ixp.ChromeTracer
	var tracers []ixp.Tracer
	if s.stalls {
		tracers = append(tracers, ixp.NewStallTracer(rt.M.Cfg.NumMEs, rt.M.Cfg.ThreadsPerME))
	}
	if s.chromeTrace != nil {
		chrome = ixp.NewChromeTracer(rt.M.Cfg.ClockMHz)
		tracers = append(tracers, chrome)
	}
	if len(tracers) > 0 {
		rt.M.Observer().SetTracer(ixp.MultiTracer(tracers...))
	}
	if err := rt.Run(s.run.Warmup); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", a.Name, err)
	}
	rt.M.ResetStats()
	if err := rt.Run(s.run.Measure); err != nil {
		return nil, fmt.Errorf("%s measure: %w", a.Name, err)
	}
	st := rt.M.Snapshot()
	engName, engShards := rt.M.EngineInfo()
	out := &Result{
		App:           a.Name,
		Level:         res.Report.Level,
		NumMEs:        s.run.NumMEs,
		Seed:          s.run.Seed,
		Engine:        engName,
		Shards:        engShards,
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
	if s.telemetry {
		out.Telemetry = collectTelemetry(rt.M, &st, s)
	}
	if s.stalls {
		out.Stalls = rt.M.Observer().StallReport()
		exportStallShares(rt.M.Observer().Metrics(), out.Stalls)
	}
	if chrome != nil {
		if err := chrome.WriteJSON(s.chromeTrace); err != nil {
			return nil, fmt.Errorf("%s trace: %w", a.Name, err)
		}
	}
	if wl != nil {
		out.Workload = wl
		out.OfferedGbps = st.OfferedGbps(rt.M.Cfg.ClockMHz)
		out.RxPackets = st.RxPackets
		out.RxDropped = st.RxDropped
		out.ChanOverflows = st.ChanOverflows()
		out.AppDrops = st.FreedPackets
		lat := rt.M.Observer().Latency()
		out.Latency = &lat
	}
	return out, nil
}

// collectTelemetry derives the summary metrics from the post-warmup
// snapshot and attaches the sampled series.
func collectTelemetry(m *ixp.Machine, st *ixp.Stats, s *settings) *Telemetry {
	tel := &Telemetry{
		SampleInterval: s.sampleInterval,
		CtrlSaturation: map[string]float64{
			"scratch": st.Saturation(cg.MemScratch),
			"sram":    st.Saturation(cg.MemSRAM),
			"dram":    st.Saturation(cg.MemDRAM),
		},
		RingMaxOcc: m.Observer().RingMaxOcc(),
	}
	for i := 0; i < m.Cfg.NumMEs; i++ {
		tel.MEUtilization = append(tel.MEUtilization, st.Utilization(i))
	}
	tel.Series = m.Observer().Metrics().Snapshot().Series
	return tel
}

// exportStallShares publishes the breakdown's active-ME category shares as
// gauges so the stall summary rides along any metrics export.
func exportStallShares(reg *metrics.Registry, rep *ixp.StallReport) {
	if rep == nil {
		return
	}
	tot := rep.ActiveTotals()
	for _, cat := range []string{
		"compute", "ring", "idle", "mem_latency", "mem_queue",
		"mem_queue.scratch", "mem_queue.sram", "mem_queue.dram",
	} {
		reg.Gauge(metrics.StallShareKey(cat)).Set(tot.StallShare(cat))
	}
}
