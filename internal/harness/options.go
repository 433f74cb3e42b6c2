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

// RunConfig is the one description of a measured run, read by every
// runner: Run and its method form, Sweep, Table1, FigureResults,
// LoadLatency, ChurnRun, ChurnExperiment, ClusterRun and ClusterScaling.
// Start from DefaultRunConfig and set fields; sweeps override NumMEs,
// Seed and Level per point.
type RunConfig struct {
	NumMEs  int    // enabled packet-processing microengines
	Warmup  int64  // cycles before measurement starts (queues fill)
	Measure int64  // measured cycles
	Seed    uint64 // profile trace seed; the measurement trace uses Seed+1
	TraceN  int    // distinct packets in the cycled measurement trace

	// Level is the optimization level a runner compiles at (+SWC, the
	// paper's full pipeline, in DefaultRunConfig).
	Level driver.Level
	// Compiled, when non-nil, is an already compiled image: runners skip
	// compilation and take the level from its report, ignoring Level.
	// Sweep compiles per point and refuses it.
	Compiled *driver.Result

	// VerifyIR is the compiler's post-pass IR verification mode
	// (driver.VerifyAuto: on under `go test`, off otherwise).
	VerifyIR driver.VerifyMode
	// DumpPass, when non-empty, dumps the IR after the named compiler
	// pass ("all" dumps every pass): to <DumpDir>/<app>-<level>-<NN>-<pass>.ir
	// with DumpDir set, to stdout otherwise.
	DumpPass, DumpDir string
	// SWCMaxCheck clamps the software-cache update-check interval
	// (Equation 2's limit) so MEs observe control-plane updates within at
	// most that many packets. 0 keeps the error-rate-derived interval.
	SWCMaxCheck uint32

	// Workload, when non-nil, drives the machine from a deterministic
	// open-loop traffic stream instead of the closed-loop line-rate trace
	// playback: the spec's arrival process, size mix and Zipf flow
	// locality shape arrivals, saturation losses are counted instead of
	// retried, and the Result gains offered load, drop causes and the
	// Rx→Tx latency histogram. A spec with Seed 0 inherits Seed+1, like
	// the trace. LoadLatency reads it as the shape and drives the load.
	Workload *workload.Spec
	// Churn is the churn experiment's control-plane update stream (nil
	// keeps ChurnRun's default storm). A spec with Seed 0 inherits Seed+2;
	// Items 0 churns every policy item the app declares.
	Churn *workload.ChurnSpec

	// Telemetry collects the simulator's utilization, saturation and
	// occupancy summaries into Result.Telemetry, with series sampled every
	// telemetryInterval cycles.
	Telemetry bool
	// Stalls attaches a cycle-level stall tracer to the measured machine:
	// every simulated cycle of the measurement window is attributed to
	// compute, per-level memory latency, per-level memory-controller
	// queueing, ring backpressure, or idle. The conservative per-ME
	// breakdown lands in Result.Stalls and in the bench report's
	// stall_breakdown section.
	Stalls bool
	// ChromeTrace, when non-nil, receives the measured run (warm-up
	// included) as a Chrome trace_event JSON document viewable in
	// chrome://tracing or Perfetto. Run only: Sweep measures many points
	// concurrently and refuses a config that sets it.
	ChromeTrace io.Writer
	// Workers bounds sweep parallelism (0 or negative: GOMAXPROCS) and
	// how many cluster chips advance concurrently (0 or negative: one).
	// Run ignores it.
	Workers int
}

// telemetryInterval is the cycle period of the telemetry series.
const telemetryInterval = 10_000

// DefaultRunConfig returns the standard measurement: +SWC on six MEs over
// a window long enough for thousands of packets at line rate, short
// enough to sweep many configurations.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		NumMEs:  6,
		Warmup:  150_000,
		Measure: 900_000,
		Seed:    1234,
		TraceN:  384,
		Level:   driver.LevelSWC,
	}
}

// Option sets fields of the DefaultRunConfig that the package-level Run
// measures. Options compose left to right; later ones override earlier
// ones.
type Option func(*RunConfig)

// WithMEs sets RunConfig.NumMEs.
func WithMEs(n int) Option {
	return func(c *RunConfig) { c.NumMEs = n }
}

// WithSeed sets RunConfig.Seed.
func WithSeed(seed uint64) Option {
	return func(c *RunConfig) { c.Seed = seed }
}

// WithWindows sets the warm-up and measured cycle windows.
func WithWindows(warmup, measure int64) Option {
	return func(c *RunConfig) {
		c.Warmup = warmup
		c.Measure = measure
	}
}

// WithCompiled sets RunConfig.Compiled.
func WithCompiled(res *driver.Result) Option {
	return func(c *RunConfig) { c.Compiled = res }
}

// measurementTrace generates the cycled measurement trace (seed+1: the
// paper separates training and evaluation traffic). A negative TraceN
// is an error here, for every runner that reads it.
func (c RunConfig) measurementTrace(a *apps.App, res *driver.Result) ([]*packet.Packet, error) {
	if c.TraceN < 0 {
		return nil, fmt.Errorf("harness: %s: trace length %d is negative", a.Name, c.TraceN)
	}
	return a.Trace(res.Prog.Types, c.Seed+1, c.TraceN), nil
}

func (c RunConfig) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
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
	// Telemetry is non-nil when the point ran with RunConfig.Telemetry.
	Telemetry *Telemetry
	// Stalls is the conservative per-ME stall breakdown over the measured
	// window, non-nil when the point ran with RunConfig.Stalls.
	Stalls *ixp.StallReport

	// Workload-mode accounting (RunConfig.Workload): the load the stream
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

// Run measures one data point of DefaultRunConfig with opts applied:
//
//	res, err := harness.Run(apps.L3Switch(), harness.WithMEs(4), harness.WithSeed(7))
func Run(a *apps.App, opts ...Option) (*Result, error) {
	c := DefaultRunConfig()
	for _, o := range opts {
		o(&c)
	}
	return c.Run(a)
}

// Run compiles a (unless c.Compiled is set) and measures one data point:
//
//	cfg := harness.DefaultRunConfig()
//	cfg.Level, cfg.NumMEs, cfg.Telemetry = driver.LevelPAC, 4, true
//	res, err := cfg.Run(apps.L3Switch())
func (c RunConfig) Run(a *apps.App) (*Result, error) {
	res, err := c.image(a)
	if err != nil {
		return nil, err
	}
	return c.measure(a, res)
}

// measure runs one compiled app on the machine model. Counters reset
// after warm-up so the steady state is measured.
func (c RunConfig) measure(a *apps.App, res *driver.Result) (*Result, error) {
	trc, err := c.measurementTrace(a, res)
	if err != nil {
		return nil, err
	}
	var cfg ixp.Config
	if c.Telemetry {
		cfg = ixp.DefaultConfig()
		cfg.SampleInterval = telemetryInterval
	}
	var wl *workload.Spec
	if c.Workload != nil {
		sp := *c.Workload
		if sp.Seed == 0 {
			sp.Seed = c.Seed + 1
		}
		wl = &sp
	}
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
		NumMEs: c.NumMEs, Cfg: cfg, Workload: wl,
	})
	if err != nil {
		return nil, err
	}
	for _, ctl := range a.Controls {
		if err := rt.Control(ctl.Name, ctl.Args...); err != nil {
			return nil, fmt.Errorf("%s control %s: %w", a.Name, ctl.Name, err)
		}
	}
	var chrome *ixp.ChromeTracer
	var tracers []ixp.Tracer
	if c.Stalls {
		tracers = append(tracers, ixp.NewStallTracer(rt.M.Cfg.NumMEs, rt.M.Cfg.ThreadsPerME))
	}
	if c.ChromeTrace != nil {
		chrome = ixp.NewChromeTracer(rt.M.Cfg.ClockMHz)
		tracers = append(tracers, chrome)
	}
	if len(tracers) > 0 {
		rt.M.Observer().SetTracer(ixp.MultiTracer(tracers...))
	}
	if err := rt.Run(c.Warmup); err != nil {
		return nil, fmt.Errorf("%s warmup: %w", a.Name, err)
	}
	rt.M.ResetStats()
	if err := rt.Run(c.Measure); err != nil {
		return nil, fmt.Errorf("%s measure: %w", a.Name, err)
	}
	st := rt.M.Snapshot()
	engName, engShards := rt.M.EngineInfo()
	out := &Result{
		App:           a.Name,
		Level:         res.Report.Level,
		NumMEs:        c.NumMEs,
		Seed:          c.Seed,
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
	if c.Telemetry {
		out.Telemetry = collectTelemetry(rt.M, &st)
	}
	if c.Stalls {
		out.Stalls = rt.M.Observer().StallReport()
	}
	if chrome != nil {
		if err := chrome.WriteJSON(c.ChromeTrace); err != nil {
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
func collectTelemetry(m *ixp.Machine, st *ixp.Stats) *Telemetry {
	tel := &Telemetry{
		SampleInterval: telemetryInterval,
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
