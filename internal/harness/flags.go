package harness

import (
	"flag"
	"fmt"

	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

// CommonFlags is the flag surface shared by cmd/ixpsim and
// cmd/shangrila-bench: optimization level, traffic seed, IR debugging and
// the workload traffic shape. Per-command flags (cycle windows, report
// paths, worker counts) stay with their commands.
type CommonFlags struct {
	Level    int
	Seed     uint64
	DumpIR   string
	DumpDir  string
	VerifyIR bool

	// Traffic shape. Gbps 0 keeps the legacy closed-loop line-rate
	// trace playback; a positive value switches to the open-loop
	// workload engine at that offered load.
	Arrival string
	Sizes   string
	Gbps    float64
	Flows   int
	Zipf    float64

	// Control-plane churn shape (the churn experiment). ChurnRate 0
	// keeps the experiment's default update storm; SWCCheckLimit 0
	// keeps the unclamped Equation-2 check interval.
	ChurnRate     float64
	ChurnBurst    int
	ChurnArrival  string
	SWCCheckLimit uint
}

// RegisterCommonFlags registers the shared flags on fs and returns the
// struct the parsed values land in.
func RegisterCommonFlags(fs *flag.FlagSet) *CommonFlags {
	f := &CommonFlags{}
	fs.IntVar(&f.Level, "O", 6, "optimization level 0..6 (BASE..+SWC)")
	fs.Uint64Var(&f.Seed, "seed", 1234, "traffic generator seed (runs echo the resolved seed; replay with the same value)")
	fs.StringVar(&f.DumpIR, "dump-ir", "", `dump IR after the named compiler pass (or "all")`)
	fs.StringVar(&f.DumpDir, "dump-ir-dir", "", "write IR dumps to this directory instead of stdout")
	fs.BoolVar(&f.VerifyIR, "verify-ir", false, "run the IR verifier after every compiler pass")
	fs.StringVar(&f.Arrival, "arrival", workload.ArrivalFixed, "workload arrival process: fixed|poisson|onoff")
	fs.StringVar(&f.Sizes, "sizes", workload.SizesMin, "workload size mix: 64|imix|trimodal")
	fs.Float64Var(&f.Gbps, "gbps", 0, "offered load in Gbps (0 = legacy line-rate trace playback)")
	fs.IntVar(&f.Flows, "flows", 256, "workload flow population size")
	fs.Float64Var(&f.Zipf, "zipf", 0, "Zipf flow-popularity exponent (0 = uniform)")
	fs.Float64Var(&f.ChurnRate, "churn-rate", 0, "control-plane updates per second (0 = churn experiment default)")
	fs.IntVar(&f.ChurnBurst, "churn-burst", 0, "back-to-back updates per churn arrival (0 = default)")
	fs.StringVar(&f.ChurnArrival, "churn-arrival", "", "churn arrival process: fixed|poisson (default fixed)")
	fs.UintVar(&f.SWCCheckLimit, "swc-check-limit", 0, "max packets between software-cache update checks (0 = unclamped)")
	return f
}

// ChurnSpec returns the churn stream the -churn-* flags describe, or nil
// when none is set (the churn experiment then uses its default storm).
func (f *CommonFlags) ChurnSpec() (*workload.ChurnSpec, error) {
	if f.ChurnRate == 0 && f.ChurnBurst == 0 && f.ChurnArrival == "" {
		return nil, nil
	}
	sp := &workload.ChurnSpec{
		UpdatesPerSec: f.ChurnRate,
		Burst:         f.ChurnBurst,
		Arrival:       f.ChurnArrival,
	}
	probe := *sp
	if probe.UpdatesPerSec == 0 {
		probe.UpdatesPerSec = 1
	}
	if _, err := probe.Normalize(); err != nil {
		return nil, err
	}
	return sp, nil
}

// DriverLevel returns the -O flag as a driver level, validated.
func (f *CommonFlags) DriverLevel() (driver.Level, error) {
	lvl := driver.Level(f.Level)
	for _, l := range driver.Levels() {
		if l == lvl {
			return lvl, nil
		}
	}
	return lvl, fmt.Errorf("unknown optimization level -O %d", f.Level)
}

// TrafficShape returns the workload spec the traffic flags describe, with
// OfferedGbps left unset for sweeps that drive it per point. The shape is
// validated against a probe load.
func (f *CommonFlags) TrafficShape() (*workload.Spec, error) {
	sp := &workload.Spec{
		Arrival: f.Arrival, Sizes: f.Sizes, Flows: f.Flows, ZipfS: f.Zipf,
	}
	probe := *sp
	probe.OfferedGbps = 1
	if _, err := probe.Normalize(); err != nil {
		return nil, err
	}
	return sp, nil
}

// WorkloadSpec returns the full workload spec when -gbps selects the
// open-loop engine, or nil for legacy trace playback. The spec's Seed is
// left 0 so it inherits the measurement seed.
func (f *CommonFlags) WorkloadSpec() (*workload.Spec, error) {
	if f.Gbps < 0 {
		return nil, fmt.Errorf("workload: offered load must be positive (got %v Gbps)", f.Gbps)
	}
	if f.Gbps == 0 {
		return nil, nil
	}
	sp, err := f.TrafficShape()
	if err != nil {
		return nil, err
	}
	sp.OfferedGbps = f.Gbps
	if _, err := sp.Normalize(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Options converts the shared flags into harness options (seed, IR
// debugging, and the workload engine when -gbps is set). The level is
// not included — commands that measure a single level pass
// WithLevel(f.DriverLevel()) themselves, while sweeps iterate levels.
func (f *CommonFlags) Options() ([]Option, error) {
	opts := []Option{WithSeed(f.Seed)}
	if f.DumpIR != "" || f.DumpDir != "" {
		pass := f.DumpIR
		if pass == "" {
			pass = "all"
		}
		opts = append(opts, WithDumpIR(pass, f.DumpDir))
	}
	if f.VerifyIR {
		opts = append(opts, WithVerifyIR(driver.VerifyOn))
	}
	sp, err := f.WorkloadSpec()
	if err != nil {
		return nil, err
	}
	if sp != nil {
		opts = append(opts, WithWorkload(sp))
	}
	csp, err := f.ChurnSpec()
	if err != nil {
		return nil, err
	}
	if csp != nil {
		opts = append(opts, WithChurn(csp))
	}
	if f.SWCCheckLimit != 0 {
		opts = append(opts, WithSWCMaxCheck(uint32(f.SWCCheckLimit)))
	}
	return opts, nil
}
