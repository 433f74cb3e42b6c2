package harness

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

// Flags is the flag surface shared by cmd/ixpsim and cmd/shangrila-bench:
// optimization level, traffic seed, IR debugging, the workload traffic
// shape, the fuzz and cluster experiments' settings and host profiling.
// Per-command flags (cycle windows, report paths, worker counts) stay with
// their commands. The commands call Check once after parsing; the methods
// that build specs and the run configuration assume it passed.
type Flags struct {
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

	// The fuzz experiment. FuzzSeed 0 inherits Seed.
	FuzzN        int
	FuzzSeed     uint64
	FuzzTrace    int
	FuzzBudget   time.Duration
	FuzzMinimize bool

	// The cluster experiment.
	Chips                int
	ClusterApp           string
	ClusterFlows         int
	ClusterZipf          float64
	ClusterLoad          float64
	ClusterDrain         bool
	ClusterDrainFrac     float64
	ClusterEpoch         int64
	ClusterFabricLatency int64

	// Host profiling of the command itself (see Start and Stop).
	CPUProfile string
	MemProfile string

	cpuFile *os.File
}

// RegisterFlags registers the shared flags on fs and returns the struct
// the parsed values land in.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
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

	fs.IntVar(&f.FuzzN, "fuzz-n", 50, "fuzz experiment: generated programs per campaign")
	fs.Uint64Var(&f.FuzzSeed, "fuzz-seed", 0, "fuzz experiment: first generator seed (0 = use -seed)")
	fs.IntVar(&f.FuzzTrace, "fuzz-trace", 12, "fuzz experiment: packets injected per program")
	fs.DurationVar(&f.FuzzBudget, "fuzz-budget", 0, "fuzz experiment: wall-clock budget (0 = none)")
	fs.BoolVar(&f.FuzzMinimize, "fuzz-minimize", true, "fuzz experiment: delta-debug divergent programs")

	fs.IntVar(&f.Chips, "chips", 4, "cluster experiment: NPUs on the simulated line card")
	fs.StringVar(&f.ClusterApp, "cluster-app", "l3switch", "cluster experiment: application to replicate per chip")
	fs.IntVar(&f.ClusterFlows, "cluster-flows", 1_000_000, "cluster experiment: concurrent flow population")
	fs.Float64Var(&f.ClusterZipf, "cluster-zipf", 1.1, "cluster experiment: Zipf flow-popularity exponent")
	fs.Float64Var(&f.ClusterLoad, "cluster-load", 2.5, "cluster experiment: offered Gbps per chip")
	fs.BoolVar(&f.ClusterDrain, "cluster-drain", true, "cluster experiment: include the chip-drain scenario")
	fs.Float64Var(&f.ClusterDrainFrac, "cluster-drain-frac", 0.5, "cluster experiment: drain point as a fraction of the measure window")
	fs.Int64Var(&f.ClusterEpoch, "cluster-epoch", 0, "cluster experiment: scheduler epoch in cycles (0 = default)")
	fs.Int64Var(&f.ClusterFabricLatency, "cluster-fabric-latency", 0, "cluster experiment: fabric first-delivery offset in cycles")

	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a host CPU profile for `go tool pprof` to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a host heap profile for `go tool pprof` to this file at exit")
	return f
}

// Check rejects every parsed value the commands cannot honour, naming the
// flag or the value — every experiment's flags, not only the selected
// ones', so a mistyped flag never goes unnoticed. The commands exit 2 on
// the error before anything runs, instead of letting a runner substitute
// a default.
func (f *Flags) Check() error {
	if !slices.Contains(driver.Levels(), driver.Level(f.Level)) {
		return fmt.Errorf("unknown optimization level -O %d", f.Level)
	}
	if f.DumpIR != "" || f.DumpDir != "" {
		if err := driver.CheckDumpPass(f.dumpPass()); err != nil {
			return err
		}
	}
	// The shape is checked at a probe load: sweeps drive the load per point.
	probe := *f.TrafficShape()
	probe.OfferedGbps = 1
	if _, err := probe.Normalize(); err != nil {
		return err
	}
	if f.Gbps < 0 {
		return fmt.Errorf("workload: offered load must be positive (got %v Gbps)", f.Gbps)
	}
	if sp := f.WorkloadSpec(); sp != nil {
		if _, err := sp.Normalize(); err != nil {
			return err
		}
	}
	if csp := f.ChurnSpec(); csp != nil {
		probe := *csp
		if probe.UpdatesPerSec == 0 {
			probe.UpdatesPerSec = 1
		}
		if _, err := probe.Normalize(); err != nil {
			return err
		}
	}
	if f.SWCCheckLimit > math.MaxUint32 {
		return fmt.Errorf("-swc-check-limit %d is above the maximum %d", f.SWCCheckLimit, uint32(math.MaxUint32))
	}

	switch {
	case f.FuzzN < 1:
		return fmt.Errorf("-fuzz-n %d: want at least one program", f.FuzzN)
	case f.FuzzTrace < 1:
		return fmt.Errorf("-fuzz-trace %d: want at least one packet", f.FuzzTrace)
	case f.FuzzBudget < 0:
		return fmt.Errorf("-fuzz-budget %v: want 0 (none) or more", f.FuzzBudget)

	case f.Chips < 1:
		return fmt.Errorf("-chips %d: want at least one chip", f.Chips)
	case f.ClusterFlows < 0:
		return fmt.Errorf("-cluster-flows %d: want a flow population of 0 (the default) or more", f.ClusterFlows)
	case !(f.ClusterDrainFrac > 0 && f.ClusterDrainFrac < 1): // NaN fails both
		return fmt.Errorf("-cluster-drain-frac %v: want a fraction strictly between 0 and 1", f.ClusterDrainFrac)
	// ClusterParams reads a load or exponent of 0 as "the default", so the
	// flags refuse 0 too; NaN fails every comparison.
	case !(f.ClusterLoad > 0) || math.IsInf(f.ClusterLoad, 1):
		return fmt.Errorf("-cluster-load %v: want a finite load above 0 Gbps per chip", f.ClusterLoad)
	case !(f.ClusterZipf > 0) || math.IsInf(f.ClusterZipf, 1):
		return fmt.Errorf("-cluster-zipf %v: want a finite exponent above 0", f.ClusterZipf)
	case f.ClusterEpoch < 0:
		return fmt.Errorf("-cluster-epoch %d: want 0 (the default) or more cycles", f.ClusterEpoch)
	case f.ClusterFabricLatency < 0:
		return fmt.Errorf("-cluster-fabric-latency %d: want 0 or more cycles", f.ClusterFabricLatency)
	}
	if _, err := apps.ByName(f.ClusterApp); err != nil {
		return fmt.Errorf("-cluster-app %s: %w", f.ClusterApp, err)
	}
	return nil
}

// dumpPass is the -dump-ir pass name; -dump-ir-dir alone dumps them all.
func (f *Flags) dumpPass() string {
	if f.DumpIR == "" {
		return "all"
	}
	return f.DumpIR
}

// ChurnSpec returns the churn stream the -churn-* flags describe, or nil
// when none is set (the churn experiment then uses its default storm).
func (f *Flags) ChurnSpec() *workload.ChurnSpec {
	if f.ChurnRate == 0 && f.ChurnBurst == 0 && f.ChurnArrival == "" {
		return nil
	}
	return &workload.ChurnSpec{
		UpdatesPerSec: f.ChurnRate,
		Burst:         f.ChurnBurst,
		Arrival:       f.ChurnArrival,
	}
}

// TrafficShape returns the workload spec the traffic flags describe, with
// OfferedGbps left unset for sweeps that drive it per point.
func (f *Flags) TrafficShape() *workload.Spec {
	return &workload.Spec{
		Arrival: f.Arrival, Sizes: f.Sizes, Flows: f.Flows, ZipfS: f.Zipf,
	}
}

// WorkloadSpec returns the full workload spec when -gbps selects the
// open-loop engine, or nil for legacy trace playback. The spec's Seed is
// left 0 so it inherits the measurement seed.
func (f *Flags) WorkloadSpec() *workload.Spec {
	if f.Gbps == 0 {
		return nil
	}
	sp := f.TrafficShape()
	sp.OfferedGbps = f.Gbps
	return sp
}

// RunConfig returns DefaultRunConfig with the shared flags applied: seed,
// level, IR debugging, the SWC check clamp, the churn stream and the
// workload engine when -gbps is set. Sweeps override the level per point.
func (f *Flags) RunConfig() RunConfig {
	cfg := DefaultRunConfig()
	cfg.Seed = f.Seed
	cfg.Level = driver.Level(f.Level)
	if f.DumpIR != "" || f.DumpDir != "" {
		cfg.DumpPass, cfg.DumpDir = f.dumpPass(), f.DumpDir
	}
	if f.VerifyIR {
		cfg.VerifyIR = driver.VerifyOn
	}
	cfg.Workload = f.WorkloadSpec()
	cfg.Churn = f.ChurnSpec()
	cfg.SWCMaxCheck = uint32(f.SWCCheckLimit)
	return cfg
}

// fuzzConfig resolves the fuzz flags: an unset -fuzz-seed inherits -seed
// so every campaign is replayable from the values echoed in the output,
// and -quick caps the campaign at ten programs.
func (f *Flags) fuzzConfig(quick bool) FuzzConfig {
	n := f.FuzzN
	if quick && n > 10 {
		n = 10
	}
	return FuzzConfig{
		N:        n,
		Seed:     f.fuzzSeed(),
		TraceN:   f.FuzzTrace,
		Budget:   f.FuzzBudget,
		Minimize: f.FuzzMinimize,
	}
}

func (f *Flags) fuzzSeed() uint64 {
	if f.FuzzSeed == 0 {
		return f.Seed
	}
	return f.FuzzSeed
}
