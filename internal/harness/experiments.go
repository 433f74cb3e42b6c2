package harness

import (
	"flag"
	"fmt"
	"math"
	"time"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
)

// The built-in evaluation suite, self-registered into the default
// experiment registry. Each entry owns its synopsis, private flags and
// runner; the CLIs generate usage text and dispatch from the registry,
// and every experiment's machine-readable output flows through the one
// ReportBuilder in the context.

func init() {
	RegisterExperiment(&Experiment{
		Name:     "fig6",
		Synopsis: "memory micro-benchmark (Figure 6 budget rules)",
		Run: func(ctx *ExpContext, _ any) error {
			pts, err := Figure6(ctx.FigWarm, ctx.FigMeas)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, FormatFigure6(pts))
			return nil
		},
	})

	RegisterExperiment(&Experiment{
		Name:     "table1",
		Synopsis: "per-packet dynamic memory accesses across levels (Table 1)",
		Run: func(ctx *ExpContext, _ any) error {
			rows, err := Table1(ctx.Cfg, ctx.Opts...)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, "Table 1 — dynamic memory accesses per packet")
			fmt.Fprintln(ctx.Out, FormatTable1(rows))
			ctx.Report.AddResults(rows)
			return nil
		},
	})

	registerFigure("fig13", "Figure 13: L3-Switch", apps.L3Switch)
	registerFigure("fig14", "Figure 14: Firewall", apps.Firewall)
	registerFigure("fig15", "Figure 15: MPLS", apps.MPLS)

	RegisterExperiment(&Experiment{
		Name:     "loadlatency",
		Synopsis: "goodput/latency vs offered load, BASE vs -O (Figure 9 shape)",
		Run: func(ctx *ExpContext, _ any) error {
			lvl, err := ctx.Common.DriverLevel()
			if err != nil {
				return err
			}
			shape, err := ctx.Common.TrafficShape()
			if err != nil {
				return err
			}
			// BASE is the contrast curve; -O picks the optimized one.
			levels := []driver.Level{driver.LevelBase}
			if lvl != driver.LevelBase {
				levels = append(levels, lvl)
			}
			curves, err := LoadLatency(apps.All(), levels, ctx.Loads,
				ctx.Options(WithWindows(ctx.Cfg.Warmup, ctx.Cfg.Measure), WithWorkload(shape))...)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, "Load–latency curves (offered load sweep, Figure 9 shape)")
			fmt.Fprintln(ctx.Out, FormatLoadLatency(curves))
			ctx.Report.AddLoadCurves(curves)
			return nil
		},
	})

	RegisterExperiment(&Experiment{
		Name:     "churn",
		Synopsis: "goodput/latency timelines under control-plane update storms",
		Run: func(ctx *ExpContext, _ any) error {
			lvl, err := ctx.Common.DriverLevel()
			if err != nil {
				return err
			}
			results, err := ChurnExperiment(apps.All(),
				ctx.Options(WithLevel(lvl), WithWindows(ctx.FigWarm, ctx.FigMeas))...)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, "Control-plane churn — goodput/latency under update storms")
			fmt.Fprintln(ctx.Out, FormatChurn(results))
			ctx.Report.AddChurn(results)
			return nil
		},
		RunApp: func(ctx *ExpContext, a *apps.App, _ any) error {
			lvl, err := ctx.Common.DriverLevel()
			if err != nil {
				return err
			}
			res, err := ChurnRun(a,
				ctx.Options(WithLevel(lvl), WithWindows(ctx.Cfg.Warmup, ctx.Cfg.Measure))...)
			if err != nil {
				return err
			}
			fmt.Fprint(ctx.Out, FormatChurn([]*ChurnResult{res}))
			ctx.Report.AddChurn([]*ChurnResult{res})
			return nil
		},
	})

	RegisterExperiment(&Experiment{
		Name:     "cluster",
		Synopsis: "multi-NPU line card: goodput scaling, flow-hash imbalance, drain",
		Flags:    clusterFlagDefs,
		Run: func(ctx *ExpContext, flags any) error {
			cf := flags.(*clusterFlags)
			a, err := findApp(cf.App)
			if err != nil {
				return err
			}
			return runClusterSeries(ctx, a, cf)
		},
		RunApp: func(ctx *ExpContext, a *apps.App, flags any) error {
			return runClusterSeries(ctx, a, flags.(*clusterFlags))
		},
	})

	RegisterExperiment(&Experiment{
		Name:     "fuzz",
		Synopsis: "compiler fuzzing: random Baker programs, host-vs-compiled differential",
		Flags:    fuzzFlagDefs,
		Run: func(ctx *ExpContext, flags any) error {
			ff := flags.(*fuzzFlags)
			res := RunFuzz(ff.config(ctx))
			fmt.Fprintln(ctx.Out, res)
			ctx.Report.AddFuzz(res)
			if !res.OK() {
				return fmt.Errorf("%d of %d programs diverged (replay with -fuzz-seed %d)",
					res.Divergent, res.Programs, res.Seed)
			}
			return nil
		},
		RunApp: func(ctx *ExpContext, a *apps.App, flags any) error {
			// Against one explicit app the experiment is the differential
			// oracle itself: every level vs the host reference.
			ff := flags.(*fuzzFlags)
			seed := ff.Seed
			if seed == 0 {
				seed = ctx.Common.Seed
			}
			rep := DifferentialWith(DiffConfig{Seed: seed, TraceN: ff.TraceN}, a)
			fmt.Fprintf(ctx.Out, "differential (seed %d): %s\n", seed, rep)
			if !rep.OK() {
				return fmt.Errorf("fuzz: %s diverged (seed %d)", a.Name, seed)
			}
			return nil
		},
	})
}

// fuzzFlags is the fuzz experiment's private flag surface.
type fuzzFlags struct {
	N        int
	Seed     uint64
	TraceN   int
	Budget   time.Duration
	Minimize bool
}

func fuzzFlagDefs(fs *flag.FlagSet) any {
	ff := &fuzzFlags{}
	fs.IntVar(&ff.N, "fuzz-n", 50, "fuzz experiment: generated programs per campaign")
	fs.Uint64Var(&ff.Seed, "fuzz-seed", 0, "fuzz experiment: first generator seed (0 = use -seed)")
	fs.IntVar(&ff.TraceN, "fuzz-trace", 12, "fuzz experiment: packets injected per program")
	fs.DurationVar(&ff.Budget, "fuzz-budget", 0, "fuzz experiment: wall-clock budget (0 = none)")
	fs.BoolVar(&ff.Minimize, "fuzz-minimize", true, "fuzz experiment: delta-debug divergent programs")
	return ff
}

func (ff *fuzzFlags) check() error {
	switch {
	case ff.N < 1:
		return fmt.Errorf("-fuzz-n %d: want at least one program", ff.N)
	case ff.TraceN < 1:
		return fmt.Errorf("-fuzz-trace %d: want at least one packet", ff.TraceN)
	case ff.Budget < 0:
		return fmt.Errorf("-fuzz-budget %v: want 0 (none) or more", ff.Budget)
	}
	return nil
}

// config resolves the flag surface against the shared context: an unset
// -fuzz-seed inherits the common -seed so every campaign is replayable
// from the values echoed in the output.
func (ff *fuzzFlags) config(ctx *ExpContext) FuzzConfig {
	seed := ff.Seed
	if seed == 0 {
		seed = ctx.Common.Seed
	}
	n := ff.N
	if ctx.Quick && n > 10 {
		n = 10
	}
	return FuzzConfig{
		N:        n,
		Seed:     seed,
		TraceN:   ff.TraceN,
		Budget:   ff.Budget,
		Minimize: ff.Minimize,
	}
}

// registerFigure registers one forwarding-rate figure sweep (rate vs
// enabled MEs per optimization level for one app).
func registerFigure(name, title string, app func() *apps.App) {
	RegisterExperiment(&Experiment{
		Name:     name,
		Synopsis: title + " forwarding rate vs enabled MEs per level",
		Run: func(ctx *ExpContext, _ any) error {
			series, results, err := FigureResults(app(), ctx.Cfg, 6, ctx.Opts...)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, FormatFigure(title, series))
			ctx.Report.AddResults(results)
			return nil
		},
	})
}

// clusterFlags is the cluster experiment's private flag surface.
type clusterFlags struct {
	Chips     int
	App       string
	Flows     int
	Zipf      float64
	Load      float64
	Drain     bool
	DrainFrac float64
	Epoch     int64
	Latency   int64
}

func clusterFlagDefs(fs *flag.FlagSet) any {
	cf := &clusterFlags{}
	fs.IntVar(&cf.Chips, "chips", 4, "cluster experiment: NPUs on the simulated line card")
	fs.StringVar(&cf.App, "cluster-app", "l3switch", "cluster experiment: application to replicate per chip")
	fs.IntVar(&cf.Flows, "cluster-flows", 1_000_000, "cluster experiment: concurrent flow population")
	fs.Float64Var(&cf.Zipf, "cluster-zipf", 1.1, "cluster experiment: Zipf flow-popularity exponent")
	fs.Float64Var(&cf.Load, "cluster-load", 2.5, "cluster experiment: offered Gbps per chip")
	fs.BoolVar(&cf.Drain, "cluster-drain", true, "cluster experiment: include the chip-drain scenario")
	fs.Float64Var(&cf.DrainFrac, "cluster-drain-frac", 0.5, "cluster experiment: drain point as a fraction of the measure window")
	fs.Int64Var(&cf.Epoch, "cluster-epoch", 0, "cluster experiment: scheduler epoch in cycles (0 = default)")
	fs.Int64Var(&cf.Latency, "cluster-fabric-latency", 0, "cluster experiment: fabric first-delivery offset in cycles")
	return cf
}

func (cf *clusterFlags) check() error {
	switch {
	case cf.Chips < 1:
		return fmt.Errorf("-chips %d: want at least one chip", cf.Chips)
	case cf.Flows < 0:
		return fmt.Errorf("-cluster-flows %d: want a flow population of 0 (the default) or more", cf.Flows)
	case !(cf.DrainFrac > 0 && cf.DrainFrac < 1): // NaN fails both
		return fmt.Errorf("-cluster-drain-frac %v: want a fraction strictly between 0 and 1", cf.DrainFrac)
	// ClusterParams reads a load or exponent of 0 as "the default", so the
	// flags refuse 0 too; NaN fails every comparison.
	case !(cf.Load > 0) || math.IsInf(cf.Load, 1):
		return fmt.Errorf("-cluster-load %v: want a finite load above 0 Gbps per chip", cf.Load)
	case !(cf.Zipf > 0) || math.IsInf(cf.Zipf, 1):
		return fmt.Errorf("-cluster-zipf %v: want a finite exponent above 0", cf.Zipf)
	case cf.Epoch < 0:
		return fmt.Errorf("-cluster-epoch %d: want 0 (the default) or more cycles", cf.Epoch)
	case cf.Latency < 0:
		return fmt.Errorf("-cluster-fabric-latency %d: want 0 or more cycles", cf.Latency)
	}
	if _, err := findApp(cf.App); err != nil {
		return fmt.Errorf("-cluster-app %s: %w", cf.App, err)
	}
	return nil
}

// runClusterSeries runs the goodput-scaling series (and drain scenario)
// for one app and records it in the report.
func runClusterSeries(ctx *ExpContext, a *apps.App, cf *clusterFlags) error {
	p := ClusterParams{
		Chips:         cf.Chips,
		PerChipGbps:   cf.Load,
		Flows:         cf.Flows,
		ZipfS:         cf.Zipf,
		Arrival:       ctx.Common.Arrival,
		Sizes:         ctx.Common.Sizes,
		FabricLatency: cf.Latency,
		Epoch:         cf.Epoch,
		DrainFrac:     cf.DrainFrac,
		DrainChip:     NoDrain,
	}
	if cf.Drain {
		p.DrainChip = cf.Chips - 1 // drain the last chip mid-run
	}
	lvl, err := ctx.Common.DriverLevel()
	if err != nil {
		return err
	}
	results, err := ClusterScaling(a, p,
		ctx.Options(WithLevel(lvl), WithWindows(ctx.FigWarm, ctx.FigMeas))...)
	if err != nil {
		return err
	}
	fmt.Fprintln(ctx.Out, "Multi-NPU cluster — goodput scaling and drain redistribution")
	fmt.Fprintln(ctx.Out, FormatCluster(results))
	ctx.Report.AddCluster(results)
	return nil
}

// findApp resolves a benchmark application by name.
func findApp(name string) (*apps.App, error) {
	var names []string
	for _, a := range apps.All() {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return nil, fmt.Errorf("unknown app %q (valid: %v)", name, names)
}
