package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
)

// ExpContext is the shared environment the CLI hands every experiment:
// where to print, whether -quick asked for shorter runs, the checked
// flags, the run configuration and the report builder every experiment's
// machine-readable output lands in.
type ExpContext struct {
	Out   io.Writer
	Quick bool
	Flags *Flags
	// Cfg is the standard run configuration every experiment starts from
	// (seed, level, windows, telemetry, workers, stall breakdowns, IR
	// debugging, workload and churn specs...). Experiments change their
	// copy.
	Cfg RunConfig
	// Report collects every experiment's machine-readable results on
	// the single canonical path (schema v6).
	Report *ReportBuilder
}

// figCfg is ctx.Cfg with the suite's shorter fig6, churn and cluster
// windows: 60k warm-up and 400k measured cycles (30k and 150k if Quick).
func (ctx *ExpContext) figCfg() RunConfig {
	cfg := ctx.Cfg
	cfg.Warmup, cfg.Measure = 60_000, 400_000
	if ctx.Quick {
		cfg.Warmup, cfg.Measure = 30_000, 150_000
	}
	return cfg
}

// Experiment is one entry of the evaluation suite: its -experiment name,
// the one-line synopsis the usage text shows, and its runners.
type Experiment struct {
	Name     string
	Synopsis string
	// Run executes the experiment across its own app selection.
	Run func(ctx *ExpContext) error
	// RunApp, when non-nil, runs the experiment against one explicit
	// app — the single-app CLI (ixpsim) dispatches through it.
	RunApp func(ctx *ExpContext, a *apps.App) error
}

// Experiments returns the evaluation suite in run order: the paper's
// Figure 6, Table 1 and Figures 13–15, then the load–latency, churn,
// cluster and fuzz experiments. Every experiment's machine-readable
// output flows through the one ReportBuilder in the context.
func Experiments() []Experiment {
	return []Experiment{
		{
			Name:     "fig6",
			Synopsis: "memory micro-benchmark (Figure 6 budget rules)",
			Run: func(ctx *ExpContext) error {
				cfg := ctx.figCfg()
				pts, err := Figure6(cfg.Warmup, cfg.Measure)
				if err != nil {
					return err
				}
				fmt.Fprintln(ctx.Out, FormatFigure6(pts))
				return nil
			},
		},
		{
			Name:     "table1",
			Synopsis: "per-packet dynamic memory accesses across levels (Table 1)",
			Run: func(ctx *ExpContext) error {
				rows, err := Table1(ctx.Cfg)
				if err != nil {
					return err
				}
				fmt.Fprintln(ctx.Out, "Table 1 — dynamic memory accesses per packet")
				fmt.Fprintln(ctx.Out, FormatTable1(rows))
				ctx.Report.AddResults(rows)
				return nil
			},
		},
		figure("fig13", "Figure 13: L3-Switch", apps.L3Switch),
		figure("fig14", "Figure 14: Firewall", apps.Firewall),
		figure("fig15", "Figure 15: MPLS", apps.MPLS),
		{
			Name:     "loadlatency",
			Synopsis: "goodput/latency vs offered load, BASE vs -O (Figure 9 shape)",
			Run: func(ctx *ExpContext) error {
				// BASE is the contrast curve; -O picks the optimized one.
				levels := []driver.Level{driver.LevelBase}
				if lvl := ctx.Cfg.Level; lvl != driver.LevelBase {
					levels = append(levels, lvl)
				}
				var loads []float64 // LoadLatency's default sweep
				if ctx.Quick {
					loads = []float64{0.5, 1.5, 3}
				}
				cfg := ctx.Cfg
				cfg.Workload = ctx.Flags.TrafficShape()
				curves, err := LoadLatency(apps.All(), levels, loads, cfg)
				if err != nil {
					return err
				}
				fmt.Fprintln(ctx.Out, "Load–latency curves (offered load sweep, Figure 9 shape)")
				fmt.Fprintln(ctx.Out, FormatLoadLatency(curves))
				ctx.Report.AddLoadCurves(curves)
				return nil
			},
		},
		{
			Name:     "churn",
			Synopsis: "goodput/latency timelines under control-plane update storms",
			Run: func(ctx *ExpContext) error {
				results, err := ChurnExperiment(apps.All(), ctx.figCfg())
				if err != nil {
					return err
				}
				fmt.Fprintln(ctx.Out, "Control-plane churn — goodput/latency under update storms")
				fmt.Fprintln(ctx.Out, FormatChurn(results))
				ctx.Report.AddChurn(results)
				return nil
			},
			RunApp: func(ctx *ExpContext, a *apps.App) error {
				res, err := ChurnRun(a, ctx.Cfg)
				if err != nil {
					return err
				}
				fmt.Fprint(ctx.Out, FormatChurn([]*ChurnResult{res}))
				ctx.Report.AddChurn([]*ChurnResult{res})
				return nil
			},
		},
		{
			Name:     "cluster",
			Synopsis: "multi-NPU line card: goodput scaling, flow-hash imbalance, drain",
			Run: func(ctx *ExpContext) error {
				a, err := apps.ByName(ctx.Flags.ClusterApp)
				if err != nil {
					return err
				}
				return runClusterSeries(ctx, a, ctx.figCfg())
			},
			RunApp: func(ctx *ExpContext, a *apps.App) error {
				return runClusterSeries(ctx, a, ctx.Cfg)
			},
		},
		{
			Name:     "fuzz",
			Synopsis: "compiler fuzzing: random Baker programs, host-vs-compiled differential",
			Run: func(ctx *ExpContext) error {
				res := RunFuzz(ctx.Flags.fuzzConfig(ctx.Quick))
				fmt.Fprintln(ctx.Out, res)
				ctx.Report.AddFuzz(res)
				if !res.OK() {
					return fmt.Errorf("%d of %d programs diverged (replay with -fuzz-seed %d)",
						res.Divergent, res.Programs, res.Seed)
				}
				return nil
			},
			RunApp: func(ctx *ExpContext, a *apps.App) error {
				// Against one explicit app the experiment is the differential
				// oracle itself: every level vs the host reference.
				seed := ctx.Flags.fuzzSeed()
				rep := DifferentialWith(DiffConfig{Seed: seed, TraceN: ctx.Flags.FuzzTrace}, a)
				fmt.Fprintf(ctx.Out, "differential (seed %d): %s\n", seed, rep)
				if !rep.OK() {
					return fmt.Errorf("fuzz: %s diverged (seed %d)", a.Name, seed)
				}
				return nil
			},
		},
	}
}

// SelectExperiments resolves an -experiment value: "all" (or empty)
// selects every experiment; otherwise a comma-separated list of names.
// Unknown names are an error listing the valid set — the CLI turns that
// into a nonzero exit instead of silently running nothing. The selection
// runs in suite order regardless of how the list was spelled.
func SelectExperiments(spec string) ([]Experiment, error) {
	all := Experiments()
	if spec == "" || spec == "all" {
		return all, nil
	}
	valid := "all"
	for _, e := range all {
		valid += "|" + e.Name
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			return all, nil
		}
		if !slices.ContainsFunc(all, func(e Experiment) bool { return e.Name == name }) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, valid)
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty experiment selection (valid: %s)", valid)
	}
	var out []Experiment
	for _, e := range all {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// figure is one forwarding-rate figure sweep (rate vs enabled MEs per
// optimization level for one app).
func figure(name, title string, app func() *apps.App) Experiment {
	return Experiment{
		Name:     name,
		Synopsis: title + " forwarding rate vs enabled MEs per level",
		Run: func(ctx *ExpContext) error {
			series, results, err := FigureResults(app(), ctx.Cfg, 6)
			if err != nil {
				return err
			}
			fmt.Fprintln(ctx.Out, FormatFigure(title, series))
			ctx.Report.AddResults(results)
			return nil
		},
	}
}

// runClusterSeries runs the goodput-scaling series (and drain scenario)
// for one app under cfg and records it in the report.
func runClusterSeries(ctx *ExpContext, a *apps.App, cfg RunConfig) error {
	f := ctx.Flags
	p := ClusterParams{
		Chips:         f.Chips,
		PerChipGbps:   f.ClusterLoad,
		Flows:         f.ClusterFlows,
		ZipfS:         f.ClusterZipf,
		Arrival:       f.Arrival,
		Sizes:         f.Sizes,
		FabricLatency: f.ClusterFabricLatency,
		Epoch:         f.ClusterEpoch,
		DrainFrac:     f.ClusterDrainFrac,
		DrainChip:     NoDrain,
	}
	if f.ClusterDrain {
		p.DrainChip = f.Chips - 1 // drain the last chip mid-run
	}
	results, err := ClusterScaling(a, p, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(ctx.Out, "Multi-NPU cluster — goodput scaling and drain redistribution")
	fmt.Fprintln(ctx.Out, FormatCluster(results))
	ctx.Report.AddCluster(results)
	return nil
}
