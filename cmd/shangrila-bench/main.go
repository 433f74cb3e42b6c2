// Command shangrila-bench regenerates the paper's evaluation through the
// experiment registry: every experiment (Figure 6's memory
// micro-benchmark, Table 1's per-packet access counts, the Figures 13-15
// forwarding-rate sweeps, load–latency curves, control-plane churn
// timelines, the multi-NPU cluster scaling/drain scenarios, and the
// compiler-fuzzing campaign of seeded random Baker programs checked
// against the host reference interpreter) self-registers with its name,
// synopsis and private flags, and the CLI generates its usage text and
// -experiment value set from the registry — run `shangrila-bench -h` for
// the authoritative list. Unknown experiment names are rejected with the
// valid set and a nonzero exit.
//
// Every run prints the resolved traffic/generator seed so any result —
// including a fuzz divergence — can be replayed exactly with -seed (or
// -fuzz-seed for a campaign's generator range).
//
// Each simulated machine runs on one goroutine, so extra cores pay off
// across machines: sweep points fan out across worker goroutines. Every
// measurement — forwarding rates, per-packet accesses, telemetry,
// compile pass timings, latency histograms, cluster topologies, fuzz
// campaign statistics — lands in one machine-readable JSON report
// (schema shangrila-bench/v6).
//
// With -stalls every sweep point carries a conservative per-ME stall
// breakdown (stall_breakdown in the report); -trace additionally runs one
// representative point (the first app at -O) and writes it as Chrome
// trace_event JSON — sweep points themselves run concurrently and are
// never traced.
//
// -cpuprofile/-memprofile profile the benchmark process itself (for
// `go tool pprof`), covering compilation and every sweep worker — the
// host-side cost, as opposed to the simulated-cycle attribution of
// -stalls/-trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"shangrila/internal/apps"
	"shangrila/internal/harness"
)

func main() {
	registry := harness.Experiments()
	common := harness.RegisterCommonFlags(flag.CommandLine)
	exp := flag.String("experiment", "all",
		"experiments to run, comma-separated: "+registry.UsageSpec())
	quick := flag.Bool("quick", false, "shorter measurement windows (noisier)")
	report := flag.String("report", "bench_report.json", "machine-readable report path (empty disables)")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	stalls := flag.Bool("stalls", false, "attach per-ME stall breakdowns to every sweep point")
	tracePath := flag.String("trace", "", "write one representative traced run as Chrome trace_event JSON")
	prof := harness.RegisterProfileFlags(flag.CommandLine)
	expFlags := registry.BindFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: shangrila-bench [-experiment %s] [flags]\n\nexperiments:\n%s\nflags:\n",
			registry.UsageSpec(), registry.Synopses())
		flag.PrintDefaults()
	}
	flag.Parse()

	selected, err := registry.Select(*exp)
	if err == nil {
		err = registry.CheckFlags(expFlags)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shangrila-bench: %v\n", err)
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "shangrila-bench: %v\n", err)
		os.Exit(1)
	}

	cfg := harness.DefaultRunConfig()
	cfg.Seed = common.Seed
	figWarm, figMeas := int64(60_000), int64(400_000)
	loads := harness.DefaultLoads()
	if *quick {
		cfg.Warmup, cfg.Measure = 60_000, 250_000
		figWarm, figMeas = 30_000, 150_000
		loads = []float64{0.5, 1.5, 3}
	}
	opts, err := common.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shangrila-bench: %v\n", err)
		os.Exit(2)
	}
	opts = append(opts,
		harness.WithTelemetry(0),
		harness.WithWorkers(*workers),
	)
	if *stalls {
		opts = append(opts, harness.WithStallBreakdown())
	}

	ctx := &harness.ExpContext{
		Out:     os.Stdout,
		Quick:   *quick,
		Common:  common,
		Opts:    opts,
		Cfg:     cfg,
		FigWarm: figWarm,
		FigMeas: figMeas,
		Loads:   loads,
		Report:  harness.NewReportBuilder(),
	}
	fmt.Printf("seed %d (replay with -seed %d)\n", common.Seed, common.Seed)
	// An experiment failure (e.g. a diverging fuzz campaign) must not lose
	// the report: whatever sections were built — including the failing
	// campaign's minimized reproducers — are still written before exiting
	// nonzero, so CI can archive the evidence.
	var expErr error
	for _, e := range selected {
		ctx.Report.RecordExperiment(e.Name)
		if err := e.Run(ctx, expFlags[e.Name]); err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: %s: %v\n", e.Name, err)
			expErr = err
			break
		}
	}

	if *tracePath != "" && expErr == nil {
		// Sweep points run concurrently and never stream Chrome traces
		// (one JSON document per writer), so trace one representative
		// point — the first app at the requested -O level — with a
		// dedicated Run.
		lvl, err := common.DriverLevel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: trace: %v\n", err)
			os.Exit(2)
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: trace: %v\n", err)
			os.Exit(1)
		}
		app := apps.All()[0]
		tOpts := append(append([]harness.Option{}, opts...),
			harness.WithLevel(lvl),
			harness.WithWindows(cfg.Warmup, cfg.Measure),
			harness.WithStallBreakdown(),
			harness.WithChromeTrace(f))
		if _, err := harness.Run(app, tOpts...); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "shangrila-bench: trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (Chrome trace_event JSON, %s at %v)\n", *tracePath, app.Name, lvl)
	}

	if *report != "" && !ctx.Report.Empty() {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: report: %v\n", err)
			os.Exit(1)
		}
		rep := ctx.Report.Report()
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "shangrila-bench: report: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "shangrila-bench: report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (seed %d; %d sweep points, %d load curves, %d churn timelines, %d cluster runs, %d fuzz campaigns)\n",
			*report, common.Seed, len(rep.Points), len(rep.LoadLatency), len(rep.Churn), len(rep.Cluster), len(rep.Fuzz))
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "shangrila-bench: %v\n", err)
		os.Exit(1)
	}
	if expErr != nil {
		os.Exit(1)
	}
}
