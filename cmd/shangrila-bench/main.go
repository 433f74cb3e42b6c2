// Command shangrila-bench regenerates the paper's evaluation from the
// suite harness.Experiments lists: Figure 6's memory micro-benchmark,
// Table 1's per-packet access counts, the Figures 13-15 forwarding-rate
// sweeps, load–latency curves, control-plane churn timelines, the
// multi-NPU cluster scaling/drain scenarios, and the compiler-fuzzing
// campaign of seeded random Baker programs checked against the host
// reference interpreter. The usage text and the -experiment value set
// are generated from that list — run `shangrila-bench -h` for the
// authoritative one. Unknown experiment names and flag values the
// experiments cannot honour are rejected with a nonzero exit before
// anything runs.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"shangrila/internal/apps"
	"shangrila/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments: it writes the tables to stdout and
// the report to -report, and returns the exit status, 2 for a bad flag
// and 1 for an experiment or an output that fails.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("shangrila-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := harness.RegisterFlags(fs)
	suite := harness.Experiments()
	spec, w := "all", 0
	for _, e := range suite {
		spec += "|" + e.Name
		w = max(w, len(e.Name))
	}
	exp := fs.String("experiment", "all", "experiments to run, comma-separated: "+spec)
	quick := fs.Bool("quick", false, "shorter measurement windows (noisier)")
	report := fs.String("report", "bench_report.json", "machine-readable report path (empty disables)")
	workers := fs.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	stalls := fs.Bool("stalls", false, "attach per-ME stall breakdowns to every sweep point")
	tracePath := fs.String("trace", "", "write one representative traced run as Chrome trace_event JSON")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: shangrila-bench [-experiment %s] [flags]\n\nexperiments:\n", spec)
		for _, e := range suite {
			fmt.Fprintf(out, "  %-*s  %s\n", w, e.Name, e.Synopsis)
		}
		fmt.Fprint(out, "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	selected, err := harness.SelectExperiments(*exp)
	if err == nil {
		err = flags.Check()
	}
	if err != nil {
		fmt.Fprintf(stderr, "shangrila-bench: %v\n", err)
		return 2
	}

	if err := flags.Start(); err != nil {
		fmt.Fprintf(stderr, "shangrila-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := flags.Stop(); err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	cfg := flags.RunConfig()
	cfg.Telemetry, cfg.Stalls, cfg.Workers = true, *stalls, *workers
	if *quick {
		cfg.Warmup, cfg.Measure = 60_000, 250_000
	}

	ctx := &harness.ExpContext{
		Out:    stdout,
		Quick:  *quick,
		Flags:  flags,
		Cfg:    cfg,
		Report: harness.NewReportBuilder(),
	}
	fmt.Fprintf(stdout, "seed %d (replay with -seed %d)\n", flags.Seed, flags.Seed)
	// An experiment failure (e.g. a diverging fuzz campaign) must not lose
	// the report: whatever sections were built — including the failing
	// campaign's minimized reproducers — are still written before exiting
	// nonzero, so CI can archive the evidence.
	for _, e := range selected {
		ctx.Report.RecordExperiment(e.Name)
		if err := e.Run(ctx); err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: %s: %v\n", e.Name, err)
			code = 1
			break
		}
	}

	if *tracePath != "" && code == 0 {
		// Sweep points run concurrently and a sweep refuses a Chrome
		// trace (one JSON document per writer), so trace one
		// representative point — the first app at the requested -O
		// level — with a dedicated Run.
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: trace: %v\n", err)
			return 1
		}
		app := apps.All()[0]
		tcfg := cfg
		tcfg.Stalls, tcfg.ChromeTrace = true, f
		if _, err := tcfg.Run(app); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "shangrila-bench: trace: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (Chrome trace_event JSON, %s at %v)\n", *tracePath, app.Name, cfg.Level)
	}

	if *report != "" && !ctx.Report.Empty() {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: report: %v\n", err)
			return 1
		}
		rep := ctx.Report.Report()
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "shangrila-bench: report: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "shangrila-bench: report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (seed %d; %d sweep points, %d load curves, %d churn timelines, %d cluster runs, %d fuzz campaigns)\n",
			*report, flags.Seed, len(rep.Points), len(rep.LoadLatency), len(rep.Churn), len(rep.Cluster), len(rep.Fuzz))
	}
	return code
}
