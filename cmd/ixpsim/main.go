// Command ixpsim compiles a benchmark application and runs it on the
// IXP2400 model, reporting the forwarding rate and per-packet memory
// access profile. With -gbps the open-loop workload engine drives the
// machine (arrival process, size mix, flow locality) and the output
// gains offered load, drop causes and Rx→Tx latency quantiles.
//
// With -experiment the run dispatches through the experiment registry
// against the one named app instead of a plain measurement: -experiment
// churn applies a seeded control-plane update storm mid-run
// (-churn-rate/-churn-burst/-churn-arrival) and prints the bucketed
// goodput/latency/flush timeline; -experiment cluster replicates the app
// across a multi-NPU line card (-chips, -cluster-*) behind the flow-hash
// load balancer and prints the goodput-scaling and drain series;
// -experiment fuzz runs the app through the differential oracle — every
// optimization level checked packet-for-packet against the host
// reference interpreter. Unknown names are rejected with the valid set
// and a nonzero exit.
//
// Every plain measurement echoes the resolved -seed so a run (or a
// divergence) can be replayed exactly.
//
// With -stalls every simulated cycle of the measured window is attributed
// to compute, memory latency, memory-controller queueing, ring
// backpressure or idle, per ME; with -trace the whole run is exported as
// Chrome trace_event JSON for chrome://tracing or Perfetto.
//
// Usage:
//
//	ixpsim [-O level] [-mes n] [-cycles n] [-seed n]
//	       [-experiment name] [experiment flags]
//	       [-gbps g] [-arrival fixed|poisson|onoff] [-sizes 64|imix|trimodal]
//	       [-flows n] [-zipf s]
//	       [-stalls] [-trace out.json]
//	       [-cpuprofile cpu.pb] [-memprofile mem.pb]
//	       [-dump-ir pass|all] [-dump-ir-dir dir] [-verify-ir]
//	       l3switch|mpls|firewall
//
// -cpuprofile/-memprofile profile the simulator process itself (for
// `go tool pprof`), as opposed to -stalls/-trace which attribute
// simulated cycles.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/harness"
)

// appExperiments returns the registry entries that can run against one
// explicit app (the only kind ixpsim dispatches), with their names.
func appExperiments(reg *harness.ExperimentRegistry) (names []string, byName map[string]*harness.Experiment) {
	byName = map[string]*harness.Experiment{}
	for _, name := range reg.Names() {
		if e, ok := reg.Lookup(name); ok && e.RunApp != nil {
			names = append(names, name)
			byName[name] = e
		}
	}
	return names, byName
}

func main() {
	registry := harness.Experiments()
	expNames, expByName := appExperiments(registry)
	common := harness.RegisterCommonFlags(flag.CommandLine)
	mes := flag.Int("mes", 6, "enabled packet-processing MEs (1..6)")
	cycles := flag.Int64("cycles", 1_000_000, "measured simulation cycles (600 MHz core)")
	warm := flag.Int64("warmup", 150_000, "warm-up cycles before counters reset")
	stalls := flag.Bool("stalls", false, "print the per-ME stall breakdown of the measured window")
	exp := flag.String("experiment", "",
		"run a registered experiment against the app: "+strings.Join(expNames, "|")+" (empty = plain measurement)")
	tracePath := flag.String("trace", "", "write the run as Chrome trace_event JSON to this file")
	prof := harness.RegisterProfileFlags(flag.CommandLine)
	expFlags := registry.BindFlags(flag.CommandLine)
	flag.Parse()
	if err := registry.CheckFlags(expFlags); err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(1)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ixpsim [flags] l3switch|mpls|firewall")
		os.Exit(2)
	}
	var app *apps.App
	for _, a := range apps.All() {
		if a.Name == flag.Arg(0) {
			app = a
		}
	}
	if app == nil {
		fmt.Fprintf(os.Stderr, "ixpsim: unknown app %q\n", flag.Arg(0))
		os.Exit(2)
	}
	lvl, err := common.DriverLevel()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(2)
	}
	opts, err := common.Options()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(2)
	}
	opts = append(opts,
		harness.WithLevel(lvl),
		harness.WithMEs(*mes),
		harness.WithWindows(*warm, *cycles),
		harness.WithTrace(384),
		harness.WithTelemetry(0),
	)
	if *stalls {
		opts = append(opts, harness.WithStallBreakdown())
	}
	if *exp != "" {
		e, ok := expByName[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "ixpsim: unknown experiment %q (valid: %s)\n",
				*exp, strings.Join(expNames, "|"))
			os.Exit(2)
		}
		cfg := harness.DefaultRunConfig()
		cfg.Seed = common.Seed
		cfg.NumMEs = *mes
		cfg.Warmup, cfg.Measure = *warm, *cycles
		ctx := &harness.ExpContext{
			Out:     os.Stdout,
			Common:  common,
			Opts:    opts,
			Cfg:     cfg,
			FigWarm: *warm,
			FigMeas: *cycles,
			Loads:   harness.DefaultLoads(),
			Report:  harness.NewReportBuilder(),
		}
		ctx.Report.RecordExperiment(e.Name)
		if err := e.RunApp(ctx, app, expFlags[e.Name]); err != nil {
			fmt.Fprintf(os.Stderr, "ixpsim: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		opts = append(opts, harness.WithChromeTrace(f))
	}
	r, err := harness.Run(app, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(1)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ixpsim: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (Chrome trace_event JSON; open in chrome://tracing)\n", *tracePath)
	}
	fmt.Printf("%s at %v on %d ME(s), seed %d: %.2f Gbps (%d packets in %.2f ms simulated)\n",
		app.Name, lvl, *mes, common.Seed, r.Gbps, r.TxPackets, float64(*cycles)/600e3)
	fmt.Printf("pipeline: %d stage(s), code %v instructions\n", r.Stages, r.CodeSizes)
	if r.Workload != nil {
		fmt.Printf("\noffered %.2f Gbps (%s arrivals, %s sizes): goodput %.2f Gbps, drop %.2f%%\n",
			r.OfferedGbps, r.Workload.Arrival, r.Workload.Sizes,
			r.Gbps, 100*r.DropRate())
		fmt.Printf("  drops: rx-ring %d, app %d; channel-ring backpressure events %d\n",
			r.RxDropped, r.AppDrops, r.ChanOverflows)
		if lat := r.Latency; lat != nil && lat.Count > 0 {
			fmt.Printf("  latency (Rx→Tx cycles): p50 %d  p90 %d  p99 %d  max %d (%d samples)\n",
				lat.P50, lat.P90, lat.P99, lat.Max, lat.Count)
		}
	}
	fmt.Println("\nper-packet dynamic memory accesses (Table 1 columns):")
	fmt.Printf("  packet: scratch %.1f  sram %.1f  dram %.1f\n", r.PktScratch, r.PktSRAM, r.PktDRAM)
	fmt.Printf("  app:    scratch %.1f  sram %.1f\n", r.AppScratch, r.AppSRAM)
	fmt.Printf("  total:  %.1f\n", r.Total())
	if tel := r.Telemetry; tel != nil {
		fmt.Println("\ntelemetry (measured window):")
		fmt.Print("  ME utilization: ")
		for i, u := range tel.MEUtilization {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.0f%%", u*100)
		}
		fmt.Printf("\n  controller saturation: scratch %.0f%%  sram %.0f%%  dram %.0f%%\n",
			tel.CtrlSaturation["scratch"]*100, tel.CtrlSaturation["sram"]*100,
			tel.CtrlSaturation["dram"]*100)
		fmt.Printf("  ring max occupancy: %v\n", tel.RingMaxOcc)
	}
	if r.Stalls != nil {
		fmt.Println()
		fmt.Print(r.Stalls)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "ixpsim: %v\n", err)
		os.Exit(1)
	}
}
