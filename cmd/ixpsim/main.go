// Command ixpsim compiles a benchmark application and runs it on the
// IXP2400 model, reporting the forwarding rate and per-packet memory
// access profile. With -gbps the open-loop workload engine drives the
// machine (arrival process, size mix, flow locality) and the output
// gains offered load, drop causes and Rx→Tx latency quantiles.
//
// With -experiment the run dispatches to an entry of the evaluation suite
// (harness.Experiments) that can run against the one named app, instead
// of a plain measurement: -experiment churn applies a seeded control-plane
// update storm mid-run (-churn-rate/-churn-burst/-churn-arrival) and
// prints the bucketed goodput/latency/flush timeline; -experiment cluster
// replicates the app across a multi-NPU line card (-chips, -cluster-*)
// behind the flow-hash load balancer and prints the goodput-scaling and
// drain series; -experiment fuzz runs the app through the differential
// oracle — every optimization level checked packet-for-packet against
// the host reference interpreter. Unknown names are rejected with the
// valid set and a nonzero exit, and so are -trace and -stalls, which only
// a plain measurement reads, -gbps with cluster or fuzz, which do not
// run the workload engine, and any other flag set with fuzz, whose
// differential reads only -seed, -fuzz-seed and -fuzz-trace (besides
// -cpuprofile and -memprofile, which profile any run).
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/harness"
	"shangrila/internal/ixp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments: it writes the measurement to
// stdout and returns the exit status, 2 for a bad flag or argument and 1
// for a run that fails.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ixpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	flags := harness.RegisterFlags(fs)
	var expNames []string
	appExps := map[string]harness.Experiment{}
	for _, e := range harness.Experiments() {
		if e.RunApp != nil {
			expNames = append(expNames, e.Name)
			appExps[e.Name] = e
		}
	}
	maxMEs := ixp.DefaultConfig().NumMEs
	mes := fs.Int("mes", 6, fmt.Sprintf("enabled packet-processing MEs (1..%d)", maxMEs))
	cycles := fs.Int64("cycles", 1_000_000, "measured simulation cycles (600 MHz core)")
	warm := fs.Int64("warmup", 150_000, "warm-up cycles before counters reset")
	stalls := fs.Bool("stalls", false, "print the per-ME stall breakdown of the measured window")
	exp := fs.String("experiment", "",
		"run a registered experiment against the app: "+strings.Join(expNames, "|")+" (empty = plain measurement)")
	tracePath := fs.String("trace", "", "write the run as Chrome trace_event JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	e, isExp := appExps[*exp]
	// The fuzz differential reads only these flags; any other set with it
	// would be ignored, so it is refused (-trace, -stalls and -gbps with
	// their own errors below).
	var fuzzIgnored string
	if *exp == "fuzz" {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "seed", "fuzz-seed", "fuzz-trace", "experiment", "cpuprofile", "memprofile":
			default:
				if fuzzIgnored == "" {
					fuzzIgnored = f.Name
				}
			}
		})
	}
	err := flags.Check()
	switch {
	case err != nil: // the shared flags' error stands
	case *mes < 1 || *mes > maxMEs:
		err = fmt.Errorf("-mes %d: want 1..%d enabled MEs (the machine has %d)", *mes, maxMEs, maxMEs)
	case *cycles < 0:
		err = fmt.Errorf("-cycles %d: want 0 or more measured cycles", *cycles)
	case *warm < 0:
		err = fmt.Errorf("-warmup %d: want 0 or more warm-up cycles", *warm)
	case *exp != "" && !isExp:
		err = fmt.Errorf("unknown experiment %q (valid: %s)", *exp, strings.Join(expNames, "|"))
	case isExp && *tracePath != "":
		err = fmt.Errorf("-trace %s: only a plain measurement writes a trace, not -experiment %s", *tracePath, *exp)
	case isExp && *stalls:
		err = fmt.Errorf("-stalls: only a plain measurement prints a stall breakdown, not -experiment %s", *exp)
	case (*exp == "cluster" || *exp == "fuzz") && flags.Gbps != 0:
		err = fmt.Errorf("-gbps %v: -experiment %s does not run the workload engine", flags.Gbps, *exp)
	case fuzzIgnored != "":
		err = fmt.Errorf("-%s: -experiment fuzz reads only -seed, -fuzz-seed and -fuzz-trace (and -cpuprofile, -memprofile)", fuzzIgnored)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ixpsim: %v\n", err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ixpsim [flags] l3switch|mpls|firewall")
		return 2
	}
	app, err := apps.ByName(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ixpsim: %v\n", err)
		return 2
	}

	if err := flags.Start(); err != nil {
		fmt.Fprintf(stderr, "ixpsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := flags.Stop(); err != nil {
			fmt.Fprintf(stderr, "ixpsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	cfg := flags.RunConfig()
	cfg.NumMEs = *mes
	cfg.Warmup, cfg.Measure = *warm, *cycles
	cfg.Telemetry, cfg.Stalls = true, *stalls
	if isExp {
		ctx := &harness.ExpContext{
			Out:    stdout,
			Flags:  flags,
			Cfg:    cfg,
			Report: harness.NewReportBuilder(),
		}
		ctx.Report.RecordExperiment(e.Name)
		if err := e.RunApp(ctx, app); err != nil {
			fmt.Fprintf(stderr, "ixpsim: %s: %v\n", e.Name, err)
			return 1
		}
		return 0
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "ixpsim: %v\n", err)
			return 1
		}
		defer f.Close() // for the error exits; the success path checks Close
		traceFile = f
		cfg.ChromeTrace = f
	}
	r, err := cfg.Run(app)
	if err != nil {
		fmt.Fprintf(stderr, "ixpsim: %v\n", err)
		return 1
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(stderr, "ixpsim: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (Chrome trace_event JSON; open in chrome://tracing)\n", *tracePath)
	}
	fmt.Fprintf(stdout, "%s at %v on %d ME(s), seed %d: %.2f Gbps (%d packets in %.2f ms simulated)\n",
		app.Name, cfg.Level, *mes, flags.Seed, r.Gbps, r.TxPackets, float64(*cycles)/600e3)
	fmt.Fprintf(stdout, "pipeline: %d stage(s), code %v instructions\n", r.Stages, r.CodeSizes)
	if r.Workload != nil {
		fmt.Fprintf(stdout, "\noffered %.2f Gbps (%s arrivals, %s sizes): goodput %.2f Gbps, drop %.2f%%\n",
			r.OfferedGbps, r.Workload.Arrival, r.Workload.Sizes,
			r.Gbps, 100*r.DropRate())
		fmt.Fprintf(stdout, "  drops: rx-ring %d, app %d; channel-ring backpressure events %d\n",
			r.RxDropped, r.AppDrops, r.ChanOverflows)
		if lat := r.Latency; lat != nil && lat.Count > 0 {
			fmt.Fprintf(stdout, "  latency (Rx→Tx cycles): p50 %d  p90 %d  p99 %d  max %d (%d samples)\n",
				lat.P50, lat.P90, lat.P99, lat.Max, lat.Count)
		}
	}
	fmt.Fprintln(stdout, "\nper-packet dynamic memory accesses (Table 1 columns):")
	fmt.Fprintf(stdout, "  packet: scratch %.1f  sram %.1f  dram %.1f\n", r.PktScratch, r.PktSRAM, r.PktDRAM)
	fmt.Fprintf(stdout, "  app:    scratch %.1f  sram %.1f\n", r.AppScratch, r.AppSRAM)
	fmt.Fprintf(stdout, "  total:  %.1f\n", r.Total())
	if tel := r.Telemetry; tel != nil {
		fmt.Fprintln(stdout, "\ntelemetry (measured window):")
		fmt.Fprint(stdout, "  ME utilization: ")
		for i, u := range tel.MEUtilization {
			if i > 0 {
				fmt.Fprint(stdout, " ")
			}
			fmt.Fprintf(stdout, "%.0f%%", u*100)
		}
		fmt.Fprintf(stdout, "\n  controller saturation: scratch %.0f%%  sram %.0f%%  dram %.0f%%\n",
			tel.CtrlSaturation["scratch"]*100, tel.CtrlSaturation["sram"]*100,
			tel.CtrlSaturation["dram"]*100)
		fmt.Fprintf(stdout, "  ring max occupancy: %v\n", tel.RingMaxOcc)
	}
	if r.Stalls != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, r.Stalls)
	}
	return 0
}
