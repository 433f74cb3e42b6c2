// Command bench is the repository's benchmark: six named workloads, four
// end-to-end metrics on a calibrated clock, and per-layer spans recorded
// from outside the program. See README.md in this directory.
//
//	go -C bench run . --workload steady_opt --seed 1 --seconds 10 --trace 0
//	go -C bench run . -repeat 5          # every workload, spreads, history
//	go -C bench run . -smoke             # ~1 s per workload, same checks
//	go -C bench run . -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print the result line (default: the whole set)")
		seed     = flag.Uint64("seed", 1, "input seed: trace seeds, the churn stream and the first fuzz seed")
		seconds  = flag.Int("seconds", 10, "budget: work is sized for this many seconds on the reference host")
		trace    = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		repeat   = flag.Int("repeat", 1, "whole-set mode: untraced runs per workload")
		seedStep = flag.Uint64("seedstep", 0, "whole-set mode: added to the seed on each repetition (0 repeats one input)")
		smoke    = flag.Bool("smoke", false, "whole-set mode with a one-second budget and no history entry")
		compare  = flag.Bool("compare", false, "compare two history files: -compare old.json new.json")
	)
	flag.Parse()

	// Every measured run is single-threaded: with a second P the
	// concurrent GC lands on the other vCPU and its contention is not
	// something the calibration kernel sees.
	runtime.GOMAXPROCS(1)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(2, "unknown workload %q", *name)
		}
		if *seconds < 1 {
			fatal(2, "-seconds must be at least 1")
		}
		var o *outcome
		var err error
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
			o, err = runTraced(w, *seed, *seconds)
		} else {
			o, err = runUntraced(w, *seed, *seconds)
		}
		if err != nil {
			fatal(1, "%s: %v", w.name, err)
		}
		printOutcome(w, o, defs)
	default:
		if *smoke {
			*seconds = 1
		}
		os.Exit(runSet(*seed, *seedStep, *seconds, *repeat, !*smoke))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// printOutcome prints every metric by name with its unit, the digest
// line whole-set mode reads, and the contract's result line last.
func printOutcome(w *workload, o *outcome, defs []metricDef) {
	for k, v := range o.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.Metrics[k] = 0
		}
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	byName := defsByName(defs)
	fmt.Printf("workload %s (work unit: %s)\n", w.name, w.unit)
	for _, n := range names {
		fmt.Printf("  %-44s %16.6g %s\n", n, o.Metrics[n], byName[n].Unit)
	}
	fmt.Printf("# digest=%016x samples=%d calib_mops_p50=%.3f\n", o.Digest, o.Samples, o.CalibP50)
	fmt.Println(resultLine(o, defs))
}
