package main

import (
	"fmt"
	"os"
	"sort"
)

// compareFiles prints one row per (end-to-end metric, workload) for the
// latest entries of two history files and returns the exit code:
// non-zero when a metric got worse by more than its bound.
//
// A row is "unresolved" when either side's own run-to-run spread is wider
// than the bound — the runs cannot tell a change of that size from noise
// — unless every new run is better than every old one.
func compareFiles(oldPath, newPath string) int {
	oldH, err := readHistory(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	newH, err := readHistory(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	o, n := oldH.Entries[len(oldH.Entries)-1], newH.Entries[len(newH.Entries)-1]
	fmt.Printf("old: %s on %s (%s, %d CPU, %s), %d runs, calibration %.1f Mops/s\n",
		o.Commit, o.Host.Name, o.Host.CPUModel, o.Host.NumCPU, o.Host.GoVersion, o.Repeat, o.CalibMops)
	fmt.Printf("new: %s on %s (%s, %d CPU, %s), %d runs, calibration %.1f Mops/s\n",
		n.Commit, n.Host.Name, n.Host.CPUModel, n.Host.NumCPU, n.Host.GoVersion, n.Repeat, n.CalibMops)
	fmt.Printf("%-14s %-13s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric",
		"old median", "old q1..q3", "new median", "new q1..q3", "delta", "bound", "verdict")

	regressions := 0
	for _, w := range workloads {
		ow, nw := o.Workloads[w.name], n.Workloads[w.name]
		if ow == nil || nw == nil {
			fmt.Printf("%-14s missing on one side\n", w.name)
			continue
		}
		for _, d := range endToEnd {
			os, ns := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			v := verdict(d, os, ns)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Printf("%-14s %-13s %12.5g %12.5g..%-11.5g %12.5g %12.5g..%-11.5g %+7.1f%% %5.0f%%  %s\n",
				w.name, d.Name, os.Median, os.Q1, os.Q3, ns.Median, ns.Q1, ns.Q3,
				delta(os.Median, ns.Median)*100, d.Bound*100, v)
		}
		if nw.Failed > ow.Failed {
			fmt.Printf("%-14s failed operations rose from %d to %d\n", w.name, ow.Failed, nw.Failed)
			regressions++
		}
		// Counts that repeat exactly: a host-speed-only change must leave
		// every one of them where it was.
		var moved []string
		for name, ov := range ow.PerLayer {
			if nv, ok := nw.PerLayer[name]; ok && ov.Exact && nv.Value != ov.Value {
				moved = append(moved, fmt.Sprintf("%s %g -> %g", name, ov.Value, nv.Value))
			}
		}
		sort.Strings(moved)
		for _, m := range moved {
			fmt.Printf("%-14s exact count moved: %s\n", w.name, m)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s) beyond the bound\n", regressions)
		return 1
	}
	return 0
}

func delta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// worse reports by what share of old the new value is worse.
func worse(d metricDef, old, new float64) float64 {
	if d.Better == "higher" {
		return -delta(old, new)
	}
	return delta(old, new)
}

func verdict(d metricDef, o, n metricSeries) string {
	if len(o.Samples) == 0 || len(n.Samples) == 0 {
		return "missing"
	}
	if allBetter(d, o.Samples, n.Samples) {
		return "improved"
	}
	if o.Spread > d.Bound || n.Spread > d.Bound {
		return "unresolved"
	}
	if worse(d, o.Median, n.Median) > d.Bound {
		return "REGRESSION"
	}
	return "ok"
}

// allBetter reports whether every new run reads better than every old
// run.
func allBetter(d metricDef, old, new []float64) bool {
	for _, n := range new {
		for _, o := range old {
			if worse(d, o, n) >= 0 {
				return false
			}
		}
	}
	return true
}
