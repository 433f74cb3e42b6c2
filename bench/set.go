package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childResult is one child invocation's result line plus the digest line
// before it.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	digest   string
	samples  int
	calibP50 float64
}

// runChild runs one workload in a fresh process of this same binary, the
// way the contract's driver does, so runs do not share a heap, a peak
// RSS or warmed caches.
func runChild(w *workload, seed uint64, seconds, trace int) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var res childResult
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			for _, kv := range strings.Fields(rest) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "digest":
					res.digest = v
				case "samples":
					res.samples, _ = strconv.Atoi(v) // our own output
				case "calib_mops_p50":
					res.calibP50, _ = strconv.ParseFloat(v, 64)
				}
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &res, nil
}

// runSet runs every workload repeat times untraced and once traced,
// prints each end-to-end metric's spread against its bound, and appends
// the history entry. It returns the process exit code: non-zero when an
// operation failed, a spread exceeded its bound, or a count that must
// repeat exactly did not.
func runSet(seed, seedStep uint64, seconds, repeat int, history bool) int {
	if repeat < 1 {
		repeat = 1
	}
	entry := newEntry(seed, seedStep, seconds, repeat)
	layerDefs := defsByName(perLayer)
	bad := 0
	var calibs []float64
	for _, w := range workloads {
		we := &workloadEntry{Why: w.why, WorkUnit: w.unit,
			EndToEnd: map[string]metricSeries{}, PerLayer: map[string]layerValue{}}
		entry.Workloads[w.name] = we
		samples := map[string][]float64{}
		for r := 0; r < repeat; r++ {
			res, err := runChild(w, seed+uint64(r)*seedStep, seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			we.Attempted += res.Attempted
			we.Failed += res.Failed
			we.OpSamples = res.samples
			we.Digests = append(we.Digests, res.digest)
			calibs = append(calibs, res.calibP50)
			for _, d := range endToEnd {
				samples[d.Name] = append(samples[d.Name], res.Metrics[d.Name].Value)
			}
		}
		traced, err := runChild(w, seed, seconds, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		we.Attempted += traced.Attempted
		we.Failed += traced.Failed
		for n, v := range traced.Metrics {
			we.PerLayer[n] = layerValue{Value: v.Value, Unit: v.Unit, Exact: layerDefs[n].exact}
		}

		fmt.Printf("%s: %d/%d operations failed, %d timed slices per run\n",
			w.name, we.Failed, we.Attempted, we.OpSamples)
		if we.Failed > 0 {
			bad++
		}
		if seedStep == 0 {
			for _, d := range we.Digests[1:] {
				if d != we.Digests[0] {
					fmt.Printf("  DIGEST MISMATCH: %s vs %s on the same seed\n", d, we.Digests[0])
					bad++
					break
				}
			}
		}
		for _, d := range endToEnd {
			s := newSeries(d, samples[d.Name])
			we.EndToEnd[d.Name] = s
			verdict := "ok"
			// setup_s is held to its bound between sets of runs, not
			// within one: the contract exempts its spread.
			if repeat > 1 && s.Spread > d.Bound && d.Name != "setup_s" {
				verdict = "SPREAD OVER BOUND"
				bad++
			}
			fmt.Printf("  %-14s median %12.5g %-5s q1 %12.5g q3 %12.5g spread %6.2f%% bound %4.0f%%  %s\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.Spread*100, d.Bound*100, verdict)
		}
		fmt.Printf("  trace: coverage %.3f overhead %.3f (out/trace-%s.json)\n",
			we.PerLayer["bench.trace_coverage"].Value, we.PerLayer["bench.trace_overhead"].Value, w.name)
	}
	entry.CalibMops = median(calibs)
	if history {
		path, err := appendHistory("history", entry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: history: %v\n", err)
			return 1
		}
		fmt.Printf("history entry appended to %s\n", path)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
