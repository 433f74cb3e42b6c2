package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"shangrila/internal/driver"
)

// traceDir is where a traced run leaves its spans, relative to the
// benchmark's directory (the working directory under go -C bench run).
const traceDir = "out"

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow set-up does not decide it.
const setupRepeats = 3

// passReporter is implemented by states whose operations compile: the
// runner scales the driver's own per-pass timings by the slice's
// calibration factor.
type passReporter interface {
	lastPasses(i int) []driver.PassTiming
}

// pass is one measured pass over a workload's operations.
type pass struct {
	m         *meter
	tr        *tracer
	attempted int
	failed    int
	digest    uint64
	passes    passTotals
	allocMB   float64
	mallocs   float64
	gcCycles  float64
}

// measure runs ops operations of st as one timed slice each, checking
// outputs after every slice. An operation that errors or fails its check
// counts as failed; the run goes on so one bad slice cannot hide others.
func measure(st state, ops int, traced bool) *pass {
	p := &pass{m: newMeter()}
	if traced {
		p.tr = newTracer(p.m.epoch)
		p.m.tr = p.tr
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		var work float64
		id, err := p.m.run(0, false, func() (err error) {
			work, err = st.op(i, p.tr)
			return err
		})
		p.m.slices[id].work = work
		if err == nil {
			err = st.check(i)
		}
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "bench: operation %d failed: %v\n", i, err)
			continue
		}
		if pr, ok := st.(passReporter); ok {
			p.passes.add(pr.lastPasses(i), p.m.slices[id].factor)
		}
	}
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.mallocs = float64(after.Mallocs - before.Mallocs)
	p.gcCycles = float64(after.NumGC - before.NumGC)
	d, err := st.finish()
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "bench: final check failed: %v\n", err)
	}
	p.digest = d
	return p
}

// outcome is what one invocation reports: the contract's result line
// plus the digest the self-tests and -repeat compare.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Digest    uint64
	Samples   int // operation slices behind the timing metrics
	CalibP50  float64
}

// runUntraced measures the end-to-end metrics: set-up several times
// (median), then every operation on the composite path. Set-up time is
// scaled by the run's median kernel rate — hundreds of samples, where the
// two around a single set-up would add a tenth of noise — so a run taken
// in one of the host's slow phases does not read as a set-up regression.
func runUntraced(w *workload, seed uint64, seconds int) (*outcome, error) {
	n := w.opsFor(seconds)
	var st state
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		s, err := w.setup(seed, n)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	// The discarded set-ups are the benchmark's garbage, not the
	// workload's: collect them before the clock starts.
	runtime.GC()
	p := measure(st, n, false)
	work, _, cs := p.m.totals()
	cms, _ := p.m.opSamples()
	calib, _ := p.m.calibStats()
	return &outcome{
		Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
		Digest: p.digest, Samples: len(cms), CalibP50: calib,
		Metrics: map[string]float64{
			"setup_s":     median(setups) * calib * 1e6 / refOpsPerSec,
			"work_per_cs": work / cs,
			"rep_p50_cms": median(p.m.repSamples(w.period)),
		},
	}, nil
}

// runTraced measures the per-layer metrics: half the budget on the
// composite path (the baseline tracing overhead is measured against and
// the digest the decomposed path must reproduce), half on the decomposed
// path with a span around each layer, then the layer probes.
func runTraced(w *workload, seed uint64, seconds int) (*outcome, error) {
	n := (w.opsFor(seconds) + 1) / 2
	plainSt, err := w.setup(seed, n)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := measure(plainSt, n, false)
	st, err := w.setup(seed, n)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p := measure(st, n, true)

	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	failed := plain.failed + p.failed
	if p.digest != plain.digest {
		failed++
		fmt.Fprintf(os.Stderr, "bench: decomposed path digest %016x != composite path %016x\n",
			p.digest, plain.digest)
	}
	if w.probes != nil {
		if err := w.probes(st, seed, p.m, p.tr, out); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: layer probes failed: %v\n", err)
		}
	}
	factor := func(slice int) float64 { return p.m.slices[slice].factor }
	table := layerTable(p.tr.spans, factor)
	defs := defsByName(perLayer)
	rows := map[string]layerRow{}
	for _, r := range table {
		rows[r.Name] = r
		if _, ok := defs[spanMetric(r.Name)]; ok {
			out[spanMetric(r.Name)] += r.TotalMs
		}
	}
	cms, rawMs := p.m.opSamples()
	st.report(&layerView{out: out, rows: rows, opCms: cms, opRawMs: rawMs})
	p.passes.report(out)

	work, rawSec, cs := p.m.totals()
	_, plainRaw, plainCS := plain.m.totals()
	out["bench.slice_cms"] = cs * 1e3
	out["bench.failed_share"] = float64(failed) / float64(plain.attempted+p.attempted)
	if w.alias != "" {
		out[w.alias] = work / cs
		out[w.rawAlias] = work / rawSec
	}

	// Instrument: tracing overhead and coverage, calibration health.
	out["bench.trace_overhead"] = cs / plainCS
	var covered float64
	for _, s := range p.tr.spans {
		if s.Parent < 0 && !p.m.slices[s.Slice].probe {
			covered += float64(s.End - s.Start)
		}
	}
	out["bench.trace_coverage"] = covered / (rawSec * 1e9)
	calibP50, calibMin := plain.m.calibStats()
	out["bench.calib_mops_p50"], out["bench.calib_mops_min"] = calibP50, calibMin
	out["bench.calib_share"] = plain.m.calibSec / (plain.m.calibSec + plainRaw)
	out["host.alloc_mb_per_op"] = plain.allocMB / float64(plain.attempted)
	out["host.allocs_per_op"] = plain.mallocs / float64(plain.attempted)
	out["host.gc_cycles"] = plain.gcCycles
	out["host.peak_rss_mb"] = peakRSSMB()

	if err := writeTrace(filepath.Join(traceDir, "trace-"+w.name+".json"), w, seed, p, table); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	return &outcome{
		Correct: failed == 0, Attempted: plain.attempted + p.attempted, Failed: failed,
		Metrics: out, Digest: p.digest, Samples: len(cms), CalibP50: calibP50,
	}, nil
}

// traceFile is what the traced run leaves in bench/out: every span, the
// slices that give them a calibration factor, and the per-layer table
// (inclusive and self time).
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Slices   []traceRec `json:"slices"`
	Spans    []span     `json:"spans"`
	Layers   []layerRow `json:"layers"`
}

type traceRec struct {
	ID     int     `json:"id"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Factor float64 `json:"calib_factor"`
	Probe  bool    `json:"probe,omitempty"`
}

func writeTrace(path string, w *workload, seed uint64, p *pass, table []layerRow) error {
	tf := traceFile{Workload: w.name, Seed: seed, Spans: p.tr.spans, Layers: table}
	for id, s := range p.m.slices {
		tf.Slices = append(tf.Slices, traceRec{ID: id, Start: s.start, End: s.end,
			Factor: s.factor, Probe: s.probe})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(&tf); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's resident-set high-water mark, from
// /proc/self/status where there is one and from the Go runtime's own
// accounting elsewhere.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resultLine renders the contract's last line of standard output.
func resultLine(o *outcome, defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{Value: o.Metrics[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
