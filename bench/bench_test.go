package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap by
	// ten, and c [70,80); a has a child of its own, a1 [15,25).
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 70, End: 80},
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	table := layerTable(spans, func(int) float64 { return 2 })
	var total, self float64
	for _, r := range table {
		if r.Name == "root" {
			total = r.TotalMs
		}
		self += r.SelfMs
	}
	// Self times add up to the root's span less the double-counted
	// overlap of a and b, whatever the calibration factor.
	if wantSelf := total + 10*2/1e6; math.Abs(self-wantSelf) > 1e-12 {
		t.Errorf("self times sum to %g cms, want %g", self, wantSelf)
	}
}

func TestTracerNesting(t *testing.T) {
	m := newMeter()
	tr := newTracer(m.epoch)
	m.tr = tr
	id, err := m.run(1, false, func() error {
		tr.do("outer", func() { tr.do("inner", func() {}) })
		return tr.doErr("second", func() error { return nil })
	})
	if err != nil || len(tr.spans) != 3 {
		t.Fatalf("err %v, %d spans", err, len(tr.spans))
	}
	if tr.spans[1].Parent != tr.spans[0].ID || tr.spans[2].Parent != -1 {
		t.Errorf("parents: inner %d, second %d", tr.spans[1].Parent, tr.spans[2].Parent)
	}
	for _, s := range tr.spans {
		if s.Slice != id || s.End < s.Start {
			t.Errorf("span %+v: want slice %d and end >= start", s, id)
		}
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the call")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {240, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	v := make([]float64, 240)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 95); got != 228 {
		t.Errorf("p95 of 1..240 = %g, want 228 (12 samples beyond it)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "work_per_cs", Better: "higher", Bound: 0.10}
	series := func(v ...float64) metricSeries { return newSeries(d, v) }
	steady := series(100, 101, 99, 100, 100)
	for _, c := range []struct {
		name string
		new  metricSeries
		want string
	}{
		{"same", series(100, 100, 101, 99, 100), "ok"},
		{"within bound", series(95, 94, 96, 95, 95), "ok"},
		{"beyond bound", series(85, 84, 86, 85, 85), "REGRESSION"},
		{"every run better", series(120, 121, 119, 150, 102), "improved"},
		{"too noisy to tell", series(60, 100, 140, 80, 120), "unresolved"},
	} {
		if got := verdict(d, steady, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	lower := metricDef{Name: "rep_p50_cms", Better: "lower", Bound: 0.10}
	if got := verdict(lower, newSeries(lower, []float64{10, 10, 10}), newSeries(lower, []float64{12, 12, 12})); got != "REGRESSION" {
		t.Errorf("lower-is-better metric 20%% up: verdict %q", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to exactly what the binary
// prints: the workloads, and every metric's name, unit, direction and
// bound.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the binary has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, binary has %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind   string
		listed []metricDef
		defs   []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		// The names the binary prints are the keys of its result line.
		var line struct {
			Metrics map[string]struct{ Unit string } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(resultLine(&outcome{Metrics: map[string]float64{}}, c.defs)), &line); err != nil {
			t.Fatal(err)
		}
		if len(c.listed) != len(line.Metrics) {
			t.Errorf("%s: %d metrics listed, the binary prints %d", c.kind, len(c.listed), len(line.Metrics))
		}
		byName := defsByName(c.defs)
		for _, l := range c.listed {
			d, ok := byName[l.Name]
			if _, printed := line.Metrics[l.Name]; !ok || !printed {
				t.Errorf("%s: %s is listed but not printed", c.kind, l.Name)
				continue
			}
			if l.Unit != d.Unit || l.Unit != line.Metrics[l.Name].Unit || l.Better != d.Better || l.Bound != d.Bound {
				t.Errorf("%s: %s listed as %+v, binary has %+v", c.kind, l.Name, l, d)
			}
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}

// TestDecomposedPathMatchesComposite runs a tiny configuration of every
// workload on both paths: the traced decomposition must leave the same
// simulated and compiled results behind as the calls it replaces, and
// neither path may fail an operation.
func TestDecomposedPathMatchesComposite(t *testing.T) {
	tiny := map[string]int{"steady_opt": 3, "steady_base": 3, "sweep_short": sweepOpsPerRep,
		"compile_cold": 21, "compile_incr": 6, "fuzz_campaign": 2}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(traced bool) *pass {
				st, err := w.setup(7, tiny[w.name])
				if err != nil {
					t.Fatal(err)
				}
				return measure(st, tiny[w.name], traced)
			}
			plain, traced := run(false), run(true)
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed operations: composite %d, decomposed %d", plain.failed, traced.failed)
			}
			if plain.attempted != tiny[w.name] || traced.attempted != tiny[w.name] {
				t.Errorf("attempted %d and %d operations, want %d", plain.attempted, traced.attempted, tiny[w.name])
			}
			if plain.digest != traced.digest {
				t.Errorf("digest: composite %016x, decomposed %016x", plain.digest, traced.digest)
			}
			if len(traced.tr.spans) == 0 {
				t.Error("the decomposed path recorded no span")
			}
			if work, _, _ := traced.m.totals(); work <= 0 {
				t.Errorf("work %g", work)
			}
		})
	}
}
