package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/metrics"
)

// TestOptRoundsRecorded: every pass that runs the scalar optimizer reports
// how its fixpoint iteration went, at all seven levels (the most rounds one
// function needed, the rounds of all its functions together, which are at
// least that many, and the functions the cap stopped), and every run of it
// — the three applications' and every fuzz-corpus program's — reaches its
// fixpoint inside the round cap. (The applications' loops and
// branch-assigned variables used to stop at the cap, in a round that left
// the body unchanged but reported changes; OptimizeFunc now recognises
// that round as the fixpoint.)
func TestOptRoundsRecorded(t *testing.T) {
	programs := apps.All()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz-corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var spec bakergen.Spec
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		programs = append(programs, spec.Build())
	}
	for _, a := range programs {
		capped := int64(0)
		for _, lvl := range driver.Levels() {
			res, err := Compile(a, lvl, 7)
			if err != nil {
				t.Fatalf("%s at %v: %v", a.Name, lvl, err)
			}
			snap := res.Report.Metrics
			for _, pt := range res.Report.Passes {
				rounds, ran := snap.Gauges[string(metrics.PassOptRoundsMax(pt.Pass))]
				total, summed := snap.Counters[string(metrics.PassOptRounds(pt.Pass))]
				n, counted := snap.Counters[string(metrics.PassOptUnconverged(pt.Pass))]
				scalar := lvl >= driver.LevelO1 && (pt.Pass == "inline+scalar" || pt.Pass == "pac" ||
					pt.Pass == "agg-opt" || pt.Pass == "final-opt")
				if ran != scalar || summed != scalar || counted != scalar {
					t.Errorf("%s at %v: pass %s records rounds_max=%v rounds=%v unconverged=%v, runs the optimizer=%v",
						a.Name, lvl, pt.Pass, ran, summed, counted, scalar)
				}
				if scalar && (rounds < 1 || float64(total) < rounds || n < 0) {
					t.Errorf("%s at %v: pass %s: opt_rounds_max %v, opt_rounds %d, opt_unconverged %d",
						a.Name, lvl, pt.Pass, rounds, total, n)
				}
				capped += n
			}
			for k := range snap.Counters {
				if lvl == driver.LevelBase && strings.Contains(k, ".opt_") {
					t.Errorf("%s at BASE: %s recorded without a scalar run", a.Name, k)
				}
			}
		}
		if capped != 0 {
			t.Errorf("%s: %d optimizer runs stopped at the round cap", a.Name, capped)
		}
	}
}
