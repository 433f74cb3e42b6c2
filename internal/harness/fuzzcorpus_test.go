package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"shangrila/internal/bakergen"
)

// TestFuzzCorpusReplay replays every checked-in minimized reproducer from
// testdata/fuzz-corpus against the full differential oracle. Each file is
// a bakergen.Spec that once exposed a real miscompile (PAC cross-decap
// cluster rebasing, SOAR front-growth offset clamping, PHR metadata
// localization vs PAC-combined raw accesses); the corpus pins those fixes
// as executable regression tests.
func TestFuzzCorpusReplay(t *testing.T) {
	for name, spec := range corpusSpecs(t) {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := DifferentialWith(DiffConfig{Seed: spec.Seed, TraceN: 12}, spec.Build())
			if !rep.OK() {
				t.Errorf("corpus reproducer diverges again:\n%s", rep)
			}
		})
	}
}

// corpusSpecs loads every checked-in reproducer, keyed by file name.
func corpusSpecs(t *testing.T) map[string]*bakergen.Spec {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz-corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("fuzz corpus is empty")
	}
	specs := map[string]*bakergen.Spec{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec := new(bakergen.Spec)
		if err := json.Unmarshal(raw, spec); err != nil {
			t.Fatalf("%s does not parse as a spec: %v", f, err)
		}
		specs[filepath.Base(f)] = spec
	}
	return specs
}
