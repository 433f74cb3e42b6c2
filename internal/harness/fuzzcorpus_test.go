package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"shangrila/internal/bakergen"
	"shangrila/internal/ixp"
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
			// Replay on the staged-compilation engine: the corpus programs
			// are exactly the adversarial inputs (cross-decap rebasing,
			// front-growth clamping, metadata localization) a closure
			// compiler could mis-specialize, so the compiled verdict — and
			// the per-level cycle counts, which are deterministic — must
			// reproduce the serial run exactly.
			crep := DifferentialWith(DiffConfig{Seed: spec.Seed, TraceN: 12,
				Engine: ixp.EngineCompiled{}}, spec.Build())
			if !crep.OK() {
				t.Errorf("corpus reproducer diverges on compiled engine:\n%s", crep)
			}
			if !reflect.DeepEqual(rep.LevelCycles, crep.LevelCycles) {
				t.Errorf("compiled engine level cycles diverge: serial %v compiled %v",
					rep.LevelCycles, crep.LevelCycles)
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
