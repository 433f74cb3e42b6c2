package driver

import (
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/metrics"
)

// TestPassReads pins the read log: the facts each pass of each level's
// pipeline reads through the Context accessors, which is all a Session
// keys a pass's reuse on (DESIGN.md's pass table states the same). It also
// requires that no pass name appears twice in a pipeline: names key
// metrics, dumps, report rows and a Session's history.
func TestPassReads(t *testing.T) {
	want := func(lvl Level) map[string]string {
		w := map[string]string{"aggregate": "weights", "merge": "plan", "codegen": "soar plan"}
		if lvl >= LevelPAC {
			for _, p := range []string{"soar", "pac", "agg-opt", "final-opt"} {
				w[p] = "soar"
			}
		}
		if lvl >= LevelPHR {
			w["phr"] = "plan"
		}
		if lvl >= LevelSWC {
			w["swc"] = "swc_selection"
		}
		return w
	}
	for _, a := range apps.All() {
		for _, lvl := range Levels() {
			prog, err := LowerSource(a.Name+".baker", a.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Level: lvl, ProfileTrace: a.Trace(prog.Types, 7, 64), Controls: a.Controls,
				VerifyIR: VerifyOff}
			r := newRunner(prog, cfg, metrics.NewRegistry())
			w := want(lvl)
			seen := map[string]bool{}
			for _, p := range PipelineFor(cfg) {
				name := p.Name()
				if seen[name] {
					t.Errorf("%s at %v: pass %s is scheduled twice", a.Name, lvl, name)
				}
				seen[name] = true
				if err := r.runPass(p); err != nil {
					t.Fatalf("%s at %v: %v", a.Name, lvl, err)
				}
				var got []string
				for k := FactKind(0); k < numFacts; k++ {
					if r.ctx.factReads[k] {
						got = append(got, k.String())
					}
				}
				if g := strings.Join(got, " "); g != w[name] {
					t.Errorf("%s at %v: pass %s reads [%s], want [%s]", a.Name, lvl, name, g, w[name])
				}
			}
		}
	}
}
