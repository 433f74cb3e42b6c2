package driver

import (
	"fmt"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
)

// TestMergeReadsOnlyPlanDecisions pins what lets a Session keep its merged
// programs when aggregation re-runs and its plan decides what a held plan
// decided: merging reads the plan's decisions and nothing of its model.
// For the applications and generated programs, below and from +PAC, the
// program the merge pass receives is merged under the plan and under a
// copy whose Cost, Weight and Throughput all differ; the merged programs
// must fingerprint the same, with the same entry functions and channels.
func TestMergeReadsOnlyPlanDecisions(t *testing.T) {
	progs := apps.All()
	for seed := uint64(0); seed < 20; seed++ {
		progs = append(progs, bakergen.NewSpec(seed).Build())
	}
	for _, a := range progs {
		for _, lvl := range []Level{LevelBase, LevelO2, LevelPAC, LevelSWC} {
			prog, err := LowerSource(a.Name+".baker", a.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Level: lvl, ProfileTrace: a.Trace(prog.Types, 7, 64), Controls: a.Controls,
				VerifyIR: VerifyOff}
			r := newRunner(prog, cfg, metrics.NewRegistry())
			for _, p := range PipelineFor(cfg) {
				if p.Name() == "merge" {
					break
				}
				if err := r.runPass(p); err != nil {
					t.Fatalf("%s at %v: %v", a.Name, lvl, err)
				}
			}
			plan, classes := r.ctx.facts.plan, r.ctx.facts.classes
			moved := remodel(plan)
			if !moved.SameDecisions(plan) || moved.Throughput == plan.Throughput {
				t.Fatalf("%s at %v: the remodelled plan decides otherwise or models the same", a.Name, lvl)
			}
			want, err := aggregate.BuildMerged(r.ctx.Prog, plan, classes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := aggregate.BuildMerged(r.ctx.Prog, moved, aggregate.ClassifyChannels(r.ctx.Prog, moved))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := mergedShape(got), mergedShape(want); g != w {
				t.Errorf("%s at %v: merging under a remodelled plan gives\n%s\nwant\n%s", a.Name, lvl, g, w)
			}
		}
	}
}

// remodel copies a plan with every model value changed — each aggregate's
// Cost and Weight and the plan's Throughput — and its decisions kept.
func remodel(p *aggregate.Plan) *aggregate.Plan {
	cp := *p
	cp.Throughput = 2*p.Throughput + 1
	cp.Aggregates = make([]*aggregate.Aggregate, len(p.Aggregates))
	cp.Of = map[string]*aggregate.Aggregate{}
	for i, a := range p.Aggregates {
		b := *a
		b.Cost, b.Weight = 3*a.Cost+1, 1-a.Weight/2
		cp.Aggregates[i] = &b
		for _, f := range a.PPFs {
			cp.Of[f] = &b
		}
	}
	return &cp
}

// mergedShape renders merged programs by what a later pass can read of
// them: each aggregate's program fingerprint and its entries' functions
// and input channels.
func mergedShape(ms []*aggregate.Merged) string {
	var h ir.Hasher
	s := ""
	for _, m := range ms {
		h.Reset()
		h.Program(m.Prog)
		s += fmt.Sprintf("aggregate %d %016x:", m.Agg.ID, h.Sum64())
		for _, e := range m.Entries {
			in := "rx"
			if e.In != nil {
				in = e.In.Name
			}
			s += fmt.Sprintf(" %s<-%s", e.Name, in)
		}
		s += "\n"
	}
	return s
}
