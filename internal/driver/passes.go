// The pipeline passes, in the order PipelineFor schedules them, which is
// the paper's Figure 5 staging: profile → inline/scalar → SOAR → PAC →
// aggregation → merging → per-aggregate optimization → PHR → SWC → final
// cleanup → code generation. A pass consumes analysis facts through the
// Context accessors, which log each read: that log is the one record of
// what a pass depends on, and an incremental Session keys reuse on it.
package driver

import (
	"shangrila/internal/aggregate"
	"shangrila/internal/cg"
	"shangrila/internal/opt"
	"shangrila/internal/opt/pac"
	"shangrila/internal/opt/phr"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
)

// profilePass is functional profiling (§4): it interprets the unoptimized
// IR over the training trace (Figure 5) and produces the FactProfile stats
// every global optimization consumes, with the views its readers take of
// it: the weights aggregation reads and the SWC candidate selection.
//
// The selection is made here, not by the swc pass, so that a Session can
// compare it before SWC runs: it depends only on the profile, the SWC
// settings and the program's declared globals, none of which a pass
// changes. It is made at every level, not only at +SWC, so that the
// profile pass is one value for all levels and the level ladder shares it;
// selecting costs a sort of the globals.
//
// In a Session the profile is incremental (profileState): it re-interprets
// only the trace packets a delta reaches.
type profilePass struct{ swc swc.Config }

func (profilePass) Name() string { return "profile" }

func (p profilePass) Run(ctx *Context) error {
	var stats *profiler.Stats
	var err error
	if ctx.profiles != nil {
		stats, err = ctx.profiles.profile(ctx)
	} else {
		stats, err = profiler.ProfileWithControls(ctx.Prog, ctx.Cfg.ProfileTrace, ctx.Cfg.Controls)
	}
	if err != nil {
		return err
	}
	ctx.SetProfile(stats)
	ctx.SetSWCSelection(swc.SelectCandidates(ctx.Prog, stats, p.swc))
	ctx.Report.ProfileStats = stats
	return nil
}

// inlineScalarPass inlines every call (calls become merged bodies, as the
// paper turns them into branches with globally allocated registers; ME code
// generation needs it) and runs the -O1 scalar optimizer when enabled.
type inlineScalarPass struct{ scalar bool }

func (inlineScalarPass) Name() string { return "inline+scalar" }

func (p inlineScalarPass) Run(ctx *Context) error {
	ctx.optimize(ctx.Prog, opt.Options{Scalar: p.scalar, Inline: true})
	return nil
}

// soarPass is static offset and alignment resolution (§5.3.2) on the
// whole program: it analyzes, making the SOAR facts available, and notes
// them for the report, which shows them at +SOAR and above (runner.result)
// — whether the code generator exploits the facts is the separate +SOAR
// level of the evaluation axis.
type soarPass struct{}

func (soarPass) Name() string { return "soar" }

func (soarPass) Run(ctx *Context) error {
	ctx.Report.SOAR = ctx.SOAR()
	return nil
}

// pacPass combines packet accesses across the whole program (§5.3.1), then
// cleans up with the scalar optimizer. The rewrite moves and widens
// accesses, so it re-analyzes SOAR afterwards: what follows reads the
// combined accesses annotated — aggregation's code-size estimate, which
// counts a resolved packet access as cheaper than a dynamic one, and the
// merged clones.
type pacPass struct{ scalar bool }

func (pacPass) Name() string { return "pac" }

func (p pacPass) Run(ctx *Context) error {
	ctx.Report.PAC = pac.Run(ctx.Prog)
	ctx.optimize(ctx.Prog, opt.Options{Scalar: p.scalar})
	ctx.facts.valid[FactSOAR] = false
	ctx.SOAR()
	return nil
}

// aggregatePass is PPF aggregation (§5.1): the Figure 7 heuristic decides,
// over the profile's weights, which PPFs share an ME and how often a stage
// is duplicated, and every channel is classified under the plan. It decides
// and does not merge: the merged programs depend only on the plan's
// decisions (mergePass).
type aggregatePass struct{ cfg aggregate.Config }

func (aggregatePass) Name() string { return "aggregate" }

func (p aggregatePass) Run(ctx *Context) error {
	plan, err := aggregate.Build(ctx.Prog, ctx.Weights(), p.cfg)
	if err != nil {
		return err
	}
	ctx.Report.Plan = plan
	ctx.SetPlan(plan, aggregate.ClassifyChannels(ctx.Prog, plan))
	return nil
}

// mergePass builds the merged per-aggregate programs of the plan, one
// inlined program per aggregate. It reads the plan's decisions only, so a
// Session whose re-run aggregation decides what a held plan decided keeps
// the held merge. At +PAC and above the merged clones carry the annotations
// pac's re-analysis left in the program.
type mergePass struct{}

func (mergePass) Name() string { return "merge" }

func (mergePass) Run(ctx *Context) error {
	plan, classes := ctx.Plan()
	merged, err := aggregate.BuildMerged(ctx.Prog, plan, classes)
	if err != nil {
		return err
	}
	ctx.Merged = merged
	return nil
}

// annotateMerged re-runs SOAR on one merged body, seeding each entry with
// the whole-program channel-input fact so the analysis sees through former
// channel boundaries.
func annotateMerged(ctx *Context, m *aggregate.Merged) {
	facts := ctx.SOARIfValid()
	entries := map[string]soar.Input{}
	for _, e := range m.Entries {
		if e.In != nil && facts != nil {
			if fct, ok := facts.ChanInputs[e.In.Name]; ok {
				entries[e.Name] = fct
			}
		}
	}
	soar.AnalyzeWithEntries(m.Prog, entries)
}

// aggOptPass optimizes each ME aggregate's merged body: scalar cleanup,
// then SOAR annotation and PAC across former PPF boundaries. It rewrites
// the merged programs only, so the whole-program facts stay valid.
type aggOptPass struct{ scalar, pac bool }

func (aggOptPass) Name() string { return "agg-opt" }

func (p aggOptPass) Run(ctx *Context) error {
	for _, m := range ctx.Merged {
		if m.Agg.Target != aggregate.TargetME {
			continue
		}
		ctx.optimize(m.Prog, opt.Options{Scalar: p.scalar})
		if p.pac {
			annotateMerged(ctx, m)
			pac.Run(m.Prog)
			ctx.optimize(m.Prog, opt.Options{Scalar: p.scalar})
		}
	}
	return nil
}

// phrPass removes packet handling overhead inside the merged bodies
// (§5.3.3): metadata localization and encap pair elimination. The whole
// program is read-only input (it supplies the global accessor view).
type phrPass struct{}

func (phrPass) Name() string { return "phr" }

func (phrPass) Run(ctx *Context) error {
	plan, _ := ctx.Plan()
	ctx.Report.PHR = phr.Run(ctx.Prog, plan, ctx.Merged)
	return nil
}

// swcPass is delayed-update software-controlled caching (§5.2): it
// rewrites the access paths of the candidates the profile pass selected.
type swcPass struct{ cfg swc.Config }

func (swcPass) Name() string { return "swc" }

func (p swcPass) Run(ctx *Context) error {
	// Apply gives each candidate its synthetic globals, so it gets copies:
	// the selection is a published fact.
	var cands []*swc.Candidate
	for _, c := range ctx.SWCSelection() {
		cp := *c
		cands = append(cands, &cp)
	}
	if _, err := swc.Apply(ctx.Prog, ctx.Merged, cands, p.cfg); err != nil {
		return err
	}
	ctx.Report.SWCCands = cands
	return nil
}

// finalOptPass exploits what PHR exposed: its pair elimination redirects
// accesses to shared handles, so PAC runs once more over each merged body,
// followed by a final scalar cleanup and SOAR re-annotation.
type finalOptPass struct{ scalar, phrCombine, annotate bool }

func (finalOptPass) Name() string { return "final-opt" }

func (p finalOptPass) Run(ctx *Context) error {
	for _, m := range ctx.Merged {
		if m.Agg.Target != aggregate.TargetME {
			continue
		}
		if p.phrCombine {
			annotateMerged(ctx, m)
			pac.Run(m.Prog)
		}
		ctx.optimize(m.Prog, opt.Options{Scalar: p.scalar})
		if p.annotate {
			annotateMerged(ctx, m)
		}
	}
	return nil
}

// codegenPass is code generation (§5.4): CGIR lowering of the merged
// aggregates, dual-bank register allocation and stack layout, producing the
// loadable image. Its "after" size reports generated CGIR instructions.
type codegenPass struct{ opts cg.Options }

func (codegenPass) Name() string { return "codegen" }

func (p codegenPass) Run(ctx *Context) error {
	plan, classes := ctx.Plan()
	img, err := cg.Compile(ctx.Prog, plan, ctx.Merged, classes, ctx.SOARIfValid(), p.opts)
	if err != nil {
		return err
	}
	ctx.Image = img
	sizes := make([]int, len(img.MECode))
	for i, c := range img.MECode {
		sizes[i] = len(c.Program.Code)
	}
	ctx.Report.CodeSizes = sizes
	return nil
}

func (codegenPass) AfterSize(ctx *Context) int {
	n := 0
	if ctx.Image != nil {
		for _, c := range ctx.Image.MECode {
			n += len(c.Program.Code)
		}
	}
	return n
}
