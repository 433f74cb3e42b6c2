// The registered pipeline passes. Registration order is pipeline order and
// mirrors the paper's Figure 5 staging: profile → inline/scalar → SOAR →
// PAC → aggregation → merging → per-aggregate optimization → PHR → SWC →
// final cleanup → code generation. Each pass declares the analysis facts it
// consumes and the ones its rewrites invalidate; the manager recomputes
// invalidated on-demand facts lazily when a later pass requires them.
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

func init() {
	always := func(Level) bool { return true }
	fromPAC := func(l Level) bool { return l >= LevelPAC }
	RegisterPass(PassInfo{
		Name:    "profile",
		Stage:   "functional profiling (§4): interpret the unoptimized IR over the training trace",
		Enabled: always,
		New:     func(cfg Config) Pass { return profilePass{swc: cfg.swcConfig()} },
	})
	RegisterPass(PassInfo{
		Name:    "inline+scalar",
		Stage:   "inlining (mandatory for ME codegen) and -O1 scalar optimization",
		Enabled: always,
		New:     func(cfg Config) Pass { return inlineScalarPass{scalar: cfg.Level >= LevelO1} },
	})
	RegisterPass(PassInfo{
		Name:    "soar",
		Stage:   "static offset and alignment resolution (§5.3.2)",
		Enabled: fromPAC,
		New:     func(Config) Pass { return soarPass{} },
	})
	RegisterPass(PassInfo{
		Name:    "pac",
		Stage:   "packet access combining on the whole program (§5.3.1)",
		Enabled: fromPAC,
		New:     func(cfg Config) Pass { return pacPass{scalar: cfg.Level >= LevelO1} },
	})
	RegisterPass(PassInfo{
		Name:    "aggregate",
		Stage:   "PPF aggregation (§5.1, Figure 7): which PPFs share an ME, how often a stage is duplicated",
		Enabled: always,
		New:     func(cfg Config) Pass { return aggregatePass{cfg: cfg.aggConfig()} },
	})
	RegisterPass(PassInfo{
		Name:    "merge",
		Stage:   "per-aggregate merging: one inlined program per aggregate of the plan",
		Enabled: always,
		New:     func(cfg Config) Pass { return mergePass{analyze: cfg.Level >= LevelPAC} },
	})
	RegisterPass(PassInfo{
		Name:    "agg-opt",
		Stage:   "per-aggregate scalar cleanup, SOAR annotation and cross-PPF PAC",
		Enabled: always,
		New: func(cfg Config) Pass {
			return aggOptPass{scalar: cfg.Level >= LevelO1, pac: cfg.Level >= LevelPAC}
		},
	})
	RegisterPass(PassInfo{
		Name:    "phr",
		Stage:   "packet handling removal: metadata localization, encap pair elimination (§5.3.3)",
		Enabled: func(l Level) bool { return l >= LevelPHR },
		New:     func(Config) Pass { return phrPass{} },
	})
	RegisterPass(PassInfo{
		Name:    "swc",
		Stage:   "delayed-update software-controlled caching (§5.2)",
		Enabled: func(l Level) bool { return l >= LevelSWC },
		New:     func(cfg Config) Pass { return swcPass{cfg: cfg.swcConfig()} },
	})
	RegisterPass(PassInfo{
		Name:    "final-opt",
		Stage:   "post-PHR combining and final scalar cleanup of the merged bodies",
		Enabled: always,
		New: func(cfg Config) Pass {
			return finalOptPass{
				scalar:     cfg.Level >= LevelO1,
				phrCombine: cfg.Level >= LevelPHR,
				annotate:   cfg.Level >= LevelPAC,
			}
		},
	})
	RegisterPass(PassInfo{
		Name:    "codegen",
		Stage:   "CGIR lowering, dual-bank register allocation, stack layout (§5.4)",
		Enabled: always,
		New: func(cfg Config) Pass {
			return codegenPass{opts: cg.Options{
				O2:   cfg.Level >= LevelO2,
				SOAR: cfg.Level >= LevelSOAR,
				PHR:  cfg.Level >= LevelPHR,
				SWC:  cfg.Level >= LevelSWC,
			}}
		},
	})
}

// profilePass runs the functional profiler on unoptimized IR (Figure 5)
// and produces the FactProfile stats every global optimization consumes,
// with the views its readers take of it: the weights aggregation reads and
// the SWC candidate selection.
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

func (profilePass) Name() string            { return "profile" }
func (profilePass) Requires() []FactKind    { return nil }
func (profilePass) Invalidates() []FactKind { return nil }

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
// paper turns them into branches with globally allocated registers) and
// runs the -O1 scalar optimizer when enabled.
type inlineScalarPass struct{ scalar bool }

func (inlineScalarPass) Name() string         { return "inline+scalar" }
func (inlineScalarPass) Requires() []FactKind { return nil }

// Inlining rewrites every function body, so any earlier SOAR annotation is
// stale (none exists in the default pipeline; declared for robustness).
func (inlineScalarPass) Invalidates() []FactKind { return []FactKind{FactSOAR} }

func (p inlineScalarPass) Run(ctx *Context) error {
	ctx.optimize(ctx.Prog, opt.Options{Scalar: p.scalar, Inline: true})
	return nil
}

// soarPass makes the whole-program SOAR facts available (the manager's
// ensure step performs the analysis) and notes them for the report, which
// shows them at +SOAR and above (runner.result) — whether the code
// generator exploits the facts is the separate +SOAR level of the
// evaluation axis.
type soarPass struct{}

func (soarPass) Name() string            { return "soar" }
func (soarPass) Requires() []FactKind    { return []FactKind{FactSOAR} }
func (soarPass) Invalidates() []FactKind { return nil }

func (soarPass) Run(ctx *Context) error {
	ctx.Report.SOAR = ctx.SOAR()
	return nil
}

// pacPass combines packet accesses across the whole program, then cleans
// up with the scalar optimizer. The rewrite moves and widens accesses, so
// it re-analyzes SOAR afterwards: what follows reads the combined accesses
// annotated — aggregation's code-size estimate, which counts a resolved
// packet access as cheaper than a dynamic one, and the merged clones.
type pacPass struct{ scalar bool }

func (pacPass) Name() string            { return "pac" }
func (pacPass) Requires() []FactKind    { return []FactKind{FactSOAR} }
func (pacPass) Invalidates() []FactKind { return nil }

func (p pacPass) Run(ctx *Context) error {
	ctx.Report.PAC = pac.Run(ctx.Prog)
	ctx.optimize(ctx.Prog, opt.Options{Scalar: p.scalar})
	ctx.Invalidate(FactSOAR)
	ctx.SOAR()
	return nil
}

// aggregatePass runs the Figure 7 heuristic over the profile's weights and
// classifies every channel under the plan. It decides and does not merge:
// the merged programs depend only on the plan's decisions (mergePass).
type aggregatePass struct{ cfg aggregate.Config }

func (aggregatePass) Name() string            { return "aggregate" }
func (aggregatePass) Requires() []FactKind    { return []FactKind{FactWeights} }
func (aggregatePass) Invalidates() []FactKind { return nil }

func (p aggregatePass) Run(ctx *Context) error {
	plan, err := aggregate.Build(ctx.Prog, ctx.Weights(), p.cfg)
	if err != nil {
		return err
	}
	ctx.Report.Plan = plan
	ctx.SetPlan(plan, aggregate.ClassifyChannels(ctx.Prog, plan))
	return nil
}

// mergePass builds the merged per-aggregate programs of the plan. It reads
// the plan's decisions only, so a Session whose re-run aggregation decides
// what a held plan decided keeps the held merge. When the pipeline analyzes
// (≥ +PAC) it requires the SOAR facts, so the merged clones carry post-PAC
// annotations.
type mergePass struct{ analyze bool }

func (mergePass) Name() string { return "merge" }

func (p mergePass) Requires() []FactKind {
	if p.analyze {
		return []FactKind{FactPlan, FactSOAR}
	}
	return []FactKind{FactPlan}
}
func (mergePass) Invalidates() []FactKind { return nil }

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
// then PAC across former PPF boundaries. It rewrites the merged programs
// only, so the whole-program facts stay valid.
type aggOptPass struct{ scalar, pac bool }

func (aggOptPass) Name() string { return "agg-opt" }

func (p aggOptPass) Requires() []FactKind {
	if p.pac {
		return []FactKind{FactPlan, FactSOAR}
	}
	return []FactKind{FactPlan}
}
func (aggOptPass) Invalidates() []FactKind { return nil }

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

// phrPass removes packet handling overhead inside the merged bodies. The
// whole program is read-only input (it supplies the global accessor view),
// so no whole-program fact is invalidated.
type phrPass struct{}

func (phrPass) Name() string            { return "phr" }
func (phrPass) Requires() []FactKind    { return []FactKind{FactPlan} }
func (phrPass) Invalidates() []FactKind { return nil }

func (phrPass) Run(ctx *Context) error {
	plan, _ := ctx.Plan()
	ctx.Report.PHR = phr.Run(ctx.Prog, plan, ctx.Merged)
	return nil
}

// swcPass rewrites the access paths of the software-cache candidates the
// profile pass selected.
type swcPass struct{ cfg swc.Config }

func (swcPass) Name() string            { return "swc" }
func (swcPass) Requires() []FactKind    { return []FactKind{FactSWCSelection, FactPlan} }
func (swcPass) Invalidates() []FactKind { return nil }

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

func (p finalOptPass) Requires() []FactKind {
	if p.annotate || p.phrCombine {
		return []FactKind{FactPlan, FactSOAR}
	}
	return []FactKind{FactPlan}
}
func (finalOptPass) Invalidates() []FactKind { return nil }

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

// codegenPass lowers the merged aggregates to CGIR and produces the
// loadable image. Its "after" size reports generated CGIR instructions.
type codegenPass struct{ opts cg.Options }

func (codegenPass) Name() string            { return "codegen" }
func (codegenPass) Requires() []FactKind    { return []FactKind{FactPlan} }
func (codegenPass) Invalidates() []FactKind { return nil }

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
