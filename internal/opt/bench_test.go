package opt_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
)

// BenchmarkOptimizeFunc is the "passes" layer's own benchmark: OptimizeFunc
// over every function of the L3-Switch ME aggregate as the agg-opt pass
// receives it (profiled, inlined, scalar-optimized, merged), cloned afresh
// for every iteration.
func BenchmarkOptimizeFunc(b *testing.B) {
	a := apps.L3Switch()
	prog := testutil.BuildIR(b, a.Source)
	stats, err := profiler.ProfileWithControls(prog, a.Trace(prog.Types, 7, 512), a.Controls)
	if err != nil {
		b.Fatal(err)
	}
	opt.Optimize(prog, opt.Options{Scalar: true, Inline: true})
	plan, err := aggregate.Build(prog, &stats.Weights, aggregate.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	merged, err := aggregate.BuildMerged(prog, plan, aggregate.ClassifyChannels(prog, plan))
	if err != nil {
		b.Fatal(err)
	}
	var body *ir.Program
	for _, m := range merged {
		if m.Agg.Target == aggregate.TargetME {
			body = m.Prog
		}
	}
	instrs := 0
	for _, f := range body.Funcs {
		instrs += opt.InstrCount(f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := ir.CloneProgram(body)
		b.StartTimer()
		for _, f := range p.Funcs {
			opt.OptimizeFunc(f)
		}
	}
	b.ReportMetric(float64(instrs), "instrs")
}
