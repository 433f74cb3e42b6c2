package opt_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
)

// BenchmarkOptimizeFunc is the "passes" layer's own benchmark: the scalar
// optimizer over the L3-Switch ME aggregate as the agg-opt pass receives it
// (profiled, inlined, scalar-optimized, merged), cloned afresh for every
// iteration. "funcs" runs OptimizeFunc on each function alone; "program"
// runs Optimize over the whole body, the shape agg-opt runs, where one
// scratch serves every function.
func BenchmarkOptimizeFunc(b *testing.B) {
	bodies := mergedME(b, apps.L3Switch())
	body := bodies[len(bodies)-1]
	instrs := 0
	for _, f := range body.Funcs {
		instrs += opt.InstrCount(f)
	}
	run := func(b *testing.B, optimize func(*ir.Program)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := ir.CloneProgram(body)
			b.StartTimer()
			optimize(p)
		}
		b.ReportMetric(float64(instrs), "instrs")
	}
	b.Run("funcs", func(b *testing.B) {
		run(b, func(p *ir.Program) {
			for _, f := range p.Funcs {
				opt.OptimizeFunc(f)
			}
		})
	})
	b.Run("program", func(b *testing.B) {
		run(b, func(p *ir.Program) { opt.Optimize(p, opt.Options{Scalar: true}) })
	})
}
