package cg_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
)

// BenchmarkLowerAggregate is the lowerer's own benchmark: every ME
// aggregate of the three applications at +SWC lowered from its merged IR
// into CGIR in virtual registers, as Compile does before register
// allocation. Instrs are carved from chunks and branch targets are integer
// labels, so allocs/op counts per aggregate and per memory operand, not per
// instruction.
func BenchmarkLowerAggregate(b *testing.B) {
	type input struct {
		res     *driver.Result
		m       *aggregate.Merged
		classes map[*types.Channel]aggregate.ChannelClass
	}
	var inputs []input
	instrs := 0
	for _, a := range apps.All() {
		res, err := harness.Compile(a, driver.LevelSWC, 7)
		if err != nil {
			b.Fatalf("%s: %v", a.Name, err)
		}
		classes := aggregate.ClassifyChannels(res.Prog, res.Image.Plan)
		for _, m := range res.Merged {
			if m.Agg.Target == aggregate.TargetME {
				inputs = append(inputs, input{res, m, classes})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, in := range inputs {
			p, _, err := cg.LowerAggregate(in.res.Prog, in.m, in.res.Image, in.classes)
			if err != nil {
				b.Fatal(err)
			}
			instrs += len(p.Code)
		}
	}
	b.ReportMetric(float64(instrs), "instrs")
}
