package cg_test

import (
	"fmt"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
)

// BenchmarkAllocate is the register allocator's own benchmark: Allocate on
// every ME program of the three applications at +SWC, each lowered again
// outside the timer. Before timing, one allocation of each lowered program
// must reproduce the compiled image's code.
func BenchmarkAllocate(b *testing.B) {
	type input struct {
		name  string
		lower func() (*cg.Program, int)
	}
	var inputs []input
	instrs := 0
	for _, a := range apps.All() {
		res, err := harness.Compile(a, driver.LevelSWC, 7)
		if err != nil {
			b.Fatalf("%s: %v", a.Name, err)
		}
		classes := aggregate.ClassifyChannels(res.Prog, res.Image.Plan)
		me := 0
		for _, m := range res.Merged {
			if m.Agg.Target != aggregate.TargetME {
				continue
			}
			in := input{name: fmt.Sprintf("%s me%d", a.Name, me), lower: func() (*cg.Program, int) {
				p, nvreg, err := cg.LowerAggregate(res.Prog, m, res.Image, classes)
				if err != nil {
					b.Fatalf("%s: %v", a.Name, err)
				}
				return p, nvreg
			}}
			p, nvreg := in.lower()
			instrs += len(p.Code)
			if err := cg.Allocate(p, nvreg); err != nil {
				b.Fatalf("%s: %v", in.name, err)
			}
			if got, want := fmt.Sprint(p.Code), fmt.Sprint(res.Image.MECode[me].Program.Code); got != want {
				b.Fatalf("%s: allocating the lowered program again gives other code than the image's", in.name)
			}
			inputs = append(inputs, in)
			me++
		}
	}
	progs, nvregs := make([]*cg.Program, len(inputs)), make([]int, len(inputs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, in := range inputs {
			progs[j], nvregs[j] = in.lower()
		}
		b.StartTimer()
		for j, p := range progs {
			if err := cg.Allocate(p, nvregs[j]); err != nil {
				b.Fatalf("%s: %v", inputs[j].name, err)
			}
		}
	}
	b.ReportMetric(float64(instrs), "instrs")
}
