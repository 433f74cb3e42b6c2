package pac_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/opt/pac"
)

// BenchmarkPAC is PAC's layer benchmark: one op combines the accesses of
// each of the three apps as the pac pass receives them (lowered, inlined,
// scalar-optimized), on a copy made outside the timer.
func BenchmarkPAC(b *testing.B) {
	var progs []*ir.Program
	for _, a := range apps.All() {
		p, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			b.Fatalf("%s: %v", a.Name, err)
		}
		opt.Optimize(p, opt.Options{Scalar: true, Inline: true})
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cps := make([]*ir.Program, len(progs))
		for j, p := range progs {
			cps[j] = ir.CloneProgram(p)
		}
		b.StartTimer()
		for _, p := range cps {
			pac.Run(p)
		}
	}
}
