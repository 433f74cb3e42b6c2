package soar_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ir"
	"shangrila/internal/opt/soar"
)

// BenchmarkSOAR is SOAR's layer benchmark: one op analyzes what a +SWC
// compile of each of the three apps hands it, the whole program once and
// every ME aggregate's merged body seeded with the whole-program channel
// facts, as the driver's re-annotation does. The inputs already carry
// their annotations, so the analysis writes nothing and needs no fresh
// copy per op.
func BenchmarkSOAR(b *testing.B) {
	type input struct {
		prog    *ir.Program
		entries map[string]soar.Input
	}
	var inputs []input
	for _, a := range apps.All() {
		res, err := harness.Compile(a, driver.LevelSWC, 7)
		if err != nil {
			b.Fatalf("%s: %v", a.Name, err)
		}
		inputs = append(inputs, input{prog: res.Prog})
		for _, m := range res.Merged {
			if m.Agg.Target != aggregate.TargetME {
				continue
			}
			entries := map[string]soar.Input{}
			for _, e := range m.Entries {
				if e.In == nil {
					continue
				}
				if fct, ok := res.Report.SOAR.ChanInputs[e.In.Name]; ok {
					entries[e.Name] = fct
				}
			}
			inputs = append(inputs, input{m.Prog, entries})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			soar.AnalyzeWithEntries(in.prog, in.entries)
		}
	}
}
