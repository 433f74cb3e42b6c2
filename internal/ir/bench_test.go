package ir_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/profiler"
	"shangrila/internal/testutil"
)

// BenchmarkFingerprint re-fingerprints the L3-Switch state an incremental
// compile snapshots after aggregation (the whole program plus both merged
// views, frozen): "cached" is what the session's state hash costs once the
// program store has fingerprinted every frozen function, "fresh" renders
// every function again, as each state hash did before the store.
func BenchmarkFingerprint(b *testing.B) {
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
	state := []*ir.Program{prog.Freeze()}
	funcs := len(prog.Funcs)
	for _, m := range merged {
		state = append(state, m.Prog.Freeze())
		funcs += len(m.Prog.Funcs)
	}
	var h ir.Hasher
	hash := func() uint64 {
		h.Reset()
		for _, p := range state {
			h.Program(p)
		}
		return h.Sum64()
	}
	want := hash()
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hash() != want {
				b.Fatal("the state's fingerprint moved")
			}
		}
		b.ReportMetric(float64(funcs), "funcs")
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range state {
				for _, f := range p.Funcs {
					if !h.Intact(f) {
						b.Fatalf("%s changed", f.Name)
					}
				}
			}
		}
		b.ReportMetric(float64(funcs), "funcs")
	})
}
