package main

import (
	"fmt"
	"io"
	"runtime/metrics"

	"shangrila/internal/apps"
	"shangrila/internal/baker/lexer"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/ir"
	"shangrila/internal/profiler"
)

// Layer probes: calls no operation makes on its own (the parser drives
// the lexer, the session drives the IR printer and cloner), timed in
// probe slices of the traced run so they get a calibration factor like
// any other span. They are per-layer numbers only.

// compileProbes measures the lexer alone, the IR utilities the
// incremental session and the verifier lean on (on each application's
// final +SWC program) and the reference interpreter's packet rate.
func compileProbes(as []*apps.App, seed uint64, m *meter, tr *tracer, out map[string]float64) error {
	var pkts float64
	_, err := m.run(0, true, func() error {
		for _, a := range as {
			tr.do("baker.lexer.scan", func() {
				toks, _ := lexer.ScanAll(a.Name+".baker", a.Source)
				out["baker.lexer.tokens"] += float64(len(toks))
			})
			res, err := harness.Compile(a, driver.LevelSWC, seed)
			if err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
			if err := tr.doErr("ir.verify", func() error { return ir.Verify(res.Prog) }); err != nil {
				return err
			}
			if err := tr.doErr("ir.fprint", func() error { return ir.Fprint(io.Discard, res.Prog) }); err != nil {
				return err
			}
			tr.do("ir.clone", func() { ir.CloneProgram(res.Prog) })
		}
		return nil
	})
	if err != nil {
		return err
	}

	id, err := m.run(0, true, func() error {
		for _, a := range as {
			prog, err := driver.LowerSource(a.Name+".baker", a.Source)
			if err != nil {
				return err
			}
			trc := a.Trace(prog.Types, seed, profileTraceN)
			if err := tr.doErr("profiler.interp", func() error {
				_, err := profiler.ProfileWithControls(prog, trc, a.Controls)
				return err
			}); err != nil {
				return err
			}
			pkts += float64(len(trc))
		}
		return nil
	})
	if err != nil {
		return err
	}
	var interpNs int64
	for _, s := range tr.spans {
		if s.Slice == id && s.Name == "profiler.interp" {
			interpNs += s.End - s.Start
		}
	}
	if interpNs > 0 {
		out["profiler.interp_pkts_per_cs"] = pkts / (float64(interpNs) / 1e9 * m.slices[id].factor)
	}
	return nil
}

// sessionProbes measures what compile_incr's set-up pays once per
// session: NewSession (clone + hash of the base IR) and the cold Compile
// that fills the cache.
func sessionProbes(s *incrState, m *meter, tr *tracer, out map[string]float64) error {
	_, err := m.run(0, true, func() error {
		for _, ia := range s.apps {
			prog, err := driver.LowerSource(ia.app.Name+".baker", ia.app.Source)
			if err != nil {
				return err
			}
			var sess *driver.Session
			tr.do("driver.session.new", func() { sess, err = driver.NewSession(prog, ia.cfg) })
			if err != nil {
				return err
			}
			if err := tr.doErr("driver.session.cold", func() error {
				_, err := sess.Compile()
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the cumulative bytes the Go heap has allocated.
func allocBytes() float64 {
	metrics.Read(allocSample)
	return float64(allocSample[0].Value.Uint64())
}
