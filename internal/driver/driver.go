// Package driver assembles the full Shangri-La compilation pipeline of
// Figure 5: parse → type check → lower → functional profiling → scalar
// optimization and inlining → PAC → SOAR → aggregation → per-aggregate
// merging → PHR → SWC → code generation. The optimization level axis
// matches the paper's evaluation (§6.2): BASE < -O1 < -O2 < +PAC < +SOAR
// < +PHR < +SWC, cumulative.
//
// The pipeline is a pass manager: each stage is a Pass that reads a typed
// fact base (profile stats, SOAR facts, aggregation plan) through logged
// accessors, and CompileIR runs the per-Level pipeline PipelineFor lists.
// After every pass the manager can verify IR invariants (Config.VerifyIR —
// on by default under `go test`), records per-pass time/size-delta/verify-
// time through internal/metrics, and can dump any stage's IR
// (Config.DumpPass).
package driver

import (
	"bytes"
	"cmp"
	"fmt"
	"io"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/metrics"
	"shangrila/internal/opt/pac"
	"shangrila/internal/opt/phr"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// Level is the cumulative optimization level.
type Level int

// Optimization levels (each includes all previous ones).
const (
	LevelBase Level = iota
	LevelO1
	LevelO2
	LevelPAC
	LevelSOAR
	LevelPHR
	LevelSWC
)

var levelNames = [...]string{"BASE", "-O1", "-O2", "+PAC", "+SOAR", "+PHR", "+SWC"}

func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return fmt.Sprintf("Level(%d)", int(l))
	}
	return levelNames[l]
}

// Levels lists every level in evaluation order.
func Levels() []Level {
	return []Level{LevelBase, LevelO1, LevelO2, LevelPAC, LevelSOAR, LevelPHR, LevelSWC}
}

// Config parameterizes a compilation.
type Config struct {
	Level Level
	// ProfileTrace drives the Functional profiler. A compile only reads it
	// (the profiler runs a copy of each packet), so one trace can serve any
	// number of compiles — CompileIR calls, a Ladder's levels, every compile
	// of a Session — as long as nobody modifies it meanwhile.
	ProfileTrace []*packet.Packet
	// Controls populate tables before profiling (and are the same calls a
	// deployment makes at boot).
	Controls []profiler.Control
	// Aggregation settings; zero value uses aggregate.DefaultConfig.
	Agg aggregate.Config
	// SWC settings; zero value uses swc.DefaultConfig.
	SWC swc.Config
	// VerifyIR controls post-pass IR verification. The zero value
	// (VerifyAuto) verifies under `go test` and skips otherwise.
	VerifyIR VerifyMode
	// Metrics receives per-pass instrumentation (compile.pass.<name>.*
	// counters and gauges). Nil uses a private registry; either way the
	// collected data is exported in Report.Metrics.
	Metrics *metrics.Registry
	// DumpPass selects a pass after which the whole IR (program plus
	// merged aggregate bodies) is printed; "all" dumps every pass.
	DumpPass string
	// DumpDir writes each dump to <DumpDir>/<DumpPrefix>-<NN>-<pass>.ir.
	// Empty means dumps go to DumpWriter (default os.Stdout).
	DumpDir string
	// DumpWriter receives dumps when DumpDir is empty.
	DumpWriter io.Writer
	// DumpPrefix names dump files (typically the app name and level);
	// empty uses "prog".
	DumpPrefix string
}

// aggConfig resolves the aggregation settings (zero value → defaults).
func (c Config) aggConfig() aggregate.Config {
	if c.Agg.NumMEs == 0 {
		return aggregate.DefaultConfig()
	}
	return c.Agg
}

// swcConfig resolves the SWC settings (zero value → defaults).
func (c Config) swcConfig() swc.Config {
	if c.SWC.MaxLineWords == 0 {
		return swc.DefaultConfig()
	}
	return c.SWC
}

// PassTiming records one Figure-5 pipeline stage: wall-clock time, the
// whole-program IR size before and after (codegen reports CGIR size
// after), and the time spent verifying the result when Config.VerifyIR is
// enabled.
type PassTiming struct {
	Pass         string `json:"pass"`
	Nanos        int64  `json:"nanos"`
	InstrsBefore int    `json:"instrs_before"`
	InstrsAfter  int    `json:"instrs_after"`
	VerifyNanos  int64  `json:"verify_nanos,omitempty"`
	// Skipped marks a pass the compile did not execute: an incremental
	// Session recompile satisfied it from its cache, or a Ladder level
	// took it over from a lower level that ran it. Nanos/VerifyNanos are
	// zero and the sizes are the held result's.
	Skipped bool `json:"skipped,omitempty"`
}

// Report summarizes what the compiler did.
type Report struct {
	Level        Level
	Plan         *aggregate.Plan
	ProfileStats *profiler.Stats
	SOAR         *soar.Stats
	PAC          *pac.Stats
	PHR          *phr.Stats
	SWCCands     []*swc.Candidate
	// CodeSizes per ME aggregate (CGIR instructions).
	CodeSizes []int
	// Passes holds one timing entry per pipeline stage, in pipeline order,
	// the ones the compile took over marked Skipped.
	Passes []PassTiming
	// Metrics is the per-pass instrumentation snapshot
	// (compile.pass.<name>.{runs,nanos,verify_nanos} counters and
	// compile.pass.<name>.size_delta gauges).
	Metrics metrics.Snapshot
}

// take copies into the report the fields one pass's output sets.
func (rep *Report) take(o *Report) {
	rep.Plan = cmp.Or(o.Plan, rep.Plan)
	rep.ProfileStats = cmp.Or(o.ProfileStats, rep.ProfileStats)
	rep.SOAR = cmp.Or(o.SOAR, rep.SOAR)
	rep.PAC = cmp.Or(o.PAC, rep.PAC)
	rep.PHR = cmp.Or(o.PHR, rep.PHR)
	if o.SWCCands != nil {
		rep.SWCCands = o.SWCCands
	}
	if o.CodeSizes != nil {
		rep.CodeSizes = o.CodeSizes
	}
}

// irSize counts IR instructions across every function of a program.
func irSize(p *ir.Program) int {
	if p == nil {
		return 0
	}
	n := 0
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Result bundles everything the runtime needs.
type Result struct {
	Image  *cg.Image
	Prog   *ir.Program // post-optimization whole program (XScale path)
	Report *Report
	// Merged holds the per-aggregate merged programs in final form, so
	// callers can render the complete IR state (DumpIR) — the artifact
	// the incremental-vs-cold differential compares byte for byte.
	Merged []*aggregate.Merged
}

// DumpIR renders the result's final IR — the whole program plus every
// merged aggregate body — in the deterministic -dump-ir format. Two
// compiles that produced semantically identical code produce identical
// bytes.
func (r *Result) DumpIR() ([]byte, error) {
	var b bytes.Buffer
	ctx := &Context{Prog: r.Prog, Merged: r.Merged}
	if err := writeDump(&b, "final", "prog", ctx); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// LowerSource parses, checks and lowers Baker source to IR (the frontend
// half of the pipeline). Callers that need the program's types before
// choosing a profile trace use this, then CompileIR.
func LowerSource(file, src string) (*ir.Program, error) {
	astProg, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	tp, err := types.Check(astProg)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	prog, err := lower.Lower(tp)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return prog, nil
}

// CompileSource runs the full pipeline over Baker source text.
func CompileSource(file, src string, cfg Config) (*Result, error) {
	prog, err := LowerSource(file, src)
	if err != nil {
		return nil, err
	}
	return CompileIR(prog, cfg)
}

// CompileIR runs the pipeline from lowered IR: the per-Level pass sequence
// of PipelineFor, executed by the pass manager with
// post-pass verification, metrics and dump hooks. It is the one-rung level
// ladder, compiled in place: prog is rewritten and becomes Result.Prog.
func CompileIR(prog *ir.Program, cfg Config) (*Result, error) {
	if err := checkConfig(cfg.DumpPass, cfg.Level); err != nil {
		return nil, err
	}
	l := newLadder(prog, cfg, []Level{cfg.Level}, PipelineFor)
	l.inPlace = true
	return l.Compile(cfg.Level)
}
