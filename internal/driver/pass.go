package driver

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
	"shangrila/internal/opt"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
)

// FactKind identifies one cached analysis result in the compilation fact
// base. A pass reads a fact through the Context accessors, which log the
// read; the log is what an incremental Session keys the pass's reuse on.
type FactKind int

const (
	// FactProfile is the functional profiler's Stats. It is produced by
	// the profile pass, together with its views FactWeights and
	// FactSWCSelection (there is no on-demand provider: profiling needs
	// the configured trace and control calls).
	FactProfile FactKind = iota
	// FactSOAR is the whole-program SOAR analysis. Context.SOAR computes
	// it on demand (soar.Analyze, which also annotates the IR in place).
	FactSOAR
	// FactPlan is the aggregation plan together with its channel
	// classification, produced by the aggregate pass.
	FactPlan
	// FactWeights is the view of the profile that aggregation reads
	// (profiler.Weights: packets, per-function counts, channel traffic).
	FactWeights
	// FactSWCSelection is the view of the profile that SWC reads: the
	// candidates swc.SelectCandidates picks from it, each a global with its
	// check limit and estimated hit rate.
	FactSWCSelection
	numFacts
)

var factNames = [...]string{"profile", "soar", "plan", "weights", "swc_selection"}

// profileFacts are the profile and the views published with it.
var profileFacts = [...]FactKind{FactProfile, FactWeights, FactSWCSelection}

func (k FactKind) String() string {
	if k < 0 || int(k) >= len(factNames) {
		return fmt.Sprintf("fact(%d)", int(k))
	}
	return factNames[k]
}

// facts is the typed analysis-fact cache threaded through a compilation.
// It replaces the ad-hoc locals the monolithic pipeline used to hand from
// stage to stage.
type facts struct {
	valid   [numFacts]bool
	profile *profiler.Stats
	weights *profiler.Weights
	swcSel  *swcSelection
	soar    *soar.Stats
	plan    *aggregate.Plan
	classes map[*types.Channel]aggregate.ChannelClass
}

// swcSelection is the FactSWCSelection value. The candidates are shared by
// every compile that reads the fact, so nothing writes them: swc.Apply
// works on copies.
type swcSelection struct{ cands []*swc.Candidate }

// Context is the state a Pass operates on: the whole program, the merged
// per-aggregate programs once the merge pass has run, the running pass's
// report fields and the fact base.
type Context struct {
	Cfg    Config
	Prog   *ir.Program
	Merged []*aggregate.Merged
	// Report holds only the fields the running pass writes: it is empty
	// when the pass starts, and the runner assembles the compile's Report
	// from every pass's fields (runner.result).
	Report *Report
	// Image is set by the codegen pass; it too is the running pass's only.
	Image *cg.Image

	facts facts
	reg   *metrics.Registry
	// pass names the running pass, for the metrics its helpers record.
	pass string

	// factReads logs which facts the running pass consulted through the
	// typed accessors; runPass clears it. The incremental Session records
	// it with each pass result, so reuse is keyed to the exact fact values
	// a pass observed.
	factReads [numFacts]bool
	// profiles is the profiler state a Session keeps between compiles, for
	// the profile pass; nil outside a Session, where every profile is a
	// full one.
	profiles *profileState
}

// noteFactRead logs a read of fact k by the running pass.
func (ctx *Context) noteFactRead(k FactKind) {
	ctx.factReads[k] = true
}

// Profile returns the cached profiler stats (nil before the profile pass
// has run). A pass that reads less of the profile reads a view instead
// (Weights, SWCSelection), so that a session re-runs it only when that
// view changed.
func (ctx *Context) Profile() *profiler.Stats {
	ctx.noteFactRead(FactProfile)
	return ctx.facts.profile
}

// Weights returns the profile's weights, the view aggregation reads.
func (ctx *Context) Weights() *profiler.Weights {
	ctx.noteFactRead(FactWeights)
	return ctx.facts.weights
}

// SWCSelection returns the software-cache candidates selected from the
// profile, the view SWC reads. They must not be written.
func (ctx *Context) SWCSelection() []*swc.Candidate {
	ctx.noteFactRead(FactSWCSelection)
	if ctx.facts.swcSel == nil {
		return nil
	}
	return ctx.facts.swcSel.cands
}

// SetProfile installs the profiler stats fact and its weights view.
func (ctx *Context) SetProfile(s *profiler.Stats) {
	ctx.facts.profile, ctx.facts.weights = s, &s.Weights
	ctx.publish(FactProfile)
	ctx.publish(FactWeights)
}

// SetSWCSelection installs the SWC candidate selection view of the profile.
func (ctx *Context) SetSWCSelection(cands []*swc.Candidate) {
	ctx.facts.swcSel = &swcSelection{cands: cands}
	ctx.publish(FactSWCSelection)
}

// publish marks a fact just installed valid.
func (ctx *Context) publish(k FactKind) {
	ctx.facts.valid[k] = true
}

// SOAR returns the whole-program SOAR facts, analyzing (and annotating the
// IR) on demand when the cache holds none.
func (ctx *Context) SOAR() *soar.Stats {
	ctx.noteFactRead(FactSOAR)
	if !ctx.facts.valid[FactSOAR] {
		ctx.facts.soar = soar.Analyze(ctx.Prog)
		ctx.facts.valid[FactSOAR] = true
	}
	return ctx.facts.soar
}

// SOARIfValid returns the cached SOAR facts without computing them: nil at
// levels whose pipeline never analyzes (the code generator passes nil on).
// The read is logged like any other, so incremental reuse keys on it.
func (ctx *Context) SOARIfValid() *soar.Stats {
	ctx.noteFactRead(FactSOAR)
	if !ctx.facts.valid[FactSOAR] {
		return nil
	}
	return ctx.facts.soar
}

// Plan returns the aggregation plan and channel classification facts.
func (ctx *Context) Plan() (*aggregate.Plan, map[*types.Channel]aggregate.ChannelClass) {
	ctx.noteFactRead(FactPlan)
	return ctx.facts.plan, ctx.facts.classes
}

// SetPlan installs the aggregation facts.
func (ctx *Context) SetPlan(p *aggregate.Plan, classes map[*types.Channel]aggregate.ChannelClass) {
	ctx.facts.plan = p
	ctx.facts.classes = classes
	ctx.publish(FactPlan)
}

// optimize runs the scalar optimizer for the running pass and records how
// its fixpoint iteration went: the round cap is a silent stop otherwise.
func (ctx *Context) optimize(p *ir.Program, o opt.Options) {
	st := opt.Optimize(p, o)
	if !o.Scalar {
		return
	}
	if g := ctx.reg.Gauge(metrics.PassOptRoundsMax(ctx.pass)); float64(st.RoundsMax) > g.Value() {
		g.Set(float64(st.RoundsMax))
	}
	ctx.reg.Counter(metrics.PassOptRounds(ctx.pass)).Add(int64(st.Rounds))
	ctx.reg.Counter(metrics.PassOptUnconverged(ctx.pass)).Add(int64(st.Unconverged))
}

// Pass is one stage of the compilation pipeline. What it depends on is
// what its Run reads: the IR, and the facts it consults through the Context
// accessors, which log each read.
type Pass interface {
	// Name is the stable pass identifier used in Report.Passes, metrics
	// names and -dump-ir selection.
	Name() string
	Run(*Context) error
}

// afterSizer lets a pass report a different "after" size than the IR
// instruction count (codegen reports generated CGIR instructions).
type afterSizer interface {
	AfterSize(*Context) int
}

// PipelineFor builds the pipeline for a configuration, in the paper's
// Figure 5 order: every pass the level enables, with its flags set from the
// level.
func PipelineFor(cfg Config) []Pass {
	l := cfg.Level
	ps := []Pass{
		profilePass{swc: cfg.swcConfig()},
		inlineScalarPass{scalar: l >= LevelO1},
	}
	if l >= LevelPAC {
		ps = append(ps, soarPass{}, pacPass{scalar: l >= LevelO1})
	}
	ps = append(ps,
		aggregatePass{cfg: cfg.aggConfig()},
		mergePass{},
		aggOptPass{scalar: l >= LevelO1, pac: l >= LevelPAC})
	if l >= LevelPHR {
		ps = append(ps, phrPass{})
	}
	if l >= LevelSWC {
		ps = append(ps, swcPass{cfg: cfg.swcConfig()})
	}
	return append(ps,
		finalOptPass{scalar: l >= LevelO1, phrCombine: l >= LevelPHR, annotate: l >= LevelPAC},
		codegenPass{opts: cg.Options{O2: l >= LevelO2, SOAR: l >= LevelSOAR, PHR: l >= LevelPHR, SWC: l >= LevelSWC}})
}

// PassNames returns every pass name in pipeline order: the +SWC pipeline
// schedules them all.
func PassNames() []string {
	ps := PipelineFor(Config{Level: LevelSWC})
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name()
	}
	return names
}

// CheckDumpPass rejects a Config.DumpPass that names no pass, so a misspelt
// -dump-ir fails instead of silently dumping nothing. Empty (no dump) and
// "all" are valid.
func CheckDumpPass(pass string) error {
	names := PassNames()
	if pass == "" || pass == "all" || slices.Contains(names, pass) {
		return nil
	}
	return fmt.Errorf("driver: unknown dump pass %q (valid: all, %s)", pass, strings.Join(names, ", "))
}

// checkConfig is the configuration check of every entry point (CompileIR,
// NewSession, NewLadder): the dump pass must exist (CheckDumpPass), and so
// must each level compiled, one of Levels().
func checkConfig(dumpPass string, levels ...Level) error {
	if err := CheckDumpPass(dumpPass); err != nil {
		return err
	}
	for _, l := range levels {
		if l < LevelBase || l > LevelSWC {
			return fmt.Errorf("driver: unknown level %v (valid: %v)", l, Levels())
		}
	}
	return nil
}

// VerifyMode controls post-pass IR verification.
type VerifyMode int

const (
	// VerifyAuto verifies when the process is a `go test` binary and
	// skips verification otherwise (the default: tests always check
	// every pass, production compiles stay fast).
	VerifyAuto VerifyMode = iota
	// VerifyOn always verifies after every pass.
	VerifyOn
	// VerifyOff never verifies.
	VerifyOff
)

func (m VerifyMode) enabled() bool {
	switch m {
	case VerifyOn:
		return true
	case VerifyOff:
		return false
	}
	return testing.Testing()
}

// passOut is what one pass execution produced: its report row, the report
// fields it wrote and the image, if it made one. A Session holds it with the
// pass's result and a Ladder fork the outputs of the passes before it; a
// compile that takes one over appends it with its row marked Skipped.
type passOut struct {
	row    PassTiming
	report Report
	image  *cg.Image
}

// skipped is the output as a compile that took it over reports it: the
// sizes are the held ones, and the row carries no time.
func (o passOut) skipped() passOut {
	o.row.Nanos, o.row.VerifyNanos, o.row.Skipped = 0, 0, true
	return o
}

// runner executes a pipeline over a Context: per-pass timing, IR size
// deltas, post-pass verification, metrics and dump hooks.
type runner struct {
	ctx    *Context
	verify bool
	// outs holds every pass's output, in pipeline order, the passes taken
	// over from a held result included; result assembles the Report from
	// it. Ladder rungs and Sessions size it for the whole pipeline: growing
	// it by append made a recompile measurably slower.
	outs []passOut
	// store, when set (under test), checks after each pass that it wrote
	// no frozen function in place.
	store *storeCheck
	// dumpSeq numbers dump files so pipeline order survives in a listing.
	dumpSeq int
}

func newRunner(prog *ir.Program, cfg Config) *runner {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &runner{
		ctx:    &Context{Cfg: cfg, Prog: prog, reg: reg},
		verify: cfg.VerifyIR.enabled(),
	}
}

// size counts whole-program IR instructions: the top-level program plus
// every merged aggregate body.
func (r *runner) size() int {
	n := irSize(r.ctx.Prog)
	for _, m := range r.ctx.Merged {
		n += irSize(m.Prog)
	}
	return n
}

// runPass executes one pass: run it with a fresh read log, verify, record
// timing and metrics, dump when selected. All within the pass's timed
// window except verification, which is accounted separately. The pass
// writes its report fields and image into an output of its own, appended
// to r.outs.
func (r *runner) runPass(p Pass) error {
	ctx := r.ctx
	name := p.Name()
	r.outs = append(r.outs, passOut{})
	out := &r.outs[len(r.outs)-1]
	ctx.Report, ctx.Image = &out.report, nil
	ctx.factReads = [numFacts]bool{}
	before := r.size()
	t0 := time.Now()
	ctx.pass = name
	err := p.Run(ctx)
	if r.store != nil {
		r.store.verify(name, appendPrograms(nil, ctx.Prog, ctx.Merged))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	nanos := time.Since(t0).Nanoseconds()

	after := r.size()
	if s, ok := p.(afterSizer); ok {
		after = s.AfterSize(ctx)
	}

	var verifyNanos int64
	if r.verify {
		v0 := time.Now()
		if err := r.verifyIR(); err != nil {
			return fmt.Errorf("after %s: IR verification failed: %w", name, err)
		}
		verifyNanos = time.Since(v0).Nanoseconds()
	}

	out.row = PassTiming{
		Pass:         name,
		Nanos:        nanos,
		InstrsBefore: before,
		InstrsAfter:  after,
		VerifyNanos:  verifyNanos,
	}
	out.image = ctx.Image
	r.reg().Counter(metrics.PassRuns(name)).Inc()
	r.reg().Counter(metrics.PassNanos(name)).Add(nanos)
	r.reg().Counter(metrics.PassVerifyNanos(name)).Add(verifyNanos)
	r.reg().Gauge(metrics.PassSizeDelta(name)).Set(float64(after - before))

	if err := r.dump(name); err != nil {
		return fmt.Errorf("%s: dump: %w", name, err)
	}
	return nil
}

func (r *runner) reg() *metrics.Registry { return r.ctx.reg }

// result closes one level's compile. It is the one place a Report is
// built: from the pass outputs in pipeline order, the rows, each output's
// fields and the last image. The SOAR statistics are published here, by
// level, not by the soar pass: whether the report shows them is the only
// thing that would tell the +PAC pipeline from the +SOAR one before
// codegen, and the level ladder runs what two levels share once.
func (r *runner) result() *Result {
	ctx := r.ctx
	rep := &Report{Level: ctx.Cfg.Level, Passes: make([]PassTiming, len(r.outs))}
	var img *cg.Image
	for i := range r.outs {
		o := &r.outs[i]
		rep.Passes[i] = o.row
		rep.take(&o.report)
		if o.image != nil {
			img = o.image
		}
	}
	if rep.Level < LevelSOAR {
		rep.SOAR = nil
	}
	rep.Metrics = r.reg().Snapshot()
	return &Result{Image: img, Prog: ctx.Prog, Report: rep, Merged: ctx.Merged}
}

// verifyIR checks the whole program and every merged aggregate body.
func (r *runner) verifyIR() error {
	if err := ir.Verify(r.ctx.Prog); err != nil {
		return err
	}
	for i, m := range r.ctx.Merged {
		if err := ir.Verify(m.Prog); err != nil {
			return fmt.Errorf("aggregate %d (%v): %w", i, m.Agg.PPFs, err)
		}
	}
	return nil
}

// dump prints the current IR when the pass matches Config.DumpPass ("all"
// selects every pass). With DumpDir set, each pass writes one file named
// <prefix>-<seq>-<pass>.ir; otherwise output goes to DumpWriter (default
// stdout).
func (r *runner) dump(pass string) error {
	cfg := r.ctx.Cfg
	if cfg.DumpPass == "" || (cfg.DumpPass != "all" && cfg.DumpPass != pass) {
		return nil
	}
	prefix := cfg.DumpPrefix
	if prefix == "" {
		prefix = "prog"
	}
	var w io.Writer
	var closer io.Closer
	if cfg.DumpDir != "" {
		if err := os.MkdirAll(cfg.DumpDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(cfg.DumpDir,
			fmt.Sprintf("%s-%02d-%s.ir", prefix, r.dumpSeq, pass)))
		if err != nil {
			return err
		}
		w = f
		closer = f
	} else if cfg.DumpWriter != nil {
		w = cfg.DumpWriter
	} else {
		w = os.Stdout
	}
	r.dumpSeq++
	err := writeDump(w, pass, prefix, r.ctx)
	if closer != nil {
		if cerr := closer.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeDump renders one dump point: the whole program, then every merged
// aggregate body, all in deterministic order (ir.Fprint).
func writeDump(w io.Writer, pass, prefix string, ctx *Context) error {
	if _, err := fmt.Fprintf(w, ";; %s after pass %s\n", prefix, pass); err != nil {
		return err
	}
	if err := ir.Fprint(w, ctx.Prog); err != nil {
		return err
	}
	for i, m := range ctx.Merged {
		if _, err := fmt.Fprintf(w, ";; aggregate %d (%s) %v\n",
			i, m.Agg.Target, m.Agg.PPFs); err != nil {
			return err
		}
		if err := ir.Fprint(w, m.Prog); err != nil {
			return err
		}
	}
	return nil
}
