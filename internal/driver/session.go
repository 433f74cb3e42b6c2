// The incremental compilation service. A Session keeps the typed fact
// base and a short history of results per pass alive across compiles, so
// a control-plane policy delta recompiles in the time of the passes it
// actually invalidated rather than a cold pipeline run. This is the
// compile-server precedent ("A Fast Compiler for NetKAT"): the compiler
// sits in the control loop, so recompilation latency is a data-plane
// metric, not a build step.
//
// Reuse is keyed two ways, both recorded when a pass executes:
//
//   - IR identity: a fingerprint (ir.Hasher) of the whole program plus
//     every merged aggregate body, covering every field a pass can read. A
//     held result is only considered when the IR entering the pass is
//     identical to what it saw when it ran.
//   - Fact reads: the facts the pass consulted, logged through the typed
//     accessors — including the optional SOARIfValid read — each under the
//     key it had then. A key stands for a fact *value*: a producer that
//     re-runs from the state a held run saw, reproduces that run's output
//     IR and computes an equal fact keeps the held key (the early cut-off),
//     so its successors stay reusable although it ran. A pass that needs
//     only part of the profile reads a view of it (FactWeights,
//     FactSWCSelection), a fact keyed by its own value, so a delta that
//     changes the profile but not the view leaves the pass cached. The
//     read log is the only record of the facts a pass depends on.
//
// One rule comes on top of the keys: a delta adds controls, which the
// profile replays, so a held profile applies only at the delta it ran at.
//
// Each pipeline position holds up to keepPerPass results, most recently
// used first, and a compile reuses the first that applies. Under churn the
// aggregation plan and the SWC rewrite flip between a few states, so a
// recompile that returns to one the session already compiled reuses it;
// the cut-off looks through the whole history for the run it reproduced.
//
// Because reuse demands identical inputs, an incremental compile is
// bit-identical to a cold compile of the same configuration — the
// differential tests pin this per app × level and over delta sequences.
package driver

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
	"shangrila/internal/opt/swc"
	"shangrila/internal/profiler"
)

// Delta is one control-plane policy change applied to a Session between
// compiles.
type Delta struct {
	// AddControls appends control calls to the session's Config.Controls
	// (the boot-time table population the profiler replays).
	AddControls []profiler.Control
}

// factRead records how one fact looked when a pass consulted it: absent,
// or present under a key (see factState). val is the value itself, which
// the test-time cut-off check compares with the one a reuse would see.
type factRead struct {
	read  bool
	valid bool
	key   any
	val   any
}

// factState is the fact base at one position of a session's walk down the
// pipeline, with the key each fact is compared under. A key is the first
// object that carried the fact's value: a fresh fact is its own key, and
// one that an early cut-off found equal to a held fact takes over the held
// fact's key.
type factState struct {
	facts
	key [numFacts]any
}

// snapshot is a cached compilation state: the working IR (program + merged
// aggregate views) and the fact base. Fact values are shared by pointer
// (producers never mutate a published fact). The IR is frozen
// (ir.Program.Freeze): its functions are shared with the working state it
// was taken from and with every state forked from it, and a pass that
// writes one writes a private copy, so neither later passes nor callers can
// disturb a snapshot. That is also what lets several snapshots of one state
// share it (withFacts).
type snapshot struct {
	prog   *ir.Program
	merged []*aggregate.Merged
	facts  facts
}

// capture snapshots ctx's working state, freezing its functions.
func capture(ctx *Context) *snapshot {
	return &snapshot{prog: ctx.Prog.Freeze(), merged: freezeMerged(ctx.Merged), facts: ctx.facts}
}

// withFacts is the snapshot's IR under another fact base.
func (s *snapshot) withFacts(f facts) *snapshot {
	return &snapshot{prog: s.prog, merged: s.merged, facts: f}
}

// fork gives ctx a writable view of the snapshot's IR: programs of its own
// over the snapshot's frozen functions. The fact base is the caller's to
// install.
func (s *snapshot) fork(ctx *Context) {
	ctx.Prog = s.prog.Freeze()
	ctx.Merged = freezeMerged(s.merged)
}

// freezeMerged freezes the merged views' programs and returns views of
// their own over them. The Merged structs are copies too: a view's
// aggregate is rebound when a fork is handed out (materialize).
func freezeMerged(ms []*aggregate.Merged) []*aggregate.Merged {
	if ms == nil {
		return nil
	}
	out := make([]*aggregate.Merged, len(ms))
	for i, m := range ms {
		cp := *m
		cp.Prog = m.Prog.Freeze()
		out[i] = &cp
	}
	return out
}

// appendPrograms appends the programs of one IR state to out.
func appendPrograms(out []*ir.Program, prog *ir.Program, merged []*aggregate.Merged) []*ir.Program {
	out = append(out, prog)
	for _, m := range merged {
		out = append(out, m.Prog)
	}
	return out
}

// passEntry is one held pass execution. It is never written once made.
type passEntry struct {
	inputHash  uint64
	outputHash uint64
	// reads holds, for each fact the pass consulted, the state it observed.
	reads [numFacts]factRead
	// produced marks facts this execution computed (an on-demand SOAR
	// analysis included), key the key each was published under. The values
	// themselves are in snap.facts.
	produced [numFacts]bool
	key      [numFacts]any
	// seq is the delta sequence number the pass executed at.
	seq  uint64
	snap *snapshot
	// out is the pass's output, which a compile reusing the execution
	// reports (the pass's own fields only: an output held from another
	// compile says nothing of what earlier passes report in this one).
	out passOut
}

// keepPerPass is how many results a Session holds per pipeline position.
// Under churn the plan and the SWC rewrite flip between two or three
// states. The profile position's history also keeps the keys of its
// views, so a longer one lets a candidate selection that returns after a
// few deltas find its key again: on the benchmark's seed-1 stream swc
// executes 36 times in 240 recompiles holding one result per position,
// 22 holding two, 9 holding three and 5 holding four
// (TestSessionStreamCensus).
const keepPerPass = 4

// Session is a long-lived incremental compiler for one program at one
// configuration. It retains the fact base and a few snapshots per pass
// across compiles; Recompile applies a policy delta and re-runs only the
// passes whose inputs — IR, consulted fact values, or the controls a profile
// saw — match none of the held results. Not safe for concurrent use.
type Session struct {
	cfg Config
	// pipeline is built once: the fields that shape it (Level, Agg, SWC)
	// never change after NewSession.
	pipeline []Pass
	base     *snapshot // pristine lowered IR, forked per compile
	baseHash uint64
	hasher   ir.Hasher
	store    *storeCheck // nil outside tests
	reg      *metrics.Registry

	// entries holds, per pipeline position, its results most recently used
	// first, at most keepPerPass. A list is replaced, never written in
	// place, so a failed Recompile restores the history by restoring the
	// outer slice.
	entries [][]*passEntry
	// deltaSeq numbers Delta applications.
	deltaSeq uint64
	prof     profileState
	// outs has room for the pipeline's outputs; each compile's runner
	// reuses it, since the result copies out what it reports.
	outs []passOut
}

// NewSession clones prog into a pristine base and prepares an incremental
// session. The session owns a registry that accumulates compile.pass.*
// and compile.session.* counters across compiles (Report.Metrics).
func NewSession(prog *ir.Program, cfg Config) (*Session, error) {
	if err := checkConfig(cfg.DumpPass, cfg.Level); err != nil {
		return nil, err
	}
	// The session appends each delta's controls to a list of its own.
	cfg.Controls = slices.Clone(cfg.Controls)
	pipeline := PipelineFor(cfg)
	s := &Session{
		cfg:      cfg,
		pipeline: pipeline,
		base:     &snapshot{prog: ir.CloneProgram(prog).Freeze()},
		store:    newStoreCheck(cfg),
		reg:      metrics.NewRegistry(),
		entries:  make([][]*passEntry, len(pipeline)),
		prof:     profileState{full: "cold"},
		outs:     make([]passOut, 0, len(pipeline)),
	}
	s.baseHash = hashState(&s.hasher, s.base.prog, nil)
	return s, nil
}

// Config returns the session's current configuration (Controls grow as
// deltas are applied). Its Controls are clipped, so appending to them
// copies them and never reaches the session's.
func (s *Session) Config() Config {
	cfg := s.cfg
	cfg.Controls = slices.Clip(cfg.Controls)
	return cfg
}

// DeltaError is a Delta a Session refused before applying it: a control it
// adds is not one of the program's control functions or has the wrong
// number of arguments. The session is left as it was.
type DeltaError struct {
	// Control names the refused control call.
	Control string
	Reason  string
}

func (e *DeltaError) Error() string {
	return fmt.Sprintf("driver: delta control %q: %s", e.Control, e.Reason)
}

// checkDelta refuses a delta the session could not apply: every control
// must name a control function of the program and pass one word per
// parameter.
func (s *Session) checkDelta(d Delta) error {
	for _, c := range d.AddControls {
		fn := s.base.prog.Func(c.Name)
		switch {
		case fn == nil || fn.Kind != ir.FuncControl:
			return &DeltaError{Control: c.Name, Reason: "no such control function"}
		case len(c.Args) != len(fn.Params):
			return &DeltaError{Control: c.Name,
				Reason: fmt.Sprintf("%d arguments for %d parameters", len(c.Args), len(fn.Params))}
		}
	}
	return nil
}

// Recompile applies a policy delta and compiles, reusing every held pass
// result whose inputs match the compile's. A delta checkDelta refuses is a
// *DeltaError; one whose compile fails (a control that faults when the
// profiler replays it, say) is rolled back. Either way the session is left
// as it was — configuration, delta sequence and history — and compiles the
// next delta as if this one had never been offered. The kept profiler state
// is the exception: it is dropped, and the next profile is a full one.
func (s *Session) Recompile(d Delta) (*Result, error) {
	if err := s.checkDelta(d); err != nil {
		return nil, err
	}
	cfg, seq, entries := s.cfg, s.deltaSeq, slices.Clone(s.entries)
	s.deltaSeq++
	// The list is the session's own and handed out clipped, so the entries
	// past its length are no one else's; a rollback restores the length.
	s.cfg.Controls = append(s.cfg.Controls, d.AddControls...)
	res, err := s.Compile()
	if err != nil {
		s.cfg, s.deltaSeq, s.entries = cfg, seq, entries
		s.prof.drop("rollback")
	}
	return res, err
}

// Compile runs the session's pipeline. The first call is a cold compile
// that populates the history; later calls walk the pipeline reusing held
// results until an input matches none, re-execute from there (with
// post-pass IR verification exactly as a cold compile), and re-attach to
// the history as soon as the state converges with a held one — e.g. a
// delta re-profiles, reuses the untouched scalar/SOAR/PAC transforms,
// re-aggregates only if no held run read equal weights and re-runs SWC only
// if none read an equal candidate selection, and when both were read runs
// nothing else.
func (s *Session) Compile() (*Result, error) {
	s.checkHeld()
	r := newRunner(nil, s.cfg, s.reg)
	r.store, r.outs = s.store, s.outs[:0]
	ctx := r.ctx
	ctx.profiles = &s.prof
	s.prof.seq = s.deltaSeq

	// The walk: live is the fact base at the current position, cur the
	// cached IR there and curHash its fingerprint; materialized says ctx
	// holds a fork of cur.
	var live factState
	cur, curHash := s.base, s.baseHash
	materialized, reused := false, false

	for i, p := range s.pipeline {
		held := s.entries[i]
		hit, why := s.lookup(held, curHash, &live)
		if hit >= 0 {
			old := held[hit]
			if hit > 0 {
				s.entries[i] = promote(held, old, hit)
				s.reg.Counter(metrics.SessionHistoryHits).Inc()
			}
			if cutoffCheck {
				s.checkCutoff(p, old, cur, &live)
			}
			// Skip: replay the held result's effects.
			live.replay(old)
			r.outs = append(r.outs, old.out.skipped())
			cur, curHash, materialized = old.snap, old.outputHash, false
			s.reg.Counter(metrics.PassSkips(old.out.row.Pass)).Inc()
			reused = true
			continue
		}
		s.reg.Counter(metrics.PassRerun(p.Name(), why)).Inc()

		if !materialized {
			materialize(ctx, cur, &live)
			materialized = true
		}
		ctx.facts = live.facts

		pre := live
		if err := r.runPass(p); err != nil {
			return nil, err
		}

		ent := &passEntry{
			inputHash:  curHash,
			outputHash: hashState(&s.hasher, ctx.Prog, ctx.Merged),
			seq:        s.deltaSeq,
			out:        r.outs[len(r.outs)-1],
		}
		live.facts = ctx.facts
		for k := FactKind(0); k < numFacts; k++ {
			val := factVal(&live.facts, k)
			if live.valid[k] && (!pre.valid[k] || val != factVal(&pre.facts, k)) {
				ent.produced[k] = true
				live.key[k] = val
			} else if ctx.factReads[k] {
				ent.reads[k] = factRead{read: true, valid: pre.valid[k], key: pre.key[k], val: factVal(&pre.facts, k)}
			}
		}
		repl := cutoff(held, ent, &live)
		ent.key = live.key
		// A state already held is not captured again.
		if j := slices.IndexFunc(held, func(e *passEntry) bool { return e.outputHash == ent.outputHash }); j >= 0 {
			ent.snap = held[j].snap.withFacts(live.facts)
		} else if ent.outputHash == curHash {
			ent.snap = cur.withFacts(live.facts)
		} else {
			ent.snap = capture(ctx)
			s.store.pin(ent.snap)
		}
		if repl >= 0 {
			s.reg.Counter(metrics.SessionCutoffs).Inc()
		}
		s.entries[i] = promote(held, ent, repl)
		cur, curHash = ent.snap, ent.outputHash
	}

	if !materialized {
		// The compile ended on a cached pass (possibly a full cache hit):
		// hand out a fork, whose frozen functions a caller can only write
		// through ir.Program.Edit, that is, by copying them.
		materialize(ctx, cur, &live)
	}
	for i := range r.outs {
		if o := &r.outs[i]; o.image != nil && o.row.Skipped && live.valid[FactPlan] {
			o.image = rebindImage(o.image, live.plan, ctx.Merged)
		}
	}
	if reused {
		s.reg.Counter(metrics.SessionIncremental).Inc()
	}
	s.reg.Counter(metrics.SessionCompiles).Inc()

	return r.result(), nil
}

// profileState is the profiler state a Session keeps between compiles: a
// profiler.Incremental, keyed by the number of controls it has applied
// (Config.Controls only grows; a rolled-back Recompile, which shrinks it,
// drops the state). It needs no key for the IR: the profile pass is the
// pipeline's first, so it always profiles the session's base. A failed
// profile and a rollback drop the state, and the next profile is a full one
// that keeps a new state. The session's first profile is a plain
// ProfileWithControls that keeps none, so that a session that never
// recompiles pays nothing for the state.
type profileState struct {
	inc *profiler.Incremental
	seq uint64 // the delta sequence number, set by Compile
	// full says why the next profile is a full one while inc is nil (the
	// reason label of metrics.ProfileFull); keep, whether it keeps a state.
	full string
	keep bool
}

// drop forgets the kept state, saying why; the first reason stands.
func (ps *profileState) drop(why string) {
	if ps.inc != nil {
		ps.inc, ps.full = nil, why
	}
}

// profile is the profile pass's profile in a Session: incremental on the
// kept state when there is one, and otherwise a full one that keeps a new
// state. Every decision is recorded in the session's registry. Under
// `go test` every profile is also checked against a full
// ProfileWithControls.
func (ps *profileState) profile(ctx *Context) (*profiler.Stats, error) {
	cfg := &ctx.Cfg
	var st *profiler.Stats
	var err error
	switch {
	case ps.inc == nil && !ps.keep:
		ctx.reg.Counter(metrics.ProfileFull(ps.full)).Inc()
		ps.keep = true
		if st, err = profiler.ProfileWithControls(ctx.Prog, cfg.ProfileTrace, cfg.Controls); err != nil {
			ps.full = "error"
			return nil, err
		}
		return st, nil
	case ps.inc == nil:
		ctx.reg.Counter(metrics.ProfileFull(ps.full)).Inc()
		// A program of its own: later passes install their copies of the
		// functions they rewrite in ctx.Prog.
		if ps.inc, st, err = profiler.NewIncremental(ctx.Prog.Freeze(), cfg.ProfileTrace, cfg.Controls); err != nil {
			ps.full = "error"
			return nil, err
		}
	default:
		if st, err = ps.inc.Profile(cfg.Controls); err != nil {
			ps.drop("error")
			return nil, err
		}
		n := ps.inc.Reinterpreted
		ctx.reg.Counter(metrics.ProfilePacketsReinterpreted).Add(int64(n))
		ctx.reg.Counter(metrics.ProfilePacketsReused).Add(int64(len(cfg.ProfileTrace) - n))
		ctx.reg.Counter(metrics.ProfilePacketsChecked).Add(int64(ps.inc.Checked))
	}
	if cutoffCheck {
		checkProfile(ctx, st, ps.seq)
	}
	return st, nil
}

// checkProfile is the test-time proof that a Session's profile is the full
// profile: it profiles again with ProfileWithControls and panics, naming
// the delta and the first count that differs, unless the two are Equal.
func checkProfile(ctx *Context, st *profiler.Stats, seq uint64) {
	full, err := profiler.ProfileWithControls(ctx.Prog, ctx.Cfg.ProfileTrace, ctx.Cfg.Controls)
	if err != nil {
		panic(fmt.Sprintf("driver: the session profiled delta %d, a full profile fails: %v", seq, err))
	}
	if !st.Equal(full) {
		panic(fmt.Sprintf("driver: the session's profile after delta %d differs from a full profile in %s", seq, st.Diff(ctx.Prog, full)))
	}
}

// checkHeld verifies, before a compile, every frozen function the
// session's states hold: a caller holding a result can reach them
// (storeCheck.verify).
func (s *Session) checkHeld() {
	if s.store == nil {
		return
	}
	progs := appendPrograms(nil, s.base.prog, nil)
	for _, held := range s.entries {
		for _, ent := range held {
			progs = appendPrograms(progs, ent.snap.prog, ent.snap.merged)
		}
	}
	s.store.verify("", progs)
}

// lookup returns the index of the first held result that applies at the
// current walk state, or -1 and why the pass has to run: "cold" when
// nothing is held, else the reason the most recent result does not apply.
func (s *Session) lookup(held []*passEntry, curHash uint64, live *factState) (int, string) {
	why := "cold"
	for j, ent := range held {
		r := s.rerunReason(ent, curHash, live)
		if r == "" {
			return j, ""
		}
		if j == 0 {
			why = r
		}
	}
	return -1, why
}

// rerunReason decides whether a held pass execution applies at the current
// walk state — identical input IR, the consulted facts under the keys it
// saw, and, for a profile, no delta since it ran — and returns "" when it
// does, else why the pass has to run (the reason label of
// metrics.PassRerun).
func (s *Session) rerunReason(ent *passEntry, curHash uint64, live *factState) string {
	if ent.inputHash != curHash {
		return "ir"
	}
	for k, rd := range ent.reads {
		if rd.read && (rd.valid != live.valid[k] || rd.valid && rd.key != live.key[k]) {
			return "fact_" + FactKind(k).String()
		}
	}
	if ent.produced[FactProfile] && ent.seq < s.deltaSeq {
		return "controls"
	}
	return ""
}

// cutoff is the early cut-off of a pass that just executed into ent: each
// fact it produced that equals one a held run produced from the same input
// IR to the same output IR takes that run's key in live, so the held
// results downstream that read it apply again. It returns the index of the
// held run every produced fact of which was reproduced, the one ent
// replaces, or -1.
func cutoff(held []*passEntry, ent *passEntry, live *factState) int {
	var adopted [numFacts]bool
	for j, e := range held {
		if e.inputHash != ent.inputHash || e.outputHash != ent.outputHash {
			continue
		}
		all := true
		for k := FactKind(0); k < numFacts; k++ {
			switch {
			case !ent.produced[k]:
			case e.produced[k] && sameFact(k, factVal(&live.facts, k), factVal(&e.snap.facts, k)):
				if !adopted[k] {
					live.key[k], adopted[k] = e.key[k], true
				}
			default:
				all = false
			}
		}
		if all {
			return j
		}
	}
	return -1
}

// promote returns a new history for one position: ent first, then the
// held results but the one at index drop (none when drop is -1), at most
// keepPerPass in all. held itself is left as it was.
func promote(held []*passEntry, ent *passEntry, drop int) []*passEntry {
	next := make([]*passEntry, 1, min(len(held)+1, keepPerPass))
	next[0] = ent
	for j, e := range held {
		if j != drop && len(next) < keepPerPass {
			next = append(next, e)
		}
	}
	return next
}

// replay applies a held pass's fact-base effects to the walk state:
// produced facts install their cached values and keys, and everything else
// is untouched.
func (live *factState) replay(ent *passEntry) {
	after := &ent.snap.facts
	for k := FactKind(0); k < numFacts; k++ {
		if !ent.produced[k] {
			continue
		}
		live.valid[k] = true
		live.key[k] = ent.key[k]
		switch k {
		case FactProfile:
			live.profile = after.profile
		case FactWeights:
			live.weights = after.weights
		case FactSWCSelection:
			live.swcSel = after.swcSel
		case FactSOAR:
			live.soar = after.soar
		case FactPlan:
			live.plan, live.classes = after.plan, after.classes
		}
	}
}

// factVal returns a fact's current value.
func factVal(f *facts, k FactKind) any {
	switch k {
	case FactProfile:
		return f.profile
	case FactWeights:
		return f.weights
	case FactSWCSelection:
		return f.swcSel
	case FactSOAR:
		return f.soar
	case FactPlan:
		return f.plan
	}
	return nil
}

// sameFact compares a produced fact with the one a held run of the same
// pass produced from the same input IR to the same output IR. The profile
// and its views are compared count for count, each on its own, so a reader
// of a view re-runs only when what it reads changed; the SOAR statistics
// are compared outright and the aggregation plan by its decisions; the
// channel classes follow from the plan and the IR.
func sameFact(k FactKind, a, b any) bool {
	switch k {
	case FactProfile:
		return a.(*profiler.Stats).Equal(b.(*profiler.Stats))
	case FactWeights:
		return a.(*profiler.Weights).Equal(b.(*profiler.Weights))
	case FactSWCSelection:
		return slices.EqualFunc(a.(*swcSelection).cands, b.(*swcSelection).cands, func(x, y *swc.Candidate) bool {
			return x.Global == y.Global && x.CheckLimit == y.CheckLimit && x.HitRate == y.HitRate
		})
	case FactSOAR:
		return reflect.DeepEqual(a, b)
	case FactPlan:
		return a.(*aggregate.Plan).SameDecisions(b.(*aggregate.Plan))
	}
	return false
}

// cutoffCheck turns on checkCutoff: in a `go test` binary, whatever the
// compile's VerifyIR, because the session-against-cold tests compile with
// verification off. The allocation and time measurements of a recompile
// turn it off (export_test.go).
var cutoffCheck = testing.Testing()

// checkCutoff is the test-time proof that a view covers everything its
// reader takes from the profile. A pass about to be reused although the
// profile or profile view it read is now another, equal, value is run
// anyway, on a fork of its input state and the live facts, with a private
// registry and no verification; it must reproduce its cached output
// fingerprint and every fact it produced, deeply equal — the plan's costs
// included, which the report shows. Otherwise the pass read something the
// view leaves out, and the panic names the pass and the view.
func (s *Session) checkCutoff(p Pass, ent *passEntry, in *snapshot, live *factState) {
	view := FactKind(-1)
	for _, k := range profileFacts {
		if rd := ent.reads[k]; rd.read && rd.valid && factVal(&live.facts, k) != rd.val {
			view = k
			break
		}
	}
	if view < 0 {
		return
	}
	cfg := s.cfg
	cfg.VerifyIR, cfg.DumpPass = VerifyOff, ""
	r := newRunner(nil, cfg, metrics.NewRegistry())
	materialize(r.ctx, in, live)
	r.ctx.facts = live.facts
	fail := func(what string) {
		panic(fmt.Sprintf("driver: pass %s was reused on an equal %v view, but running it gives %s", ent.out.row.Pass, view, what))
	}
	if err := r.runPass(p); err != nil {
		fail("an error: " + err.Error())
	}
	if hashState(&s.hasher, r.ctx.Prog, r.ctx.Merged) != ent.outputHash {
		fail("other IR")
	}
	for k := FactKind(0); k < numFacts; k++ {
		if ent.produced[k] && (!r.ctx.facts.valid[k] ||
			!reflect.DeepEqual(factVal(&r.ctx.facts, k), factVal(&ent.snap.facts, k))) {
			fail("another " + k.String() + " fact")
		}
	}
}

// materialize gives ctx a fork of a cached IR state. The merged views of a
// cached state may name the aggregates of an older, equal plan; they are
// handed out naming the live one's.
func materialize(ctx *Context, snap *snapshot, live *factState) {
	snap.fork(ctx)
	if !live.valid[FactPlan] {
		return
	}
	for _, m := range ctx.Merged {
		m.Agg = live.plan.Aggregates[m.Agg.ID]
	}
}

// rebindImage copies a cached image for a result whose plan is a later,
// equal one: the copy names that plan, its aggregates, and the result's own
// merged views (merged[i] is aggregate i's), as the image of a cold compile
// would. The cached image is left as it was.
func rebindImage(img *cg.Image, plan *aggregate.Plan, merged []*aggregate.Merged) *cg.Image {
	cp := *img
	cp.Plan = plan
	cp.MECode = make([]*cg.Compiled, len(img.MECode))
	for i, c := range img.MECode {
		cc := *c
		cc.Agg = plan.Aggregates[c.Agg.ID]
		cp.MECode[i] = &cc
	}
	cp.XScale = make([]*aggregate.Merged, len(img.XScale))
	for i, m := range img.XScale {
		cp.XScale[i] = merged[m.Agg.ID]
	}
	return &cp
}

// hashState fingerprints the compilation state: the whole program and every
// merged aggregate body, each under the aggregate's identity. Two states
// hash equal only when no pass can tell them apart (modulo 64-bit
// collisions, which the differential tests would surface as a miscompare).
// A frozen function's fingerprint is computed once (ir.Hasher.Func), so
// hashing a state costs a rendering of only the functions written since
// the state it was forked from.
func hashState(h *ir.Hasher, prog *ir.Program, merged []*aggregate.Merged) uint64 {
	h.Reset()
	h.Program(prog)
	for _, m := range merged {
		h.String(";; aggregate")
		h.Int(m.Agg.ID)
		h.Int(int(m.Agg.Target))
		for _, f := range m.Agg.PPFs {
			h.String(f)
		}
		h.Program(m.Prog)
	}
	return h.Sum64()
}

// storeCheck is the test-time guard on the program store. A Session or
// Ladder pins every state it freezes, caching its functions'
// fingerprints. After every pass its runner executes, the frozen functions
// the pass could reach (the working state's) are verified against them,
// and before each compile (each climb) every frozen function it holds is,
// for writes made in between by a caller holding a result.
type storeCheck struct{ h ir.Hasher }

// newStoreCheck returns the guard in a `go test` binary unless the compile
// opted out of verification (VerifyOff), and nil — no guard, no cost —
// otherwise: in production even VerifyOn (the fuzz differential's
// setting) leaves it off.
func newStoreCheck(cfg Config) *storeCheck {
	if !testing.Testing() || cfg.VerifyIR == VerifyOff {
		return nil
	}
	return &storeCheck{}
}

// pin caches the fingerprint of every function of a state just captured,
// so that a later write without ir.Program.Edit shows as a mismatch.
func (c *storeCheck) pin(s *snapshot) {
	if c != nil {
		hashState(&c.h, s.prog, s.merged)
	}
}

// verify re-fingerprints every frozen function of progs from scratch and
// panics when one no longer matches its cached fingerprint. Such a
// function was written in place, not through ir.Program.Edit, and every
// state sharing it is corrupt; the panic names it and the pass that wrote
// it ("" for a write between compiles, by a caller holding a result).
func (c *storeCheck) verify(pass string, progs []*ir.Program) {
	seen := map[*ir.Func]bool{}
	for _, p := range progs {
		for _, f := range p.Funcs {
			if seen[f] {
				continue
			}
			seen[f] = true
			switch {
			case c.h.Intact(f):
			case pass == "":
				panic(fmt.Sprintf("driver: frozen function %s was written between compiles without ir.Program.Edit", f.Name))
			default:
				panic(fmt.Sprintf("driver: pass %s wrote frozen function %s without ir.Program.Edit", pass, f.Name))
			}
		}
	}
}
