// The incremental compilation service. A Session keeps the typed fact
// base and a per-pass result cache alive across compiles, so a
// control-plane policy delta recompiles in the time of the passes it
// actually invalidated rather than a cold pipeline run. This is the
// compile-server precedent ("A Fast Compiler for NetKAT"): the compiler
// sits in the control loop, so recompilation latency is a data-plane
// metric, not a build step.
//
// Reuse is keyed three ways, all recorded when a pass executes:
//
//   - IR identity: a hash of the deterministic ir.Fprint rendering of the
//     whole program plus every merged aggregate body, chained pass to
//     pass. A cached result is only considered when the IR entering the
//     pass is bit-identical to what it saw when it ran.
//   - Fact reads: the exact fact values (by identity) the pass consulted,
//     logged through the typed accessors — including the optional
//     SOARIfValid read. Requires is the declared contract (enforced by
//     the fact guard in runPass); the read log is the measured one.
//   - Invalidation stamps: each Delta advances a sequence number and
//     stamps the facts it declares invalid. A cached result that produced
//     a fact older than the fact's last invalidation stamp re-runs.
//
// Because reuse demands bit-identical inputs, an incremental compile is
// bit-identical to a cold compile of the same configuration — the
// differential tests pin this per app × level. The one escape hatch is
// deliberate: a Delta that under-declares (say, invalidates only FactPlan
// while also adding controls) keeps the stale profile by construction.
// That is the same trade the paper's delayed-update cache makes — staleness
// bounded by an explicit declaration — and it is opt-in per delta.
package driver

import (
	"fmt"
	"hash/fnv"

	"shangrila/internal/aggregate"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/metrics"
	"shangrila/internal/opt/pac"
	"shangrila/internal/opt/phr"
	"shangrila/internal/opt/soar"
	"shangrila/internal/opt/swc"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// Delta is one control-plane policy change applied to a Session between
// compiles.
type Delta struct {
	// AddControls appends control calls to the session's Config.Controls
	// (the boot-time table population the profiler replays).
	AddControls []profiler.Control
	// Invalidates lists the facts the delta makes stale. Nil means
	// {FactProfile}: new control state changes the training profile, and
	// everything derived from it re-runs as needed. Declaring less is the
	// explicit stale-fact trade (profile reuse under churn); the
	// invalidation-stamp machinery guarantees a fact can never be reused
	// past its declared invalidation.
	Invalidates []FactKind
}

// SessionStats counts a session's incremental behavior.
type SessionStats struct {
	// Compiles is the number of Compile/Recompile calls that ran.
	Compiles int
	// Incremental counts compiles that reused at least one cached pass.
	Incremental int
	// PassesExecuted and PassesSkipped accumulate across all compiles.
	PassesExecuted int
	PassesSkipped  int
	// LastExecuted and LastSkipped name the passes of the most recent
	// compile, in pipeline order.
	LastExecuted []string
	LastSkipped  []string
}

// factRead records how one fact looked when a pass consulted it: absent,
// or present as a specific value (compared by identity — every producer
// builds a fresh object).
type factRead struct {
	valid bool
	val   any
}

// snapshot is the deep-copied compilation state after one pass: the
// working IR (program + merged aggregate views) and the fact base. Fact
// values are shared by pointer (producers never mutate a published fact),
// but the IR is cloned both into and out of the cache, so neither later
// passes nor callers can disturb a cached state.
type snapshot struct {
	prog   *ir.Program
	merged []*aggregate.Merged
	facts  facts
}

// capture snapshots ctx's working state.
func capture(ctx *Context) *snapshot {
	return &snapshot{
		prog:   ir.CloneProgram(ctx.Prog),
		merged: cloneMergedList(ctx.Merged),
		facts:  ctx.facts,
	}
}

// cloneInto gives ctx a private copy of the snapshot's IR; the fact base
// is the caller's to install.
func (s *snapshot) cloneInto(ctx *Context) {
	ctx.Prog = ir.CloneProgram(s.prog)
	ctx.Merged = cloneMergedList(s.merged)
}

// reportPatch replays the report/image fields one pass wrote, so a skipped
// pass still yields a complete Report.
type reportPatch struct {
	profile   *profiler.Stats
	soarStats *soar.Stats
	pacStats  *pac.Stats
	phrStats  *phr.Stats
	plan      *aggregate.Plan
	swcCands  []*swc.Candidate
	codeSizes []int
	image     *cg.Image

	setProfile, setSOAR, setPAC, setPHR bool
	setPlan, setSWC, setCode, setImage  bool
}

// passEntry is one cached pass execution.
type passEntry struct {
	name       string
	inputHash  uint64
	outputHash uint64
	// reads maps each fact the pass consulted to the state it observed.
	reads map[FactKind]factRead
	// produced marks facts this execution computed (including on-demand
	// ensure computation during the requirement phase); prodSeq is the
	// delta sequence number current at that time.
	produced    [numFacts]bool
	prodSeq     [numFacts]uint64
	prodVal     [numFacts]any
	invalidates []FactKind
	snap        *snapshot
	patch       reportPatch
	timing      PassTiming
}

// Session is a long-lived incremental compiler for one program at one
// configuration. It retains the fact base and per-pass snapshots across
// compiles; Recompile applies a policy delta and re-runs only the passes
// whose inputs — IR, consulted fact values, or invalidation stamps —
// actually changed. Not safe for concurrent use.
type Session struct {
	cfg      Config
	base     *ir.Program // pristine lowered IR, cloned per compile
	baseHash uint64
	// trace is a pristine deep copy of cfg.ProfileTrace: interpreting the
	// trace mutates packets in place (the apps rewrite MACs, TTLs,
	// labels), so every profile re-run gets fresh clones — a recompile
	// must profile the same packets a cold compile would.
	trace []*packet.Packet
	reg   *metrics.Registry

	entries []*passEntry // indexed by pipeline position
	// deltaSeq numbers Delta applications; lastInval stamps each fact
	// with the sequence of the last delta that declared it invalid.
	deltaSeq  uint64
	lastInval [numFacts]uint64

	stats SessionStats
}

// NewSession clones prog into a pristine base and prepares an incremental
// session. cfg.Metrics, when nil, becomes a session-private registry that
// accumulates compile.pass.* and compile.session.* counters across
// compiles.
func NewSession(prog *ir.Program, cfg Config) (*Session, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	base := ir.CloneProgram(prog)
	h, err := hashState(base, nil)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &Session{
		cfg:      cfg,
		base:     base,
		baseHash: h,
		trace:    clonePackets(cfg.ProfileTrace),
		reg:      cfg.Metrics,
		entries:  make([]*passEntry, len(PipelineFor(cfg))),
	}, nil
}

// clonePackets deep-copies a profile trace.
func clonePackets(tr []*packet.Packet) []*packet.Packet {
	if tr == nil {
		return nil
	}
	out := make([]*packet.Packet, len(tr))
	for i, p := range tr {
		out[i] = p.Clone()
	}
	return out
}

// Config returns the session's current configuration (Controls grow as
// deltas are applied).
func (s *Session) Config() Config { return s.cfg }

// Stats returns the session's cumulative incremental-compilation counters.
func (s *Session) Stats() SessionStats {
	cp := s.stats
	cp.LastExecuted = append([]string(nil), s.stats.LastExecuted...)
	cp.LastSkipped = append([]string(nil), s.stats.LastSkipped...)
	return cp
}

// applyDelta mutates the session configuration and stamps the declared
// invalidations.
func (s *Session) applyDelta(d Delta) {
	s.deltaSeq++
	inv := d.Invalidates
	if inv == nil {
		inv = []FactKind{FactProfile}
	}
	for _, k := range inv {
		if k >= 0 && k < numFacts {
			s.lastInval[k] = s.deltaSeq
		}
	}
	if len(d.AddControls) > 0 {
		ctrls := make([]profiler.Control, 0, len(s.cfg.Controls)+len(d.AddControls))
		ctrls = append(ctrls, s.cfg.Controls...)
		ctrls = append(ctrls, d.AddControls...)
		s.cfg.Controls = ctrls
	}
}

// Recompile applies a policy delta and compiles, reusing every cached pass
// whose inputs the delta did not touch.
func (s *Session) Recompile(d Delta) (*Result, error) {
	s.applyDelta(d)
	return s.Compile()
}

// Compile runs the session's pipeline. The first call is a cold compile
// that populates the cache; later calls walk the pipeline reusing cached
// results until an input diverges, re-execute from there (with post-pass
// IR verification exactly as a cold compile), and re-attach to the cache
// as soon as the state converges again — e.g. a profile-invalidating
// delta re-profiles, reuses the untouched scalar/SOAR/PAC transforms, and
// resumes execution at aggregation.
func (s *Session) Compile() (*Result, error) {
	pipeline := PipelineFor(s.cfg)
	if len(pipeline) != len(s.entries) {
		return nil, fmt.Errorf("session: pipeline changed size (%d != %d)", len(pipeline), len(s.entries))
	}
	cfgRun := s.cfg
	cfgRun.ProfileTrace = clonePackets(s.trace)
	r := newRunner(nil, cfgRun)
	ctx := r.ctx

	// live fact state at the walk position, and the identity of each
	// valid fact's value.
	var live facts
	curHash := s.baseHash
	pending := &snapshot{prog: s.base} // state to materialize from
	materialized := false
	executed, skipped := 0, 0
	var lastExec, lastSkip []string

	for i, p := range pipeline {
		ent := s.entries[i]
		if ent != nil && ent.name == p.Name() && s.reusable(ent, curHash, &live) {
			// Skip: replay the cached result's effects.
			applyTransition(&live, ent)
			ent.patch.apply(ctx)
			curHash = ent.outputHash
			pending = ent.snap
			materialized = false
			row := ent.timing
			row.Nanos, row.VerifyNanos, row.Skipped = 0, 0, true
			ctx.Report.Passes = append(ctx.Report.Passes, row)
			s.reg.Counter(metrics.PassSkips(ent.name)).Inc()
			skipped++
			lastSkip = append(lastSkip, ent.name)
			continue
		}

		if !materialized {
			pending.cloneInto(ctx)
			materialized = true
		}
		ctx.facts = live

		preFacts := live
		preReport := *ctx.Report
		preImage := ctx.Image
		ctx.factReads = [numFacts]bool{}

		if err := r.runPass(p); err != nil {
			return nil, err
		}

		ent = &passEntry{
			name:        p.Name(),
			inputHash:   curHash,
			reads:       map[FactKind]factRead{},
			invalidates: p.Invalidates(),
			timing:      ctx.Report.Passes[len(ctx.Report.Passes)-1],
		}
		for k := FactKind(0); k < numFacts; k++ {
			prodNow := ctx.facts.valid[k] &&
				(!preFacts.valid[k] || factVal(&ctx.facts, k) != factVal(&preFacts, k))
			if prodNow {
				ent.produced[k] = true
				ent.prodSeq[k] = s.deltaSeq
				ent.prodVal[k] = factVal(&ctx.facts, k)
			}
			if ctx.factReads[k] && !prodNow {
				ent.reads[k] = factRead{valid: preFacts.valid[k], val: factVal(&preFacts, k)}
			}
		}
		ent.patch = diffReport(&preReport, ctx.Report, preImage, ctx.Image)
		h, err := hashState(ctx.Prog, ctx.Merged)
		if err != nil {
			return nil, fmt.Errorf("session: %s: %w", p.Name(), err)
		}
		ent.outputHash = h
		ent.snap = capture(ctx)
		s.entries[i] = ent

		live = ctx.facts
		curHash = h
		executed++
		lastExec = append(lastExec, ent.name)
	}

	if !materialized {
		// The compile ended on a cached pass (possibly a full cache hit):
		// hand out clones so callers can never disturb the cached state.
		pending.cloneInto(ctx)
	}

	s.stats.Compiles++
	if skipped > 0 {
		s.stats.Incremental++
		s.reg.Counter(metrics.SessionIncremental).Inc()
	}
	s.stats.PassesExecuted += executed
	s.stats.PassesSkipped += skipped
	s.stats.LastExecuted, s.stats.LastSkipped = lastExec, lastSkip
	s.reg.Counter(metrics.SessionCompiles).Inc()

	return r.result(), nil
}

// reusable decides whether a cached pass execution applies at the current
// walk state: identical input IR, identical consulted fact values, and no
// produced fact invalidated by a later delta.
func (s *Session) reusable(ent *passEntry, curHash uint64, live *facts) bool {
	if ent.inputHash != curHash {
		return false
	}
	for k, rd := range ent.reads {
		if rd.valid != live.valid[k] {
			return false
		}
		if rd.valid && factVal(live, k) != rd.val {
			return false
		}
	}
	for k := FactKind(0); k < numFacts; k++ {
		if ent.produced[k] && ent.prodSeq[k] < s.lastInval[k] {
			return false
		}
	}
	return true
}

// applyTransition replays a cached pass's fact-base effects onto the live
// state: produced facts install their cached values, declared
// invalidations drop theirs, and everything else is untouched.
func applyTransition(live *facts, ent *passEntry) {
	for k := FactKind(0); k < numFacts; k++ {
		if !ent.produced[k] {
			continue
		}
		live.valid[k] = true
		switch k {
		case FactProfile:
			live.profile = ent.prodVal[k].(*profiler.Stats)
		case FactSOAR:
			live.soar = ent.prodVal[k].(*soar.Stats)
		case FactPlan:
			live.plan = ent.prodVal[k].(*aggregate.Plan)
			live.classes = ent.snap.facts.classes
		}
	}
	for _, k := range ent.invalidates {
		live.valid[k] = false
	}
}

// factVal returns the identity of a fact's current value.
func factVal(f *facts, k FactKind) any {
	switch k {
	case FactProfile:
		return f.profile
	case FactSOAR:
		return f.soar
	case FactPlan:
		return f.plan
	}
	return nil
}

// diffReport captures which report/image fields a pass wrote.
func diffReport(before, after *Report, imgBefore, imgAfter *cg.Image) reportPatch {
	var p reportPatch
	if before.ProfileStats != after.ProfileStats {
		p.profile, p.setProfile = after.ProfileStats, true
	}
	if before.SOAR != after.SOAR {
		p.soarStats, p.setSOAR = after.SOAR, true
	}
	if before.PAC != after.PAC {
		p.pacStats, p.setPAC = after.PAC, true
	}
	if before.PHR != after.PHR {
		p.phrStats, p.setPHR = after.PHR, true
	}
	if before.Plan != after.Plan {
		p.plan, p.setPlan = after.Plan, true
	}
	if sliceChanged(len(before.SWCCands), len(after.SWCCands), func() bool {
		return &before.SWCCands[0] == &after.SWCCands[0]
	}) {
		p.swcCands, p.setSWC = after.SWCCands, true
	}
	if sliceChanged(len(before.CodeSizes), len(after.CodeSizes), func() bool {
		return &before.CodeSizes[0] == &after.CodeSizes[0]
	}) {
		p.codeSizes, p.setCode = after.CodeSizes, true
	}
	if imgBefore != imgAfter {
		p.image, p.setImage = imgAfter, true
	}
	return p
}

// sliceChanged reports whether a slice field was rewritten, comparing
// length and backing-array identity (sameHead is only called when both
// lengths are equal and non-zero).
func sliceChanged(lenBefore, lenAfter int, sameHead func() bool) bool {
	if lenBefore != lenAfter {
		return true
	}
	if lenAfter == 0 {
		return false
	}
	return !sameHead()
}

func (p *reportPatch) apply(ctx *Context) {
	if p.setProfile {
		ctx.Report.ProfileStats = p.profile
	}
	if p.setSOAR {
		ctx.Report.SOAR = p.soarStats
	}
	if p.setPAC {
		ctx.Report.PAC = p.pacStats
	}
	if p.setPHR {
		ctx.Report.PHR = p.phrStats
	}
	if p.setPlan {
		ctx.Report.Plan = p.plan
	}
	if p.setSWC {
		ctx.Report.SWCCands = p.swcCands
	}
	if p.setCode {
		ctx.Report.CodeSizes = p.codeSizes
	}
	if p.setImage {
		ctx.Image = p.image
	}
}

// cloneMergedList deep-copies every merged aggregate view.
func cloneMergedList(ms []*aggregate.Merged) []*aggregate.Merged {
	if ms == nil {
		return nil
	}
	out := make([]*aggregate.Merged, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

// hashState fingerprints the compilation state: the deterministic
// ir.Fprint rendering of the whole program and every merged aggregate
// body. Two states hash equal only when their printed IR is
// byte-identical (modulo fnv64 collisions, which the differential tests
// would surface as a miscompare).
func hashState(prog *ir.Program, merged []*aggregate.Merged) (uint64, error) {
	h := fnv.New64a()
	if err := ir.Fprint(h, prog); err != nil {
		return 0, err
	}
	for _, m := range merged {
		fmt.Fprintf(h, ";; aggregate %d (%s) %v\n", m.Agg.ID, m.Agg.Target, m.Agg.PPFs)
		if err := ir.Fprint(h, m.Prog); err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}
