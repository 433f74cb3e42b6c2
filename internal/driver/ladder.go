// The level ladder. The evaluation axis is cumulative (BASE < -O1 < … <
// +SWC), so the pipelines PipelineFor builds for two levels agree on a
// prefix of passes and differ in a tail. A Ladder compiles one lowered
// program at several levels and runs each distinct prefix once: a level
// resumes from the state an earlier level reached where their pipelines
// part, and executes only what is left. CompileIR is the one-rung case of
// the same loop.
//
// Two levels share a pass when the pass values PipelineFor builds for them
// are reflect.DeepEqual and every earlier pass is shared too: a pass is a
// deterministic function of its own flags, the IR and the fact base, so
// equal values over an equal state produce an equal state. Nothing is
// hashed and nothing outlives the Ladder.
package driver

import (
	"fmt"
	"reflect"
	"slices"

	"shangrila/internal/ir"
	"shangrila/internal/metrics"
)

// Ladder compiles one lowered program at a set of optimization levels,
// executing (and verifying) each pass prefix the levels have in common
// once. Levels compile lazily, in ascending order whatever order they are
// asked for: each rung resumes from the fork a lower rung leaves where
// their pipelines part, so a level cannot compile before the ones below it.
// Not safe for concurrent use.
type Ladder struct {
	base    *ir.Program
	inPlace bool // the single rung may consume base itself (CompileIR)
	cfg     Config
	rungs   []*rung     // ascending by level
	store   *storeCheck // nil outside tests
}

// rung is one level's compile: its pipeline, where it leaves an earlier
// rung's pipeline, and the outcome once climbed.
type rung struct {
	level    Level
	pipeline []Pass
	// from is the earliest rung sharing the longest pass prefix with this
	// one, shared the length of that prefix; nil and 0 when the rung
	// starts from the lowered program.
	from   *rung
	shared int
	// forks holds, by depth (passes completed), the states later rungs
	// resume from. The keys are planned up front; a state is filled in
	// when this rung's compile reaches its depth.
	forks map[int]*fork

	climbed bool
	done    int // passes completed, shared ones included
	res     *Result
	err     error
	// asks counts the times the level was listed and not yet handed back;
	// the result is let go with the last one.
	asks int
}

// fork is the compilation state at a depth where later rungs leave this
// rung's pipeline: the IR and fact base (session.go's snapshot) and the
// pass outputs so far, their rows marked Skipped.
type fork struct {
	uses int // rungs still to resume from here
	snap *snapshot
	outs []passOut
}

// NewLadder prepares the ladder over prog for the given levels (all of
// Levels() when none are given); cfg.Level is ignored. prog is only read:
// the first rung starts from a clone, so a caller may keep interpreting it.
// cfg.ProfileTrace is read by the one profile run. Dump settings name one
// level (DumpPrefix), and a shared pass has no single level to be dumped
// under, so DumpPass is rejected here; dump through CompileIR.
func NewLadder(prog *ir.Program, cfg Config, levels ...Level) (*Ladder, error) {
	if cfg.DumpPass != "" {
		return nil, fmt.Errorf("driver: a level ladder cannot dump pass %q: dumps are per level, compile the level alone", cfg.DumpPass)
	}
	if len(levels) == 0 {
		levels = Levels()
	}
	if err := checkConfig(cfg.DumpPass, levels...); err != nil {
		return nil, err
	}
	return newLadder(prog, cfg, levels, PipelineFor), nil
}

// newLadder plans the rungs: ascending levels, each resuming from the
// earliest rung that shares its longest pass prefix.
func newLadder(prog *ir.Program, cfg Config, levels []Level, pipelineFor func(Config) []Pass) *Ladder {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	l := &Ladder{base: prog, cfg: cfg, store: newStoreCheck(cfg)}
	levels = slices.Clone(levels)
	slices.Sort(levels)
	for _, lvl := range levels {
		if n := len(l.rungs); n > 0 && l.rungs[n-1].level == lvl {
			l.rungs[n-1].asks++
			continue
		}
		cfg.Level = lvl
		r := &rung{level: lvl, asks: 1, pipeline: pipelineFor(cfg), forks: map[int]*fork{}}
		for _, prev := range l.rungs {
			if n := commonPrefix(prev.pipeline, r.pipeline); n > r.shared {
				r.from, r.shared = prev, n
			}
		}
		if r.from != nil {
			f := r.from.forks[r.shared]
			if f == nil {
				f = &fork{}
				r.from.forks[r.shared] = f
			}
			f.uses++
		}
		l.rungs = append(l.rungs, r)
	}
	return l
}

// commonPrefix counts the leading passes two pipelines share.
func commonPrefix(a, b []Pass) int {
	n := 0
	for n < len(a) && n < len(b) && reflect.DeepEqual(a[n], b[n]) {
		n++
	}
	return n
}

// Compile returns the compile of one of the ladder's levels, first
// compiling every lower level of the ladder that has not been compiled
// yet. The result and error are those of a cold CompileIR at that level: a
// pass that fails fails every level whose pipeline contains it and the
// passes before it, with the same error; other levels still compile.
//
// The result is handed over, not kept: seven levels' IR and images held
// while the caller simulates are live heap every GC cycle re-marks (10 MB
// of peak RSS and 5 % of the fuzz campaign's rate). A level can be asked
// for as often as it was listed.
func (l *Ladder) Compile(lvl Level) (*Result, error) {
	for _, r := range l.rungs {
		if r.level > lvl {
			break
		}
		if !r.climbed {
			l.climb(r)
		}
		if r.level == lvl {
			if r.asks == 0 {
				return nil, fmt.Errorf("driver: level %v was already handed back", lvl)
			}
			res := r.res
			if r.asks--; r.asks == 0 {
				r.res = nil
			}
			return res, r.err
		}
	}
	return nil, fmt.Errorf("driver: level %v is not on the ladder", lvl)
}

// climb compiles one rung: take up the state where the rung leaves its
// donor's pipeline, run the passes nobody has run, and keep the states
// later rungs will leave from. The states are frozen (capture), so the
// passes still to run on this rung copy what they write.
func (l *Ladder) climb(r *rung) {
	r.climbed = true
	cfg := l.cfg
	cfg.Level = r.level
	run := newRunner(nil, cfg)
	run.store = l.store
	run.outs = make([]passOut, 0, len(r.pipeline))
	ctx := run.ctx
	l.checkHeld()
	switch from := r.from; {
	case from == nil && l.inPlace:
		ctx.Prog = l.base
	case from == nil:
		ctx.Prog = ir.CloneProgram(l.base)
	case from.done < r.shared:
		// The donor failed inside the shared prefix; so would this level.
		r.done, r.err = from.done, from.err
		return
	default:
		f := from.forks[r.shared]
		snap, outs := f.snap, f.outs
		if f.uses--; f.uses == 0 {
			f.snap, f.outs = nil, nil // the last rung to leave from here lets them go
		}
		snap.fork(ctx)
		ctx.facts = snap.facts
		run.outs = append(run.outs, outs...)
		for _, o := range outs {
			run.reg().Counter(metrics.PassSkips(o.row.Pass)).Inc()
		}
	}
	for r.done = r.shared; r.done < len(r.pipeline); {
		if r.err = run.runPass(r.pipeline[r.done]); r.err != nil {
			return
		}
		r.done++
		if f := r.forks[r.done]; f != nil {
			f.snap = capture(ctx)
			l.store.pin(f.snap)
			f.outs = make([]passOut, len(run.outs))
			for i, o := range run.outs {
				f.outs[i] = o.skipped()
			}
		}
	}
	r.res = run.result()
}

// checkHeld verifies, before a climb, every frozen function the ladder
// holds — the states later rungs will fork and the results not yet handed
// back, which their callers can reach (storeCheck.verify).
func (l *Ladder) checkHeld() {
	if l.store == nil {
		return
	}
	var progs []*ir.Program
	for _, rg := range l.rungs {
		for _, f := range rg.forks {
			if f.snap != nil {
				progs = appendPrograms(progs, f.snap.prog, f.snap.merged)
			}
		}
		if rg.res != nil {
			progs = appendPrograms(progs, rg.res.Prog, rg.res.Merged)
		}
	}
	l.store.verify("", progs)
}
