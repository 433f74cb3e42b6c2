package harness

import (
	"errors"
	"fmt"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

// This file is the public packet-level differential oracle: the host
// functional interpreter (profiler.Session) is the semantic reference,
// and every compiled optimization level must reproduce its transmitted
// frames exactly. The golden engine suite (differential_test.go), the
// fuzz experiment and the reproducer minimizer all consume this one
// API instead of carrying private copies of the comparison logic.

// DivergenceKind classifies one way a compiled program can disagree
// with the reference semantics.
type DivergenceKind string

const (
	// DivCompile: the program failed to compile at a level (frontend,
	// lowering or backend error other than IR verification).
	DivCompile DivergenceKind = "compile-error"
	// DivVerify: ir.Verify rejected the IR after an optimization pass.
	DivVerify DivergenceKind = "verify-error"
	// DivHost: the host reference interpreter itself faulted on the
	// program — the reference cannot be established.
	DivHost DivergenceKind = "host-error"
	// DivRun: the compiled image faulted at runtime.
	DivRun DivergenceKind = "run-error"
	// DivFrame: the compiled program transmitted a frame the reference
	// never produces (wrong bytes, wrong forward decision).
	DivFrame DivergenceKind = "frame-mismatch"
	// DivMissing: a reference frame was never transmitted by the
	// compiled program within the cycle budget (wrong drop).
	DivMissing DivergenceKind = "missing-frame"
	// DivPerf: a cross-level performance metamorphism violation — an
	// optimized build needed more simulated cycles than PerfBound allows
	// relative to BASE to reproduce the reference frames. Optimization
	// levels legitimately reshape timing, so the bound is deliberately
	// loose; only gross regressions flag.
	DivPerf DivergenceKind = "perf-regression"
)

// Divergence is one observed disagreement between two semantic views of
// the same program ("host" = the reference interpreter, otherwise an
// optimization-level name).
type Divergence struct {
	Kind DivergenceKind `json:"kind"`
	// LevelA/LevelB name the two sides that disagree; LevelA is "host"
	// for reference-vs-compiled divergences.
	LevelA string `json:"level_a"`
	LevelB string `json:"level_b"`
	// PacketIndex locates the first divergent packet: for DivFrame the
	// index in capture order, for DivMissing the index of the reference
	// frame; -1 when not applicable.
	PacketIndex int    `json:"packet_index"`
	Detail      string `json:"detail"`
}

func (d Divergence) String() string {
	loc := ""
	if d.PacketIndex >= 0 {
		loc = fmt.Sprintf(" pkt %d", d.PacketIndex)
	}
	return fmt.Sprintf("[%s] %s vs %s%s: %s", d.Kind, d.LevelA, d.LevelB, loc, d.Detail)
}

// DiffReport is the typed result of one differential run.
type DiffReport struct {
	App    string   `json:"app"`
	Levels []string `json:"levels"`
	// Injected is the number of distinct trace packets injected;
	// RefFrames the number of distinct reference frames the host
	// interpreter produced from them.
	Injected    int          `json:"injected"`
	RefFrames   int          `json:"ref_frames"`
	Divergences []Divergence `json:"divergences,omitempty"`
	// LevelCycles records, per matched level, the simulated cycles the
	// compiled build ran until every reference frame had appeared —
	// chunk-granular (multiples of diffChunkCycles) and fully deterministic,
	// which is what makes the fuzz performance metamorphism check
	// (PerfBound) reproducible.
	LevelCycles map[string]int64 `json:"level_cycles,omitempty"`
}

// OK reports whether every level matched the reference exactly.
func (r *DiffReport) OK() bool { return len(r.Divergences) == 0 }

// First returns the first divergence, or a zero Divergence when OK.
func (r *DiffReport) First() Divergence {
	if len(r.Divergences) == 0 {
		return Divergence{}
	}
	return r.Divergences[0]
}

func (r *DiffReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: OK (%d levels, %d frames)", r.App, len(r.Levels), r.RefFrames)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d divergence(s)\n", r.App, len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return strings.TrimRight(b.String(), "\n")
}

// DiffConfig tunes a differential run; the zero value picks defaults
// sized for fuzzing throughput (a small trace).
type DiffConfig struct {
	Seed   uint64 // trace seed (default 1235)
	TraceN int    // distinct packets injected (default 24)
}

// The compiled side of every differential: two MEs, run in
// diffChunkCycles slices between capture checks up to diffMaxCycles per
// level, capturing at most diffCapturePerPacket frames per injected
// packet.
const (
	diffMEs              = 2
	diffChunkCycles      = 60_000
	diffMaxCycles        = 600_000
	diffCapturePerPacket = 8
)

func (c *DiffConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1235
	}
	if c.TraceN == 0 {
		c.TraceN = 24
	}
}

// DifferentialWith checks that the app produces identical packet-level
// output at every given level (all of driver.Levels() when none are
// given), with ir.Verify forced on after every pass. It never returns
// nil; all failures — compile, verify, runtime, frame mismatches — are
// recorded as typed divergences.
//
// The source is lowered once. The reference interpreter reads that
// program; the levels compile from it through one driver.Ladder — one
// profile trace, one profile, each pass prefix two levels have in common
// run and verified once — pulled a level at a time, so one level's image
// is simulated before the next level compiles. A pass that fails is
// reported at every level whose pipeline contains it, as cold compiles
// would report it.
func DifferentialWith(cfg DiffConfig, a *apps.App, levels ...driver.Level) *DiffReport {
	cfg.fill()
	if len(levels) == 0 {
		levels = driver.Levels()
	}
	rep := &DiffReport{App: a.Name}
	for _, lvl := range levels {
		rep.Levels = append(rep.Levels, lvl.String())
	}
	if cfg.TraceN < 0 {
		rep.add(Divergence{Kind: DivHost, LevelA: "host", LevelB: "host", PacketIndex: -1,
			Detail: fmt.Sprintf("DiffConfig.TraceN is %d: no trace to inject", cfg.TraceN)})
		return rep
	}

	// Establish the reference: lower once, interpret the trace on the
	// host. The same packet list is replayed against every level.
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		rep.add(Divergence{Kind: DivCompile, LevelA: "host", LevelB: "frontend",
			PacketIndex: -1, Detail: err.Error()})
		return rep
	}
	trc := a.Trace(prog.Types, cfg.Seed, cfg.TraceN)
	rep.Injected = len(trc)
	sess, err := profiler.NewSession(prog)
	if err == nil {
		err = sess.Boot(a.Controls)
	}
	if err != nil {
		rep.add(Divergence{Kind: DivHost, LevelA: "host", LevelB: "host",
			PacketIndex: -1, Detail: err.Error()})
		return rep
	}
	for i, p := range trc {
		if err := sess.Inject(p.Clone()); err != nil {
			rep.add(Divergence{Kind: DivHost, LevelA: "host", LevelB: "host",
				PacketIndex: i, Detail: err.Error()})
			return rep
		}
	}
	refSet := map[string]int{} // frame bytes -> first reference index
	var refOrder []string
	for i, o := range sess.Out {
		f := string(o.P.Bytes()[o.Head:])
		if _, ok := refSet[f]; !ok {
			refSet[f] = i
			refOrder = append(refOrder, f)
		}
	}
	rep.RefFrames = len(refSet)

	ld, err := newLadder(a, prog, cfg.Seed, levels)
	if err != nil {
		rep.add(Divergence{Kind: DivCompile, LevelA: "host", LevelB: "ladder",
			PacketIndex: -1, Detail: err.Error()})
		return rep
	}
	for _, lvl := range levels {
		res, err := ld.Compile(lvl)
		rep.diffLevel(a, lvl, res, err, cfg, trc, refSet, refOrder)
	}
	return rep
}

// newLadder prepares the differential's level ladder over an app's lowered
// program: the verifier on, and the profile trace Compile would generate
// for each level, generated once.
func newLadder(a *apps.App, prog *ir.Program, seed uint64, levels []driver.Level) (*driver.Ladder, error) {
	return driver.NewLadder(prog, driver.Config{
		ProfileTrace: a.Trace(prog.Types, seed, profileTraceN),
		Controls:     a.Controls,
		VerifyIR:     driver.VerifyOn,
	}, levels...)
}

// diffLevel runs one level's compile (or records its failure) against the
// reference set.
func (rep *DiffReport) diffLevel(a *apps.App, lvl driver.Level, res *driver.Result, err error,
	cfg DiffConfig, trc []*packet.Packet, refSet map[string]int, refOrder []string) {
	name := lvl.String()
	if err != nil {
		kind := DivCompile
		var ve *ir.VerifyError
		if errors.As(err, &ve) {
			kind = DivVerify
		}
		rep.add(Divergence{Kind: kind, LevelA: "host", LevelB: name,
			PacketIndex: -1, Detail: err.Error()})
		return
	}
	captureLimit := diffCapturePerPacket * cfg.TraceN
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
		NumMEs: diffMEs, CaptureLimit: captureLimit})
	if err == nil {
		err = rt.Boot(a.Controls)
	}
	if err != nil {
		rep.add(Divergence{Kind: DivRun, LevelA: "host", LevelB: name,
			PacketIndex: -1, Detail: err.Error()})
		return
	}

	// Run in chunks, stopping as soon as every distinct reference frame
	// has been observed: MEs complete out of order and channel rings can
	// drop under timing pressure, so comparison is set-based — every
	// captured frame must be a reference frame, and every reference
	// frame must eventually appear.
	seen := map[string]bool{}
	checked := 0
	used := int64(0) // simulated cycles actually run at this level
	matched := func() bool { return len(seen) == len(refSet) }
	for cycles := int64(0); cycles < diffMaxCycles && !matched(); cycles += diffChunkCycles {
		if err := rt.Run(diffChunkCycles); err != nil {
			rep.add(Divergence{Kind: DivRun, LevelA: "host", LevelB: name,
				PacketIndex: -1, Detail: err.Error()})
			return
		}
		used += diffChunkCycles
		for ; checked < len(rt.TxCapture); checked++ {
			f := string(rt.TxCapture[checked].Frame)
			if _, ok := refSet[f]; !ok {
				rep.add(Divergence{Kind: DivFrame, LevelA: "host", LevelB: name,
					PacketIndex: checked,
					Detail:      fmt.Sprintf("transmitted frame not produced by reference: %x", rt.TxCapture[checked].Frame)})
				return
			}
			seen[f] = true
		}
		if len(rt.TxCapture) >= captureLimit {
			break // capture full; nothing further can change the verdict
		}
	}
	if !matched() {
		for _, f := range refOrder {
			if !seen[f] {
				rep.add(Divergence{Kind: DivMissing, LevelA: "host", LevelB: name,
					PacketIndex: refSet[f],
					Detail: fmt.Sprintf("reference frame %d never transmitted within %d cycles (%d/%d seen): %x",
						refSet[f], diffMaxCycles, len(seen), len(refSet), f)})
				return
			}
		}
	}
	if rep.LevelCycles == nil {
		rep.LevelCycles = map[string]int64{}
	}
	rep.LevelCycles[name] = used
}

func (rep *DiffReport) add(d Divergence) {
	rep.Divergences = append(rep.Divergences, d)
}
