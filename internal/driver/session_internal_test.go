package driver

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/metrics"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// fakePass is a pass whose Run a test writes.
type fakePass struct {
	name string
	run  func(*Context) error
}

func (p *fakePass) Name() string           { return p.name }
func (p *fakePass) Run(ctx *Context) error { return p.run(ctx) }

func lowerTestProg(t *testing.T) *ir.Program {
	t.Helper()
	const src = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
metadata { rx_port:16; }
module m {
	uint counter;
	ppf f(ether ph) {
		counter = ph->type + 1;
		packet_drop(ph);
	}
	wiring { rx -> f; }
}
`
	astProg, err := parser.Parse("p.baker", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(astProg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(tp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFactReadLogged: a pass's read of a fact through a typed accessor
// succeeds and is logged for the session's reuse keying.
func TestFactReadLogged(t *testing.T) {
	prog := lowerTestProg(t)
	r := newRunner(prog, Config{VerifyIR: VerifyOff})
	r.ctx.SetProfile(&profiler.Stats{})

	good := &fakePass{
		name: "good-reader",
		run: func(ctx *Context) error {
			_ = ctx.Profile()
			return nil
		},
	}
	if err := r.runPass(good); err != nil {
		t.Fatalf("fact read failed: %v", err)
	}
	if !r.ctx.factReads[FactProfile] {
		t.Error("read was not logged in factReads")
	}
}

// TestSOARIfValidLogged pins SOARIfValid's contract: an optional read that
// computes nothing, yet is logged, so a cached pass that consulted it is
// keyed on the SOAR fact's state.
func TestSOARIfValidLogged(t *testing.T) {
	prog := lowerTestProg(t)
	r := newRunner(prog, Config{VerifyIR: VerifyOff})

	p := &fakePass{
		name: "optional-reader",
		run: func(ctx *Context) error {
			if s := ctx.SOARIfValid(); s != nil {
				t.Error("SOARIfValid returned facts nobody computed")
			}
			return nil
		},
	}
	if err := r.runPass(p); err != nil {
		t.Fatalf("optional SOAR read was rejected: %v", err)
	}
	if !r.ctx.factReads[FactSOAR] {
		t.Error("optional SOAR read was not logged in factReads")
	}
}

// TestHashStateAllocFree: fingerprinting a state renders into the hasher's
// own buffer and reaches neither fmt nor the heap once that buffer has
// grown; and the fingerprint tells states apart.
func TestHashStateAllocFree(t *testing.T) {
	prog := lowerTestProg(t)
	var h ir.Hasher
	before := hashState(&h, prog, nil)
	if n := testing.AllocsPerRun(20, func() { hashState(&h, prog, nil) }); n != 0 {
		t.Errorf("hashState allocates %v times in steady state", n)
	}
	if hashState(&h, prog, nil) != before {
		t.Error("hashing the same state twice gave two fingerprints")
	}
	prog.Funcs[0].Blocks[0].Instrs[0].StaticAlign = 8
	if hashState(&h, prog, nil) == before {
		t.Error("an alignment annotation did not change the fingerprint")
	}
}

// TestProfileFallbacks: a session's first two profiles are full ones (the
// first keeps no profiler state, the second keeps it); the kept state is
// dropped by a rolled-back Recompile, and the next profile is a full one,
// counted under that reason; otherwise a re-run profile is incremental. (A
// failed profile is TestSessionDecisionRecords'.)
func TestProfileFallbacks(t *testing.T) {
	prog := lowerTestProg(t)
	trace := []*packet.Packet{packet.New(make([]byte, 64), prog.Types.Metadata.Bytes)}
	s, err := NewSession(prog, Config{Level: LevelSWC, ProfileTrace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	full := func(want map[string]int64) {
		t.Helper()
		res, err := s.Recompile(Delta{})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Report.Metrics.Counters
		for _, why := range []string{"cold", "error", "rollback"} {
			if n := c[metrics.ProfileFull(why).String()]; n != want[why] {
				t.Errorf("%d full profiles for %s, want %d", n, why, want[why])
			}
		}
	}
	full(map[string]int64{"cold": 2})
	full(map[string]int64{"cold": 2})

	// A dump that cannot be written fails the compile after the profile ran.
	s.cfg.DumpPass, s.cfg.DumpDir = "profile", "/dev/null/dump"
	if _, err := s.Recompile(Delta{}); err == nil {
		t.Fatal("an unwritable dump did not fail the recompile")
	}
	s.cfg.DumpPass, s.cfg.DumpDir = "", ""
	full(map[string]int64{"cold": 2, "rollback": 1})
	full(map[string]int64{"cold": 2, "rollback": 1})
}

// TestProfileCheckNamesDeltaAndCount: the test-time check of a Session's
// profile passes one equal to a full profile and panics on any other,
// naming the delta and the first count that differs.
func TestProfileCheckNamesDeltaAndCount(t *testing.T) {
	prog := lowerTestProg(t)
	trace := []*packet.Packet{packet.New(make([]byte, 64), prog.Types.Metadata.Bytes)}
	ctx := newRunner(prog, Config{ProfileTrace: trace}).ctx
	st, err := profiler.ProfileWithControls(prog, trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkProfile(ctx, st, 7)
	st.Globals[prog.Types.Globals["m.counter"].ID].Writes++
	var caught string
	func() {
		defer func() { caught = fmt.Sprint(recover()) }()
		checkProfile(ctx, st, 7)
	}()
	if !strings.Contains(caught, "delta 7") || !strings.Contains(caught, "Globals[m.counter].Writes") {
		t.Errorf("a profile with one write too many: panic %q, want the delta and the count named", caught)
	}
}

// TestCutoffCheckNamesPassAndView: a pass reused on a view that is equal to
// the one it read, but another object, is run again by the test-time check.
// A pass that is a function of what it reads passes; one whose output
// depends on anything else (here, a counter of its own) panics, naming the
// pass and the view.
func TestCutoffCheckNamesPassAndView(t *testing.T) {
	prog := lowerTestProg(t)
	trace := []*packet.Packet{packet.New(make([]byte, 64), prog.Types.Metadata.Bytes)}
	s, err := NewSession(prog, Config{Level: LevelBase, ProfileTrace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	profiled := s.entries[0][0] // the state after the profile pass
	live := factState{facts: profiled.snap.facts, key: profiled.key}
	read := *live.weights // what the cached run read: equal, not the same
	ent := &passEntry{outputHash: hashState(&s.hasher, profiled.snap.prog, nil), snap: profiled.snap}
	ent.reads[FactWeights] = factRead{read: true, valid: true, key: live.key[FactWeights], val: &read}

	calls := uint64(0)
	for _, p := range []*fakePass{
		{name: "reader", run: func(ctx *Context) error {
			ctx.Weights()
			return nil
		}},
		{name: "leaky", run: func(ctx *Context) error {
			ctx.Weights()
			f := ctx.Prog.Edit(ctx.Prog.Funcs[0].Name)
			calls++
			f.Entry.Instrs = append([]*ir.Instr{{Op: ir.OpConst, Dst: []ir.Reg{f.NewReg(ir.ClassWord)}, Imm: calls}},
				f.Entry.Instrs...)
			return nil
		}},
	} {
		ent.out.row.Pass = p.name
		var caught string
		func() {
			defer func() {
				if r := recover(); r != nil {
					caught = fmt.Sprint(r)
				}
			}()
			s.checkCutoff(p, ent, profiled.snap, &live)
		}()
		switch {
		case p.name == "reader" && caught != "":
			t.Errorf("a pass that reads only its view: %s", caught)
		case p.name == "leaky" && (!strings.Contains(caught, "pass leaky") || !strings.Contains(caught, "weights view")):
			t.Errorf("a pass that depends on more than its view: panic %q, want it and the view named", caught)
		}
	}
}

// TestFailedCompileRestoresHistory: a Recompile that fails after a pass
// executed — here because the dump after aggregate cannot be written,
// once profile has run — leaves every position's history as the compile
// before left it: the same results in the same order, the order a history
// hit just set included.
func TestFailedCompileRestoresHistory(t *testing.T) {
	a := apps.Firewall()
	prog, err := LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(prog, Config{Level: LevelSWC, ProfileTrace: a.Trace(prog.Types, 1, 512), Controls: a.Controls})
	if err != nil {
		t.Fatal(err)
	}
	// rule0 switches the first boot rule off (to a destination port no
	// trace packet carries), which changes the SWC rewrite, or on again.
	rule0 := func(off bool) Delta {
		c := a.Controls[0]
		args := slices.Clone(c.Args)
		if off {
			args[7], args[8] = 9, 9
		}
		return Delta{AddControls: []profiler.Control{{Name: c.Name, Args: args}}}
	}
	if _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	var res *Result
	for _, off := range []bool{true, false} {
		if res, err = s.Recompile(rule0(off)); err != nil {
			t.Fatal(err)
		}
	}
	if res.Report.Metrics.Counters[metrics.SessionHistoryHits.String()] == 0 {
		t.Fatal("switching rule 0 back on reused no older held result")
	}
	held := slices.Clone(s.entries)

	s.cfg.DumpPass, s.cfg.DumpDir = "aggregate", "/dev/null/dump"
	if res, err = s.Recompile(rule0(true)); err == nil {
		t.Fatalf("an unwritable dump did not fail the recompile (passes %+v)", res.Report.Passes)
	}
	s.cfg.DumpPass, s.cfg.DumpDir = "", ""
	for i := range held {
		if !slices.Equal(s.entries[i], held[i]) {
			t.Errorf("position %d holds %v after the failed recompile, %v before", i, s.entries[i], held[i])
		}
	}
}
