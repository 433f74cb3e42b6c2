package profiler_test

// Equivalence of the slot executor with the retained tree-walking loop
// (reference_test.go) on generated inputs; no wall clock. The next PR that
// touches this package deletes reference_test.go and, with it, the two
// TestExecutor*Reference tests here and in errors_test.go.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// passSnapshots clones *prog every time the driver starts a per-pass IR
// dump: CompileIR rewrites the program it is handed in place, so a clone
// taken at the dump header is the whole-program IR after that pass.
type passSnapshots struct {
	prog  *ir.Program
	names []string
	progs []*ir.Program
}

func (s *passSnapshots) Write(b []byte) (int, error) {
	if rest, ok := bytes.CutPrefix(b, []byte(";; app after pass ")); ok {
		s.names = append(s.names, strings.TrimSpace(string(rest)))
		s.progs = append(s.progs, ir.CloneProgram(s.prog))
	}
	return len(b), nil
}

func cloneTrace(tr []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(tr))
	for i, p := range tr {
		out[i] = p.Clone()
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func describe(ms []profiler.OutPacket) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s@%d %x meta %x\n", m.Chan.Name, m.Head, m.P.Bytes(), m.P.Meta)
	}
	return b.String()
}

// sameProfile requires deep-equal Stats (or the same error) from the two
// profilers over private copies of the trace.
func sameProfile(t *testing.T, what string, prog *ir.Program, tr []*packet.Packet, ctl []profiler.Control) {
	t.Helper()
	got, gotErr := profiler.ProfileWithControls(prog, cloneTrace(tr), ctl)
	want, wantErr := profiler.RefProfileWithControls(prog, cloneTrace(tr), ctl)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%s: profile error %v, reference %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats differ from the reference\n got %+v\nwant %+v", what, got, want)
	}
}

// sameSession injects the trace into a Session on each executor and
// requires identical tx frames, heads and channels, and final globals.
func sameSession(t *testing.T, what string, prog *ir.Program, tr []*packet.Packet, ctl []profiler.Control) {
	t.Helper()
	var outs [2]string
	var mems [2]map[string][]uint32
	for i, reference := range []bool{false, true} {
		h, err := profiler.NewTestHost(prog, reference)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, c := range ctl {
			if err := h.Control(c.Name, c.Args...); err != nil {
				t.Fatalf("%s: control %s: %v", what, c.Name, err)
			}
		}
		var log strings.Builder
		for _, p := range cloneTrace(tr) {
			fmt.Fprintf(&log, "err=%q\n", errText(h.Inject(p)))
		}
		outs[i], mems[i] = log.String()+describe(h.Out()), h.Globals()
	}
	if outs[0] != outs[1] {
		t.Fatalf("%s: session output differs from the reference", what)
	}
	if !reflect.DeepEqual(mems[0], mems[1]) {
		t.Fatalf("%s: final global memory differs from the reference", what)
	}
}

// sameAggregates runs the compiled aggregates' merged entry functions the
// way the XScale path does — Interp.Prog is the whole program, the
// function comes from an aggregate's own program — routing each queued
// channel message to the entry it feeds. This is the IR with combined
// accesses, localized metadata and OpCache* in it.
func sameAggregates(t *testing.T, what string, res *driver.Result, tr []*packet.Packet, ctl []profiler.Control) {
	t.Helper()
	entries := map[string]*ir.Func{} // by input channel; "" is rx
	ops := map[ir.Op]bool{}
	for _, m := range res.Merged {
		for _, e := range m.Entries {
			name := ""
			if e.In != nil {
				name = e.In.Name
			}
			fn := m.Func(e)
			entries[name] = fn
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					ops[in.Op] = true
				}
			}
		}
	}
	if !ops[ir.OpCacheLookup] || entries[""] == nil {
		t.Fatalf("%s: merged IR has no cache lookup or no rx entry", what)
	}
	var logs [2]string
	var mems [2]map[string][]uint32
	for i, reference := range []bool{false, true} {
		h, err := profiler.NewTestHost(res.Prog, reference)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, c := range ctl {
			if err := h.Control(c.Name, c.Args...); err != nil {
				t.Fatalf("%s: control %s: %v", what, c.Name, err)
			}
		}
		var log strings.Builder
		for _, p := range cloneTrace(tr) {
			work := []profiler.OutPacket{{P: p}}
			for n := 0; len(work) > 0 && n < 64; n++ {
				m := work[0]
				work = work[1:]
				name := ""
				if m.Chan != nil {
					name = m.Chan.Name
				}
				fn := entries[name]
				if fn == nil {
					log.WriteString("out " + describe([]profiler.OutPacket{m}))
					continue
				}
				msgs, err := h.Run(fn, m.P, m.Head)
				fmt.Fprintf(&log, "%s err=%q\n", fn.Name, errText(err))
				work = append(work, msgs...)
			}
		}
		logs[i], mems[i] = log.String(), h.Globals()
	}
	if logs[0] != logs[1] {
		t.Fatalf("%s: aggregate execution differs from the reference", what)
	}
	if !strings.Contains(logs[0], "out ") {
		t.Fatalf("%s: no packet left the aggregates", what)
	}
	if !reflect.DeepEqual(mems[0], mems[1]) {
		t.Fatalf("%s: final global memory differs from the reference", what)
	}
}

func TestExecutorMatchesReference(t *testing.T) {
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		tr := a.Trace(prog.Types, 7, 512)
		snaps := &passSnapshots{prog: prog}
		res, err := driver.CompileIR(prog, driver.Config{
			Level: driver.LevelSWC, ProfileTrace: cloneTrace(tr), Controls: a.Controls,
			DumpPass: "all", DumpWriter: snaps, DumpPrefix: "app",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps.progs) != len(res.Report.Passes) || len(snaps.progs) < 10 {
			t.Fatalf("%s: %d snapshots for %d passes", a.Name, len(snaps.progs), len(res.Report.Passes))
		}
		for i, p := range snaps.progs {
			what := a.Name + " after " + snaps.names[i]
			sameProfile(t, what, p, tr, a.Controls)
			sameSession(t, what, p, tr[:128], a.Controls)
		}
		sameAggregates(t, a.Name+" aggregates", res, tr[:128], a.Controls)
	}

	for seed := uint64(0); seed < 200; seed++ {
		a := bakergen.NewSpec(seed).Build()
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := a.Trace(prog.Types, seed, 48)
		sameProfile(t, a.Name, prog, tr, a.Controls)
		sameSession(t, a.Name, prog, tr, a.Controls)
	}
}
