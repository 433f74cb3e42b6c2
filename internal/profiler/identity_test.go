package profiler_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/types"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// updateGolden rewrites testdata/identity.golden from this executor:
//
//	go test ./internal/profiler -run TestExecutorIdentity -update-golden
//
// Rewrite it only for a deliberate change of what the executor computes.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/identity.golden")

const identityGolden = "testdata/identity.golden"

// passSnapshots clones prog every time the driver starts a per-pass IR
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

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func cloneTrace(tr []*packet.Packet) []*packet.Packet {
	out := make([]*packet.Packet, len(tr))
	for i, p := range tr {
		out[i] = p.Clone()
	}
	return out
}

func describeOut(b *strings.Builder, ms []profiler.OutPacket) {
	for _, m := range ms {
		fmt.Fprintf(b, "out %s@%d %x meta %x\n", m.Chan.Name, m.Head, m.P.Bytes(), m.P.Meta)
	}
}

// describeStats renders every count of a profile, line reads in line order.
func describeStats(b *strings.Builder, prog *ir.Program, st *profiler.Stats) {
	fmt.Fprintf(b, "packets %d forwarded %d dropped %d\n", st.Packets, st.Forwarded, st.Dropped)
	for i, f := range st.Funcs {
		fmt.Fprintf(b, "func %s %+v\n", prog.Funcs[i].Name, f)
	}
	fmt.Fprintf(b, "chans %v\n", st.Chans)
	for id, g := range st.Globals {
		lines := make([]uint32, 0, len(g.LineReads))
		for l := range g.LineReads {
			lines = append(lines, l)
		}
		slices.Sort(lines)
		fmt.Fprintf(b, "global %d reads %d writes %d crit %v lines", id, g.Reads, g.Writes, g.InCritical)
		for _, l := range lines {
			fmt.Fprintf(b, " %d:%d", l, g.LineReads[l])
		}
		b.WriteByte('\n')
	}
}

// describeRun renders a profile of prog over tr after the controls, and a
// Session that applies the controls, injects a copy of every packet and
// reads back every word of every global.
func describeRun(prog *ir.Program, tr []*packet.Packet, ctl []profiler.Control) string {
	var b strings.Builder
	st, err := profiler.ProfileWithControls(prog, tr, ctl)
	fmt.Fprintf(&b, "profile %s\n", errText(err))
	if err == nil {
		describeStats(&b, prog, st)
	}
	s, err := profiler.NewSession(prog)
	fmt.Fprintf(&b, "session %s\n", errText(err))
	if err != nil {
		return b.String()
	}
	for _, c := range ctl {
		fmt.Fprintf(&b, "control %s %s\n", c.Name, errText(s.Control(c.Name, c.Args...)))
	}
	for _, p := range cloneTrace(tr) {
		fmt.Fprintf(&b, "inject %s\n", errText(s.Inject(p)))
	}
	describeOut(&b, s.Out)
	fmt.Fprintf(&b, "packets %d forwarded %d dropped %d\n", s.Stats.Packets, s.Stats.Forwarded, s.Stats.Dropped)
	describeGlobals(&b, prog.Types, func(g *types.Global, off uint32) string {
		w, err := s.ReadGlobalWord(g.Name, off)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(w)
	})
	return b.String()
}

// describeGlobals renders every word of every global, in Global.ID order.
func describeGlobals(b *strings.Builder, tp *types.Program, word func(*types.Global, uint32) string) {
	gs := make([]*types.Global, 0, len(tp.Globals))
	for _, g := range tp.Globals {
		gs = append(gs, g)
	}
	slices.SortFunc(gs, func(x, y *types.Global) int { return x.ID - y.ID })
	for _, g := range gs {
		fmt.Fprintf(b, "%s", g.Name)
		for off := uint32(0); off+4 <= uint32(g.Type.SizeBytes()); off += 4 {
			b.WriteString(" " + word(g, off))
		}
		b.WriteByte('\n')
	}
}

// memEnv is a host-memory Env that is not the profiler's own, as the
// runtime's XScale path is not: every global access goes through the Env.
type memEnv struct {
	tp    *types.Program
	mem   map[*types.Global][]uint32
	queue []profiler.OutPacket
	log   *strings.Builder
}

func (e *memEnv) words(g *types.Global, off uint32, n int) ([]uint32, error) {
	m := e.mem[g]
	if m == nil {
		m = make([]uint32, (g.Type.SizeBytes()+3)/4)
		e.mem[g] = m
	}
	if int(off/4)+n > len(m) {
		return nil, fmt.Errorf("global %s out of range (off %d, %d words)", g.Name, off, n)
	}
	return m[off/4 : int(off/4)+n], nil
}

func (e *memEnv) LoadWords(g *types.Global, off uint32, n int) ([]uint32, error) {
	return e.words(g, off, n)
}

func (e *memEnv) StoreWords(g *types.Global, off uint32, words []uint32) error {
	m, err := e.words(g, off, len(words))
	copy(m, words)
	return err
}

func (e *memEnv) ChannelPut(ch *types.Channel, p *packet.Packet, head int) error {
	e.queue = append(e.queue, profiler.OutPacket{Chan: ch, P: p, Head: head})
	return nil
}

func (e *memEnv) Drop(p *packet.Packet) { e.log.WriteString("drop\n") }
func (e *memEnv) Lock(id int)           { fmt.Fprintf(e.log, "lock %d\n", id) }
func (e *memEnv) Unlock(id int)         { fmt.Fprintf(e.log, "unlock %d\n", id) }

func (e *memEnv) NewPacket(proto *types.Protocol) *packet.Packet {
	size := proto.FixedSize
	if size < 0 {
		size = proto.HeaderMin
	}
	return packet.NewZero(size, e.tp.Metadata.Bytes)
}

// describeAggregates runs the compiled aggregates' merged entry functions
// the way the XScale path does — Interp.Prog is the whole program, the
// function comes from an aggregate's own program — against memEnv,
// routing each queued channel message to the entry it feeds. This is the
// IR with combined accesses, localized metadata and OpCache* in it.
func describeAggregates(t *testing.T, what string, res *driver.Result, tr []*packet.Packet, ctl []profiler.Control) string {
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
	var b strings.Builder
	env := &memEnv{tp: res.Prog.Types, mem: map[*types.Global][]uint32{}, log: &b}
	it := &profiler.Interp{Prog: res.Prog, Env: env}
	for _, fn := range res.Prog.Funcs {
		if fn.Kind == ir.FuncInit && len(fn.Params) == 0 {
			_, err := it.Run(fn, nil)
			fmt.Fprintf(&b, "init %s %s\n", fn.Name, errText(err))
		}
	}
	for _, c := range ctl {
		args := make([]profiler.Value, len(c.Args))
		for i, a := range c.Args {
			args[i] = profiler.Value{W: a}
		}
		_, err := it.Run(res.Prog.Func(c.Name), args)
		fmt.Fprintf(&b, "control %s %s\n", c.Name, errText(err))
	}
	for _, p := range cloneTrace(tr) {
		env.queue = append(env.queue[:0], profiler.OutPacket{P: p})
		for n := 0; len(env.queue) > 0 && n < 64; n++ {
			m := env.queue[0]
			env.queue = env.queue[1:]
			name := ""
			if m.Chan != nil {
				name = m.Chan.Name
			}
			fn := entries[name]
			if fn == nil {
				describeOut(&b, []profiler.OutPacket{m})
				continue
			}
			_, err := it.Run(fn, []profiler.Value{{P: m.P, Head: m.Head}})
			fmt.Fprintf(&b, "%s %s\n", fn.Name, errText(err))
		}
	}
	if !strings.Contains(b.String(), "out ") {
		t.Fatalf("%s: no packet left the aggregates", what)
	}
	describeGlobals(&b, res.Prog.Types, func(g *types.Global, off uint32) string {
		w, err := env.words(g, off, 1)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprint(w[0])
	})
	return b.String()
}

func digest(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestExecutorIdentity pins what the executor computes on real and
// generated IR to digests taken before its register banks, host-global
// fast path and superinstructions: every profile count, every Session's
// per-packet errors, transmitted frames and final global words, and the
// compiled aggregates run through an Env that is not the profiler's own.
// The inputs are the three apps' IR after every pass of a +SWC compile,
// their merged aggregates, and bakergen programs 0-199, each over seed-1
// traces of 12 and 512 packets. It checks no wall-clock time.
func TestExecutorIdentity(t *testing.T) {
	var got strings.Builder
	line := func(name string, n int, text string) {
		fmt.Fprintf(&got, "%s n=%d %s\n", name, n, digest(text))
	}
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		traces := map[int][]*packet.Packet{12: a.Trace(prog.Types, 1, 12), 512: a.Trace(prog.Types, 1, 512)}
		snaps := &passSnapshots{prog: prog}
		res, err := driver.CompileIR(prog, driver.Config{
			Level: driver.LevelSWC, ProfileTrace: traces[512], Controls: a.Controls,
			DumpPass: "all", DumpWriter: snaps, DumpPrefix: "app",
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps.progs) != len(res.Report.Passes) || len(snaps.progs) < 10 {
			t.Fatalf("%s: %d snapshots for %d passes", a.Name, len(snaps.progs), len(res.Report.Passes))
		}
		for _, n := range []int{12, 512} {
			for i, p := range snaps.progs {
				line(a.Name+"/"+snaps.names[i], n, describeRun(p, traces[n], a.Controls))
			}
			line(a.Name+"/aggregates", n, describeAggregates(t, a.Name, res, traces[n], a.Controls))
		}
	}
	for seed := uint64(0); seed < 200; seed++ {
		a := bakergen.NewSpec(seed).Build()
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, n := range []int{12, 512} {
			line(fmt.Sprintf("bakergen/%d", seed), n, describeRun(prog, a.Trace(prog.Types, 1, n), a.Controls))
		}
	}

	if *updateGolden {
		if err := os.WriteFile(identityGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(identityGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	gs, ws := bufio.NewScanner(strings.NewReader(got.String())), bufio.NewScanner(bytes.NewReader(want))
	for gs.Scan() {
		if !ws.Scan() {
			t.Fatalf("extra line %q", gs.Text())
		}
		if gs.Text() != ws.Text() {
			t.Fatalf("executor output changed: got %q, want %q", gs.Text(), ws.Text())
		}
	}
	if ws.Scan() {
		t.Fatalf("missing line %q", ws.Text())
	}
}
