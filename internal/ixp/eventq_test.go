package ixp

import (
	"fmt"
	"sort"
	"testing"

	"shangrila/internal/cg"
)

// lcg is a tiny deterministic generator so queue tests don't depend on
// math/rand ordering across Go versions.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

// TestEventQueueOrdering drives the wheel with a mix of near, far (beyond
// the wheel window) and clustered timestamps, interleaving pushes and
// pops, and checks the pop sequence is exactly the (time, seq) sort of
// everything pushed — the ordering contract every determinism property
// rests on.
func TestEventQueueOrdering(t *testing.T) {
	var q eventQueue
	var rng lcg = 42
	var pushed []event
	var popped []event
	seq := int64(0)
	now := int64(0)
	push := func(dt int64) {
		seq++
		e := event{time: now + dt, seq: seq, kind: evCallback, cb: int32(seq)}
		pushed = append(pushed, e)
		q.push(e)
	}
	for round := 0; round < 5000; round++ {
		switch rng.next() % 4 {
		case 0:
			push(int64(rng.next() % 16)) // dense near events
		case 1:
			push(int64(rng.next() % wheelSize)) // anywhere in the window
		case 2:
			push(wheelSize + int64(rng.next()%(3*wheelSize))) // far overflow
		default:
			if q.len() > 0 {
				e := q.pop()
				if e.time < now {
					t.Fatalf("pop went backward: %d after now=%d", e.time, now)
				}
				now = e.time
				popped = append(popped, e)
			}
		}
	}
	for q.len() > 0 {
		popped = append(popped, q.pop())
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d events", len(popped), len(pushed))
	}
	sort.Slice(pushed, func(i, j int) bool { return pushed[i].before(&pushed[j]) })
	for i := range pushed {
		if popped[i] != pushed[i] {
			t.Fatalf("pop %d = %+v, want %+v", i, popped[i], pushed[i])
		}
	}
}

// TestEventQueueSeqBreaksTies checks same-cycle events pop in schedule
// order. Pushes honor the producer contract (the machine's schedule
// counter is monotone, so same-timestamp events arrive in ascending seq)
// while later-seq events at earlier times interleave freely.
func TestEventQueueSeqBreaksTies(t *testing.T) {
	var q eventQueue
	q.push(event{time: 100, seq: 1})
	q.push(event{time: 50, seq: 2})
	q.push(event{time: 100, seq: 3})
	q.push(event{time: 100, seq: 4})
	q.push(event{time: 50, seq: 5})
	want := []event{{time: 50, seq: 2}, {time: 50, seq: 5},
		{time: 100, seq: 1}, {time: 100, seq: 3}, {time: 100, seq: 4}}
	for i, w := range want {
		if got := q.pop(); got.time != w.time || got.seq != w.seq {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, got.time, got.seq, w.time, w.seq)
		}
	}
}

// TestEventQueuePopUntil checks the deadline path: events at or before
// the deadline pop, the first later one stays queued and pops intact on
// the next call.
func TestEventQueuePopUntil(t *testing.T) {
	var q eventQueue
	q.push(event{time: 10, seq: 1})
	q.push(event{time: 20, seq: 2})
	q.push(event{time: 30, seq: 3})
	if e, ok := q.popUntil(20); !ok || e.time != 10 {
		t.Fatalf("popUntil(20) #1 = %+v, %v", e, ok)
	}
	if e, ok := q.popUntil(20); !ok || e.time != 20 {
		t.Fatalf("popUntil(20) #2 = %+v, %v", e, ok)
	}
	if _, ok := q.popUntil(20); ok {
		t.Fatal("popUntil(20) returned an event past the deadline")
	}
	if q.len() != 1 {
		t.Fatalf("queue len after deadline = %d, want 1", q.len())
	}
	if e, ok := q.popUntil(30); !ok || e.time != 30 {
		t.Fatalf("popUntil(30) = %+v, %v", e, ok)
	}
}

// TestEventQueuePast checks events scheduled before the wheel's base (a
// control-plane At aimed backward) still pop first.
func TestEventQueuePast(t *testing.T) {
	var q eventQueue
	q.push(event{time: 1000, seq: 1})
	if e := q.pop(); e.time != 1000 {
		t.Fatalf("setup pop = %+v", e)
	}
	q.push(event{time: 2000, seq: 2})
	q.push(event{time: 5, seq: 3}) // before base
	if e := q.pop(); e.time != 5 {
		t.Fatalf("past event did not pop first: %+v", e)
	}
	if e := q.pop(); e.time != 2000 {
		t.Fatalf("remaining pop = %+v", e)
	}
}

// TestEventQueueFarMigration drives timestamps far past the window so far
// events migrate into the wheel across several base jumps.
func TestEventQueueFarMigration(t *testing.T) {
	var q eventQueue
	times := []int64{0, 1, wheelSize + 3, 2*wheelSize + 1, 10 * wheelSize, 10*wheelSize + 1}
	for i, ti := range times {
		q.push(event{time: ti, seq: int64(i)})
	}
	var got []int64
	for q.len() > 0 {
		got = append(got, q.pop().time)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != len(times) {
		t.Fatalf("popped %d of %d", len(got), len(times))
	}
}

// TestEventQueueMixedArrivals builds one timestamp with more than
// bucketCap events, arriving three ways through the machine's At: three
// pushed beyond the window wait in the far heap and migrate when the base
// advances, three more are pushed directly into the migrated bucket, and
// a callback aimed before the base goes to the past heap. Every callback
// must run in (time, seq) order, and the queue's tallies must name the
// far and past arrivals.
func TestEventQueueMixedArrivals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRings, cfg.SampleInterval = 0, 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const far = wheelSize + 10
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	m.At(0, rec(1))
	for id := 2; id <= 4; id++ {
		m.At(far, rec(id)) // beyond [0, wheelSize): far heap
	}
	m.At(20, func() {
		rec(5)()
		for id := 6; id <= 8; id++ {
			m.At(far, rec(id)) // inside [20, 20+wheelSize): direct
		}
		m.At(5, rec(9)) // before the base: past heap
	})
	if err := m.Run(far + 100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 5, 9, 2, 3, 4, 6, 7, 8}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("callbacks ran in order %v, want %v", got, want)
	}
	c := m.QueueCounts()
	if c.Schedules != 9 || c.Far != 3 || c.Past != 1 {
		t.Errorf("queue counts %+v, want 9 schedules, 3 far, 1 past", c)
	}
}

// computeProg is a self-contained kernel touching the event core's hot
// paths — ALU runs, a scratch load (block + evReady wakeup), a context
// yield — with no media, rings or packet state, so its steady-state event
// traffic should allocate nothing at all.
func computeProg() *cg.Program {
	return &cg.Program{Name: "compute", Code: []*cg.Instr{
		{Op: cg.IImmed, Dst: 0, Imm: 1},
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 3},
		{Op: cg.IALU, ALU: cg.AXor, Dst: 2, SrcA: 1, SrcB: 0},
		{Op: cg.IMem, Level: cg.MemScratch, Addr: cg.NoPReg, AddrOff: 64,
			NWords: 1, Data: []cg.PReg{3}, Class: cg.ClassAppData},
		{Op: cg.ICtxArb},
		{Op: cg.IBr, Target: 1},
	}}
}

// blockingProg is computeProg's blocking-path counterpart: a loop of two
// ALU instructions, an SRAM load that blocks the thread, and a branch.
// With one thread per ME, every wakeup finds its ME idle and resumes it
// in the wakeup's own dispatch.
func blockingProg() *cg.Program {
	return &cg.Program{Name: "blocking", Code: []*cg.Instr{
		{Op: cg.IImmed, Dst: 0, Imm: 1},
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 3},
		{Op: cg.IALU, ALU: cg.AXor, Dst: 2, SrcA: 1, SrcB: 0},
		{Op: cg.IMem, Level: cg.MemSRAM, Addr: cg.NoPReg, AddrOff: 64,
			NWords: 1, Data: []cg.PReg{3}, Class: cg.ClassAppData},
		{Op: cg.IBr, Target: 1},
	}}
}

// warmMachine builds a default machine without telemetry, with
// threadsPerME threads running prog on every ME, and runs it 50 k cycles
// so buckets and registries have grown.
func warmMachine(tb testing.TB, threadsPerME int, prog *cg.Program) *Machine {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.SampleInterval = 0
	cfg.ThreadsPerME = threadsPerME
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < cfg.NumMEs; i++ {
		m.LoadProgram(i, prog)
	}
	if err := m.Run(50_000); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestRunSteadyStateAllocFree is the regression test for the zero-alloc
// event core: after warm-up, repeated short Run calls — including the
// deadline path that used to pop and re-push the head event every call,
// and the wakeups that resume an idle ME in place — must not allocate.
func TestRunSteadyStateAllocFree(t *testing.T) {
	for _, c := range []struct {
		name    string
		threads int
		prog    *cg.Program
	}{
		{"compute", 8, computeProg()},
		{"blocking", 1, blockingProg()},
	} {
		m := warmMachine(t, c.threads, c.prog)
		avg := testing.AllocsPerRun(200, func() {
			if err := m.Run(500); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s: steady-state Run allocates %v objects per call, want 0", c.name, avg)
		}
	}
}

// BenchmarkEventCore pins the schedule→pop round-trip cost of the event
// core on a machine executing pure compute (allocs/op is the headline:
// it must be 0).
func BenchmarkEventCore(b *testing.B) {
	benchRun(b, warmMachine(b, 8, computeProg()))
}

// BenchmarkEventCoreBlocking is the blocking path's layer benchmark: one
// thread per ME, blocking on SRAM every fourth instruction, so nearly
// every wakeup finds its ME idle (0 allocs/op).
func BenchmarkEventCoreBlocking(b *testing.B) {
	benchRun(b, warmMachine(b, 1, blockingProg()))
}

func benchRun(b *testing.B, m *Machine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Run(1000); err != nil {
			b.Fatal(err)
		}
	}
}

// runRecorder is a Tracer that keeps every dispatch window in order.
type runRecorder struct{ runs []threadRun }

type threadRun struct {
	t      int64
	me     int
	cycles int64
	reason YieldReason
}

func (r *runRecorder) ThreadRun(t int64, me, thread int, cycles int64, reason YieldReason) {
	r.runs = append(r.runs, threadRun{t, me, cycles, reason})
}
func (*runRecorder) MemAccess(int64, int, int, cg.MemLevel, int, int64, int64)        {}
func (*runRecorder) RingOp(int64, int, int, int, RingOpKind, bool, int, int64, int64) {}
func (*runRecorder) Rx(int64, uint32, int, bool)                                      {}
func (*runRecorder) Tx(int64, uint32, int, int64)                                     {}

// wakeMachine is two MEs of one thread each with no rings, media or
// sampler, so activations, wakeups and the test's callbacks are its only
// events. Controllers take no service time, so a reference completes its
// level's latency after issue. ME0 yields at cycle 0, is re-activated at
// 2 and issues a scratch load at 3 (done 3+10 = 13). ME1 issues an SRAM
// load at 1 (done 1+12 = 13). Both wake at 13, ME1's wakeup scheduled
// first, and then halt.
func wakeMachine(t *testing.T) (*Machine, *runRecorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumMEs, cfg.ThreadsPerME, cfg.NumRings = 2, 1, 0
	cfg.SampleInterval = 0
	cfg.ScratchLatency, cfg.ScratchSvcBase, cfg.ScratchSvcWord = 10, 0, 0
	cfg.SRAMLatency, cfg.SRAMSvcBase, cfg.SRAMSvcWord = 12, 0, 0
	rec := &runRecorder{}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observer().SetTracer(rec)
	load := func(level cg.MemLevel) *cg.Instr {
		return &cg.Instr{Op: cg.IMem, Level: level, Addr: cg.NoPReg, AddrOff: 64,
			NWords: 1, Data: []cg.PReg{3}, Class: cg.ClassAppData}
	}
	m.LoadProgram(0, &cg.Program{Name: "late", Code: []*cg.Instr{
		{Op: cg.ICtxArb}, load(cg.MemScratch), {Op: cg.IHalt}}})
	m.LoadProgram(1, &cg.Program{Name: "early", Code: []*cg.Instr{
		load(cg.MemSRAM), {Op: cg.IHalt}}})
	return m, rec
}

// wakeRuns is wakeMachine's dispatch windows in (time, seq) order: at 13
// ME1 runs before ME0 because its wakeup was scheduled first.
var wakeRuns = []threadRun{
	{0, 0, 1, YieldCtx},
	{0, 1, 1, YieldMem},
	{2, 0, 1, YieldMem},
	{13, 1, 1, YieldHalt},
	{13, 0, 1, YieldHalt},
}

func checkRuns(t *testing.T, got, want []threadRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dispatch windows %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d = %+v, want %+v (all: %+v)", i, got[i], want[i], got)
		}
	}
}

// TestWakeRunsInWakeupOrder: two idle MEs woken in one cycle with nothing
// else due run in that dispatch, in the order their wakeups were
// scheduled, not in ME order.
func TestWakeRunsInWakeupOrder(t *testing.T) {
	m, rec := wakeMachine(t)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	checkRuns(t, rec.runs, wakeRuns)
}

// TestWakeDefersBehindDueEvent: a callback at 13 whose seq falls between
// the two wakeups (scheduled at 1, after ME1 blocked and before ME0 did)
// is due when ME1 wakes, so ME1's activation is queued behind it: the
// callback sees neither run at 13. A second callback the first schedules
// at 13 lands between the two activations, so it sees ME1's run and not
// ME0's — the order the queue alone would give.
func TestWakeDefersBehindDueEvent(t *testing.T) {
	m, rec := wakeMachine(t)
	seen1, seen2 := -1, -1
	m.At(1, func() {
		m.At(13, func() {
			seen1 = len(rec.runs)
			m.At(13, func() { seen2 = len(rec.runs) })
		})
	})
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	checkRuns(t, rec.runs, wakeRuns)
	if seen1 != 3 || seen2 != 4 {
		t.Errorf("callbacks at 13 saw %d and %d windows, want 3 and 4", seen1, seen2)
	}
}

// TestWakeZeroLatencyAdvances: with every latency and service time 0, a
// wakeup lands one cycle after its issue, so the clock still advances, Run
// reaches its deadline, and no ME starts two windows in one cycle or one
// window before its previous one ended.
func TestWakeZeroLatencyAdvances(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMEs, cfg.ThreadsPerME, cfg.NumRings = 4, 2, 0
	cfg.SampleInterval = 0
	cfg.ScratchLatency, cfg.ScratchSvcBase, cfg.ScratchSvcWord = 0, 0, 0
	cfg.SRAMLatency, cfg.SRAMSvcBase, cfg.SRAMSvcWord = 0, 0, 0
	cfg.DRAMLatency, cfg.DRAMSvcBase, cfg.DRAMSvcWord = 0, 0, 0
	cfg.LocalLatency = 0
	rec := &runRecorder{}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Observer().SetTracer(rec)
	mem := func(level cg.MemLevel, store bool) *cg.Instr {
		return &cg.Instr{Op: cg.IMem, Level: level, Store: store, Addr: cg.NoPReg,
			AddrOff: 64, NWords: 1, Data: []cg.PReg{3}, Class: cg.ClassAppData}
	}
	prog := &cg.Program{Name: "zero", Code: []*cg.Instr{
		mem(cg.MemSRAM, false),
		mem(cg.MemLocal, false),
		mem(cg.MemDRAM, false),
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 3, SrcA: 3, Imm: 1},
		mem(cg.MemScratch, true),
		{Op: cg.IBr, Target: 0},
	}}
	for i := 0; i < cfg.NumMEs; i++ {
		m.LoadProgram(i, prog)
	}
	for _, want := range []int64{500, 1000} {
		if err := m.Run(500); err != nil {
			t.Fatal(err)
		}
		if m.Now() != want {
			t.Fatalf("clock %d after Run, want %d", m.Now(), want)
		}
	}
	last := make([]*threadRun, cfg.NumMEs)
	for i := range rec.runs {
		r := &rec.runs[i]
		if p := last[r.me]; p != nil && (r.t <= p.t || r.t < p.t+p.cycles) {
			t.Fatalf("ME%d window at %d follows one at %d of %d cycles", r.me, r.t, p.t, p.cycles)
		}
		last[r.me] = r
	}
	for me, p := range last {
		if p == nil || p.t < 900 {
			t.Errorf("ME%d last window %+v, want one near cycle 1000", me, p)
		}
	}
}
