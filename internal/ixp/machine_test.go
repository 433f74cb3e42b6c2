package ixp

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"shangrila/internal/cg"
	"shangrila/internal/ir"
)

func TestRingFIFO(t *testing.T) {
	r := newRing(4)
	for i := uint32(0); i < 4; i++ {
		if !r.Put(i, i*10) {
			t.Fatalf("put %d failed", i)
		}
	}
	if r.Put(9, 9) {
		t.Fatal("put into full ring succeeded")
	}
	for i := uint32(0); i < 4; i++ {
		a, b, ok := r.Get()
		if !ok || a != i || b != i*10 {
			t.Fatalf("get %d = (%d,%d,%v)", i, a, b, ok)
		}
	}
	if _, _, ok := r.Get(); ok {
		t.Fatal("get from empty ring succeeded")
	}
	// Wrap-around.
	for round := 0; round < 10; round++ {
		r.Put(uint32(round), 0)
		if a, _, ok := r.Get(); !ok || a != uint32(round) {
			t.Fatalf("wrap round %d", round)
		}
	}
}

func TestRingBackpressureOnFull(t *testing.T) {
	r := newRing(2)
	if !r.Put(1, 10) || !r.Put(2, 20) {
		t.Fatal("fill failed")
	}
	// Repeated puts into a full ring all fail and leave contents intact.
	for i := 0; i < 5; i++ {
		if r.Put(99, 99) {
			t.Fatalf("put %d into full ring succeeded", i)
		}
	}
	if r.Len() != 2 || r.Space() != 0 || r.MaxOcc() != 2 {
		t.Errorf("len=%d space=%d hwm=%d after rejected puts", r.Len(), r.Space(), r.MaxOcc())
	}
	if a, b, ok := r.Get(); !ok || a != 1 || b != 10 {
		t.Errorf("head entry corrupted by rejected puts: (%d,%d,%v)", a, b, ok)
	}
	// After draining one slot, a put succeeds again and the high-water
	// mark remembers the peak.
	if !r.Put(3, 30) {
		t.Error("put after drain failed")
	}
	if r.MaxOcc() != 2 {
		t.Errorf("hwm = %d, want 2", r.MaxOcc())
	}
}

func TestGrowRingPreservesEntries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingSlots = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		m.Rings[0].Put(i, i*2)
	}
	m.GrowRing(0, 16)
	if m.Rings[0].Cap() != 16 || m.Rings[0].Len() != 4 {
		t.Fatalf("cap=%d len=%d after grow", m.Rings[0].Cap(), m.Rings[0].Len())
	}
	for i := uint32(0); i < 4; i++ {
		a, b, ok := m.Rings[0].Get()
		if !ok || a != i || b != i*2 {
			t.Fatalf("entry %d = (%d,%d,%v) after grow", i, a, b, ok)
		}
	}
	// Shrinking below occupancy keeps the FIFO head and drops the tail.
	for i := uint32(0); i < 4; i++ {
		m.Rings[0].Put(i, 0)
	}
	m.GrowRing(0, 2)
	if m.Rings[0].Len() != 2 {
		t.Fatalf("len=%d after shrink, want 2", m.Rings[0].Len())
	}
	if a, _, _ := m.Rings[0].Get(); a != 0 {
		t.Errorf("shrink dropped the head, got %d", a)
	}
}

// TestGrowRingMidRun grows the Tx ring while the machine is between Run
// windows with traffic in flight: queued descriptors must survive and
// forwarding must continue.
func TestGrowRingMidRun(t *testing.T) {
	m := runLoop(t, 1)
	before := m.Snapshot()
	inFlight := m.Rings[cg.RingRx].Len() + m.Rings[cg.RingTx].Len() + m.Rings[cg.RingFree].Len()
	m.GrowRing(cg.RingTx, 256)
	m.GrowRing(cg.RingRx, 256)
	after := m.Rings[cg.RingRx].Len() + m.Rings[cg.RingTx].Len() + m.Rings[cg.RingFree].Len()
	if after != inFlight {
		t.Fatalf("grow lost descriptors: %d -> %d", inFlight, after)
	}
	if err := m.Run(200_000); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.TxPackets <= before.TxPackets {
		t.Errorf("no forwarding after mid-run grow: %d -> %d", before.TxPackets, st.TxPackets)
	}
}

func TestControllerBandwidth(t *testing.T) {
	c := &controller{level: cg.MemSRAM, latency: 90, svcBase: 8, svcWord: 1}
	st := &Stats{}
	// Two back-to-back 1-word requests at t=0: the second queues behind
	// the first's service slot.
	firstStart, first := c.access(0, 1, st)
	secondStart, second := c.access(0, 1, st)
	if firstStart != 0 || first != 0+9+90 {
		t.Errorf("first start/completion %d/%d, want 0/99", firstStart, first)
	}
	if secondStart != 9 || second != 9+9+90 {
		t.Errorf("second start/completion %d/%d, want 9/108 (queued)", secondStart, second)
	}
	// After the controller drains, a later request sees no queueing.
	thirdStart, third := c.access(1000, 4, st)
	if thirdStart != 1000 || third != 1000+12+90 {
		t.Errorf("third start/completion %d/%d, want 1000/1102", thirdStart, third)
	}
	if st.Busy[cg.MemSRAM] != 9+9+12 {
		t.Errorf("busy = %d, want 30", st.Busy[cg.MemSRAM])
	}
}

// TestALUSemantics holds aluEval to ir.EvalALU for every ALU op, through
// the IR word op each computes (AMov has none: it gives its operand), over
// random words and the edge words.
func TestALUSemantics(t *testing.T) {
	aluWordOps := map[cg.ALUOp]ir.Op{
		cg.AAdd: ir.OpAdd, cg.ASub: ir.OpSub, cg.AMul: ir.OpMul, cg.AAnd: ir.OpAnd,
		cg.AOr: ir.OpOr, cg.AXor: ir.OpXor, cg.AShl: ir.OpShl, cg.AShrU: ir.OpShrU,
		cg.AShrS: ir.OpShrS, cg.ANot: ir.OpNot, cg.ANeg: ir.OpNeg,
		cg.ADivU: ir.OpDivU, cg.ARemU: ir.OpRemU,
	}
	n := 0
	for op := cg.ALUOp(0); !strings.HasPrefix(op.String(), "aluop("); op++ {
		n++
		wop, ok := aluWordOps[op]
		if !ok && op != cg.AMov {
			t.Fatalf("ALU op %v has no IR word op in the test's table", op)
		}
		f := func(a, b uint32) bool {
			want, _ := ir.EvalALU(wop, a, b)
			if op == cg.AMov {
				want = a
			}
			return aluEval(op, a, b) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: %v", op, err)
		}
		for _, a := range edgeWords {
			for _, b := range edgeWords {
				if !f(a, b) {
					t.Errorf("%v(%#x, %#x) = %#x", op, a, b, aluEval(op, a, b))
				}
			}
		}
	}
	if n != len(aluWordOps)+1 {
		t.Errorf("%d ALU ops, the table maps %d and AMov", n, len(aluWordOps))
	}
}

// TestCondSemantics holds condEval to ir.EvalALU's 0 or 1 for every branch
// condition, through the IR comparison each computes.
func TestCondSemantics(t *testing.T) {
	condWordOps := map[cg.CondOp]ir.Op{
		cg.CEq: ir.OpEq, cg.CNe: ir.OpNe, cg.CLtU: ir.OpLtU, cg.CLeU: ir.OpLeU,
		cg.CLtS: ir.OpLtS, cg.CLeS: ir.OpLeS,
	}
	n := 0
	for c := cg.CondOp(0); !strings.HasPrefix(c.String(), "cond("); c++ {
		n++
		wop, ok := condWordOps[c]
		if !ok {
			t.Fatalf("condition %v has no IR word op in the test's table", c)
		}
		f := func(a, b uint32) bool {
			want, _ := ir.EvalALU(wop, a, b)
			return condEval(c, a, b) == (want == 1)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%v: %v", c, err)
		}
		for _, a := range edgeWords {
			for _, b := range edgeWords {
				if !f(a, b) {
					t.Errorf("%v(%#x, %#x) = %v", c, a, b, condEval(c, a, b))
				}
			}
		}
	}
	if n != len(condWordOps) {
		t.Errorf("%d conditions, the table maps %d", n, len(condWordOps))
	}
}

// edgeWords are the operands where shift masking, signedness and
// division by zero show.
var edgeWords = []uint32{0, 1, 31, 32, 33, 0x7fffffff, 0x80000000, 0xffffffff}

// loopProg returns a program that increments a counter in scratch and
// forwards descriptors.
func loopProg() *cg.Program {
	return &cg.Program{Name: "loop", Code: []*cg.Instr{
		{Op: cg.IRingGet, Ring: cg.RingRx, Dst: 0, Dst2: 16, Class: cg.ClassPacketRing},
		{Op: cg.IBccImm, Cond: cg.CNe, SrcA: 0, Imm: cg.InvalidPktID, Target: 4},
		{Op: cg.ICtxArb},
		{Op: cg.IBr, Target: 0},
		{Op: cg.IMem, Level: cg.MemScratch, Addr: cg.NoPReg, AddrOff: 256,
			NWords: 1, Data: []cg.PReg{1}, Class: cg.ClassAppData},
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 1},
		{Op: cg.IMem, Level: cg.MemScratch, Store: true, Addr: cg.NoPReg, AddrOff: 256,
			NWords: 1, Data: []cg.PReg{1}, Class: cg.ClassAppData},
		{Op: cg.IRingPut, Ring: cg.RingTx, SrcA: 0, SrcB: 16, Dst: 1, Class: cg.ClassPacketRing},
		{Op: cg.IBr, Target: 0},
	}}
}

func runLoop(t *testing.T, seed int) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SampleInterval = 10_000
	cfg.RingSlots = 64
	m, err := New(cfg, WithMedia(&FixedDescMedia{}))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 128)
	for i := 0; i < 100; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	mustLoad(t, m, 0, loopProg())
	mustLoad(t, m, 1, loopProg())
	if err := m.Run(200_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineForwardsAndCounts(t *testing.T) {
	m := runLoop(t, 1)
	st := m.Snapshot()
	if st.TxPackets == 0 {
		t.Fatal("nothing forwarded")
	}
	// The scratch counter was incremented once per forwarded packet
	// (remaining in-flight packets may have bumped it too).
	got := binary.BigEndian.Uint32(m.Scratch[256:])
	if uint64(got) < st.TxPackets {
		t.Errorf("counter %d < tx %d", got, st.TxPackets)
	}
	// ME-issued accounting: 2 app-scratch accesses per processed packet.
	app := st.MEAccesses[AccessKey{cg.MemScratch, cg.ClassAppData}]
	if app < 2*st.TxPackets {
		t.Errorf("app scratch %d < 2*tx %d", app, st.TxPackets)
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	m := runLoop(t, 1)
	st := m.Snapshot()
	st.MEAccesses[AccessKey{cg.MemScratch, cg.ClassAppData}] = 0
	st.MEInstrs[0] = 0
	st.MEBusy[0] = 0
	again := m.Snapshot()
	if again.MEAccesses[AccessKey{cg.MemScratch, cg.ClassAppData}] == 0 {
		t.Error("mutating a snapshot map reached the machine's counters")
	}
	if again.MEInstrs[0] == 0 || again.MEBusy[0] == 0 {
		t.Error("mutating a snapshot slice reached the machine's counters")
	}
}

func TestMachineDeterminism(t *testing.T) {
	a := runLoop(t, 1).Snapshot()
	b := runLoop(t, 1).Snapshot()
	if a.TxPackets != b.TxPackets || a.Cycles != b.Cycles {
		t.Errorf("non-deterministic: %d/%d vs %d/%d packets/cycles",
			a.TxPackets, a.Cycles, b.TxPackets, b.Cycles)
	}
}

func TestPortRateCapsThroughput(t *testing.T) {
	m := runLoop(t, 1)
	st := m.Snapshot()
	gbps := st.Gbps(m.Cfg.ClockMHz)
	if gbps > m.Cfg.PortGbps*1.05 {
		t.Errorf("rate %.2f exceeds port capacity %.1f", gbps, m.Cfg.PortGbps)
	}
}

func TestTelemetrySampling(t *testing.T) {
	m := runLoop(t, 1) // SampleInterval 10k over 200k cycles
	snap := m.Observer().Metrics().Snapshot()
	util := snap.Series["me0.util"]
	if len(util) < 15 {
		t.Fatalf("me0.util has %d samples, want ~20", len(util))
	}
	var maxU float64
	for _, s := range util {
		if s.V < 0 || s.V > 1.0 {
			t.Errorf("utilization sample %v out of [0,1]", s.V)
		}
		if s.V > maxU {
			maxU = s.V
		}
	}
	if maxU == 0 {
		t.Error("ME0 ran a forwarding loop but sampled utilization stayed 0")
	}
	// Disabled MEs never execute.
	for _, s := range snap.Series["me7.util"] {
		if s.V != 0 {
			t.Errorf("disabled ME shows utilization %v", s.V)
		}
	}
	sat := snap.Series["ctrl.scratch.sat"]
	if len(sat) == 0 {
		t.Fatal("no scratch controller saturation samples")
	}
	var satSum float64
	for _, s := range sat {
		satSum += s.V
	}
	if satSum == 0 {
		t.Error("scratch controller served ring traffic but saturation stayed 0")
	}
	if len(snap.Series["ring0.occ"]) == 0 {
		t.Error("no ring occupancy samples")
	}
	// Aggregate stats agree in direction with the sampled series.
	st := m.Snapshot()
	if st.Utilization(0) <= 0 || st.Saturation(cg.MemScratch) <= 0 {
		t.Errorf("aggregate util=%v sat=%v, want positive",
			st.Utilization(0), st.Saturation(cg.MemScratch))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ClockMHz = 0 },
		func(c *Config) { c.ClockMHz = -600 },
		func(c *Config) { c.PortGbps = 0 },
		func(c *Config) { c.PortGbps = -1 },
		func(c *Config) { c.NumMEs = 0 },
		func(c *Config) { c.NumMEs = maxMEs + 1 },
		func(c *Config) { c.ThreadsPerME = -1 },
		func(c *Config) { c.ThreadsPerME = 65 },
		func(c *Config) { c.ScratchBytes = 0 },
		func(c *Config) { c.SRAMLatency = -5 },
		func(c *Config) { c.CAMEntries = 0 },
		func(c *Config) { c.SampleInterval = -1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted an invalid config", i)
		}
	}
	cfg := DefaultConfig()
	cfg.NumRings = -1
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a negative ring count")
	}
	cfg = DefaultConfig()
	cfg.RingSlots = 0
	if _, err := New(cfg); err == nil {
		t.Error("New accepted zero ring slots")
	}
}

// TestParseEngine pins the contract bench/ relies on: the serial engine
// parses to the nil default, and every removed engine or shard count is
// rejected with an error naming the valid set.
func TestParseEngine(t *testing.T) {
	for _, name := range []string{"", "serial"} {
		if spec, err := ParseEngine(name, 0); err != nil || spec != nil {
			t.Errorf("ParseEngine(%q, 0) = %v, %v; want nil, nil", name, spec, err)
		}
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"parallel", 2}, {"compiled", 0}, {"serial", 1}} {
		_, err := ParseEngine(tc.name, tc.shards)
		if err == nil {
			t.Errorf("ParseEngine(%q, %d) accepted", tc.name, tc.shards)
			continue
		}
		for _, valid := range EngineNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("ParseEngine(%q, %d) error %q does not list %q", tc.name, tc.shards, err, valid)
			}
		}
	}
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if name, shards := m.EngineInfo(); name != "serial" || shards != 0 {
		t.Errorf("EngineInfo = (%s, %d), want (serial, 0)", name, shards)
	}
}

// TestRunRejectsNegativeBudget: a negative cycle budget is a BudgetError
// naming it, and the clock and counters stay where the last Run left them.
func TestRunRejectsNegativeBudget(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustLoad(t, m, 0, computeProg())
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	err = m.Run(-500)
	var be *BudgetError
	if !errors.As(err, &be) || be.Cycles != -500 || !strings.Contains(err.Error(), "-500") {
		t.Fatalf("Run(-500) = %v, want a BudgetError naming -500", err)
	}
	if m.Now() != 1000 || m.Snapshot().Cycles != 1000 {
		t.Errorf("after Run(-500): clock %d, stats cycles %d; want both 1000", m.Now(), m.Snapshot().Cycles)
	}
	if err := m.Run(10); err != nil || m.Now() != 1010 {
		t.Errorf("Run(10) after the rejection: %v, clock %d; want nil, 1010", err, m.Now())
	}
}

func TestRxIntervalDegenerateConfigs(t *testing.T) {
	for _, c := range []Config{
		{PortGbps: 0, ClockMHz: 600},
		{PortGbps: -2, ClockMHz: 600},
		{PortGbps: 3, ClockMHz: 0},
		{PortGbps: 3, ClockMHz: -1},
	} {
		if iv := c.RxIntervalCycles(64 * 8); iv != 64 {
			t.Errorf("config %+v: interval %v, want fallback 64", c, iv)
		}
	}
	// Absurdly fast port: the interval stays positive instead of 0.
	c := Config{PortGbps: 1e6, ClockMHz: 600}
	if iv := c.RxIntervalCycles(64 * 8); !(iv > 0) {
		t.Errorf("interval %v, want > 0", iv)
	}
}

func TestGbpsDegenerateClock(t *testing.T) {
	s := &Stats{Cycles: 1000, TxBits: 64_000}
	for _, clock := range []float64{0, -600} {
		if g := s.Gbps(clock); g != 0 {
			t.Errorf("Gbps(%v) = %v, want 0 (not NaN/Inf)", clock, g)
		}
	}
}

func TestCAMLRUReplacement(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	me := m.MEs[0]
	// Fill all 16 entries.
	for i := 0; i < 16; i++ {
		hit, entry := m.camLookup(me, uint32(100+i))
		if hit != 0 {
			t.Fatalf("unexpected hit for %d", i)
		}
		me.cam[entry] = camEntry{tag: uint32(100 + i), valid: true}
		m.camTouch(me, int(entry))
	}
	// All hits now.
	for i := 0; i < 16; i++ {
		if hit, _ := m.camLookup(me, uint32(100+i)); hit != 1 {
			t.Fatalf("miss for cached key %d", i)
		}
	}
	// Touch 100..114, leaving 115 LRU; a miss must evict entry of 115.
	for i := 0; i < 15; i++ {
		m.camLookup(me, uint32(100+i))
	}
	_, victim := m.camLookup(me, 999)
	if me.cam[victim].tag != 115 {
		t.Errorf("LRU victim holds %d, want 115", me.cam[victim].tag)
	}
}

func TestMemOutOfRangeFaults(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := &cg.Program{Name: "bad", Code: []*cg.Instr{
		{Op: cg.IMem, Level: cg.MemScratch, Addr: cg.NoPReg,
			AddrOff: uint32(cfg.ScratchBytes), NWords: 1, Data: []cg.PReg{0}},
		{Op: cg.IHalt},
	}}
	mustLoad(t, m, 0, prog)
	if err := m.Run(10_000); err == nil {
		t.Fatal("expected machine check for out-of-range access")
	}
}

func TestAtomicTestAndSet(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := &cg.Program{Name: "tas", Code: []*cg.Instr{
		{Op: cg.IMem, Level: cg.MemScratch, Addr: cg.NoPReg, AddrOff: 512,
			NWords: 1, Data: []cg.PReg{2}, Atomic: true, Class: cg.ClassAppData},
		{Op: cg.IHalt},
	}}
	mustLoad(t, m, 0, prog)
	if err := m.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(m.Scratch[512:]) != 1 {
		t.Errorf("test-and-set did not set the lock word")
	}
	if m.MEs[0].threads[0].regs[2] != 0 {
		t.Errorf("test-and-set returned %d, want previous value 0", m.MEs[0].threads[0].regs[2])
	}
}

// mustLoad loads prog on ME me and fails the test if the machine refuses it.
func mustLoad(tb testing.TB, m *Machine, me int, prog *cg.Program) {
	tb.Helper()
	if err := m.LoadProgram(me, prog); err != nil {
		tb.Fatal(err)
	}
}
