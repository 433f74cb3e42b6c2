package ixp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"shangrila/internal/cg"
)

// richProg exercises every ME-local and shared-state path the parallel
// engine handles differently: local memory (inline in the shard phase),
// CAM ops, non-local loads/stores at SRAM and DRAM, an atomic scratch
// test-and-set, ring gets/puts and context yields.
func richProg() *cg.Program {
	return &cg.Program{Name: "rich", Code: []*cg.Instr{
		{Op: cg.IRingGet, Ring: cg.RingRx, Dst: 0, Dst2: 16, Class: cg.ClassPacketRing},
		{Op: cg.IBccImm, Cond: cg.CNe, SrcA: 0, Imm: cg.InvalidPktID, Target: 4},
		{Op: cg.ICtxArb},
		{Op: cg.IBr, Target: 0},
		// Local memory counter (ME-private, executes in the shard phase).
		{Op: cg.IMem, Level: cg.MemLocal, Addr: cg.NoPReg, AddrOff: 16,
			NWords: 2, Data: []cg.PReg{2, 3}, Class: cg.ClassAppData},
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 2, SrcA: 2, Imm: 1},
		{Op: cg.IMem, Level: cg.MemLocal, Store: true, Addr: cg.NoPReg, AddrOff: 16,
			NWords: 2, Data: []cg.PReg{2, 3}, Class: cg.ClassAppData},
		// CAM: look the packet id up, write it into the reported slot.
		{Op: cg.ICAMLookup, SrcA: 0, Dst: 4, Dst2: 5},
		{Op: cg.ICAMWrite, SrcA: 5, SrcB: 0},
		// SRAM read-modify-write at a packet-derived address.
		{Op: cg.IALUImm, ALU: cg.AAnd, Dst: 6, SrcA: 0, Imm: 0x3f},
		{Op: cg.IALUImm, ALU: cg.AShl, Dst: 6, SrcA: 6, Imm: 2},
		{Op: cg.IMem, Level: cg.MemSRAM, Addr: 6, NWords: 1,
			Data: []cg.PReg{7}, Class: cg.ClassAppData},
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 7, SrcA: 7, Imm: 3},
		{Op: cg.IMem, Level: cg.MemSRAM, Store: true, Addr: 6, NWords: 1,
			Data: []cg.PReg{7}, Class: cg.ClassAppData},
		// DRAM burst (packet data class).
		{Op: cg.IMem, Level: cg.MemDRAM, Addr: cg.NoPReg, AddrOff: 512,
			NWords: 4, Data: []cg.PReg{8, 9, 10, 11}, Class: cg.ClassPacketData},
		// Scratch test-and-set lock probe.
		{Op: cg.IMem, Level: cg.MemScratch, Atomic: true, Addr: cg.NoPReg, AddrOff: 128,
			NWords: 1, Data: []cg.PReg{12}, Class: cg.ClassAppData},
		{Op: cg.IRingPut, Ring: cg.RingTx, SrcA: 0, SrcB: 16, Dst: 1, Class: cg.ClassPacketRing},
		{Op: cg.IBr, Target: 0},
	}}
}

// buildEngineMachine constructs a traced machine running prog on every
// ME, with the free list seeded the way runLoop does.
func buildEngineMachine(t *testing.T, spec EngineSpec, prog *cg.Program) (*Machine, *StallTracer) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SampleInterval = 10_000
	cfg.RingSlots = 64
	st := NewStallTracer(cfg.NumMEs, cfg.ThreadsPerME)
	m, err := New(cfg,
		WithMedia(&FixedDescMedia{}),
		WithEngine(spec),
		WithTracer(st))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 128)
	for i := 0; i < 100; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	for me := 0; me < cfg.NumMEs; me++ {
		m.LoadProgram(me, prog)
	}
	return m, st
}

// compareMachines asserts every observable (and the engines' internal
// clock and sequence counter) is identical between the serial reference
// and a parallel machine.
func compareMachines(t *testing.T, ref, got *Machine, refSt, gotSt *StallTracer, label string) {
	t.Helper()
	if ref.now != got.now || ref.seq != got.seq {
		t.Errorf("%s: clock/seq diverged: serial (now=%d seq=%d) parallel (now=%d seq=%d)",
			label, ref.now, ref.seq, got.now, got.seq)
	}
	if !reflect.DeepEqual(ref.Snapshot(), got.Snapshot()) {
		t.Errorf("%s: stats diverged:\nserial:   %+v\nparallel: %+v",
			label, ref.Snapshot(), got.Snapshot())
	}
	// Logical contents: the two machines' backings may have grown to
	// different lengths, and bytes past a backing read as zero.
	for _, lv := range []struct {
		level cg.MemLevel
		size  int
	}{{cg.MemScratch, ref.Cfg.ScratchBytes}, {cg.MemSRAM, ref.Cfg.SRAMBytes}, {cg.MemDRAM, ref.Cfg.DRAMBytes}} {
		if !bytes.Equal(ref.Window(lv.level, 0, lv.size), got.Window(lv.level, 0, lv.size)) {
			t.Errorf("%s: %v contents diverged", label, lv.level)
		}
	}
	for i := range ref.Rings {
		if ref.Rings[i].Len() != got.Rings[i].Len() {
			t.Errorf("%s: ring %d occupancy %d vs %d",
				label, i, ref.Rings[i].Len(), got.Rings[i].Len())
		}
	}
	if !reflect.DeepEqual(ref.LatencySnapshot(), got.LatencySnapshot()) {
		t.Errorf("%s: latency histogram diverged", label)
	}
	if refSt != nil && gotSt != nil {
		if !reflect.DeepEqual(ref.Observer().StallReport(), got.Observer().StallReport()) {
			t.Errorf("%s: stall report diverged", label)
		}
	}
}

// TestParallelDeterminism runs the forwarding loop under the serial
// engine and under the parallel engine at several shard counts —
// including degenerate single-shard and one-ME-per-shard partitions —
// across two Run windows, and demands bit-identical observables.
func TestParallelDeterminism(t *testing.T) {
	for _, prog := range []*cg.Program{loopProg(), richProg()} {
		ref, refSt := buildEngineMachine(t, EngineSerial{}, prog)
		if err := ref.Run(60_000); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(140_000); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, DefaultConfig().NumMEs} {
			m, st := buildEngineMachine(t, EngineParallel{Shards: shards}, prog)
			if name, got := m.EngineInfo(); name != "parallel" || got != shards {
				t.Fatalf("EngineInfo = (%s, %d), want (parallel, %d)", name, got, shards)
			}
			if err := m.Run(60_000); err != nil {
				t.Fatal(err)
			}
			if err := m.Run(140_000); err != nil {
				t.Fatal(err)
			}
			compareMachines(t, ref, m, refSt, st,
				prog.Name+"/shards="+itoa(shards))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestParallelResetStats checks the warm-up + measure protocol (the
// harness's shape) stays identical across engines.
func TestParallelResetStats(t *testing.T) {
	ref, _ := buildEngineMachine(t, EngineSerial{}, loopProg())
	par, _ := buildEngineMachine(t, EngineParallel{Shards: 3}, loopProg())
	for _, m := range []*Machine{ref, par} {
		if err := m.Run(50_000); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		if err := m.Run(100_000); err != nil {
			t.Fatal(err)
		}
	}
	compareMachines(t, ref, par, nil, nil, "reset-stats")
}

// TestParallelDrainsQueue checks the queue-drain exit (no media, finite
// work): the clock must stop at the last event, not the deadline.
func TestParallelDrainsQueue(t *testing.T) {
	halt := &cg.Program{Name: "halt", Code: []*cg.Instr{
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 7},
		{Op: cg.IMem, Level: cg.MemScratch, Store: true, Addr: cg.NoPReg, AddrOff: 64,
			NWords: 1, Data: []cg.PReg{1}, Class: cg.ClassAppData},
		{Op: cg.IHalt},
	}}
	run := func(spec EngineSpec) *Machine {
		cfg := DefaultConfig()
		cfg.NumRings = 1 // no Tx ring: no perpetual media tick chain
		m, err := New(cfg, WithEngine(spec))
		if err != nil {
			t.Fatal(err)
		}
		for me := 0; me < cfg.NumMEs; me++ {
			m.LoadProgram(me, halt)
		}
		if err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := run(EngineSerial{})
	par := run(EngineParallel{Shards: 4})
	if ref.now == 1_000_000 {
		t.Fatalf("serial reference ran to the deadline; expected an early drain")
	}
	compareMachines(t, ref, par, nil, nil, "drain")
}

// TestParallelFaultMatchesSerial checks a machine-check fault surfaces
// at the same cycle with the same error text and the same statistics
// under both engines, while other MEs keep running up to the fault.
func TestParallelFaultMatchesSerial(t *testing.T) {
	bad := &cg.Program{Name: "bad", Code: []*cg.Instr{
		{Op: cg.IALUImm, ALU: cg.AAdd, Dst: 1, SrcA: 1, Imm: 1},
		{Op: cg.IBccImm, Cond: cg.CLtU, SrcA: 1, Imm: 3000, Target: 0},
		// Out-of-range SRAM access once the counter trips.
		{Op: cg.IMem, Level: cg.MemSRAM, Addr: cg.NoPReg, AddrOff: 1 << 30,
			NWords: 1, Data: []cg.PReg{2}, Class: cg.ClassAppData},
		{Op: cg.IBr, Target: 0},
	}}
	run := func(spec EngineSpec) (*Machine, error) {
		cfg := DefaultConfig()
		m, err := New(cfg, WithEngine(spec))
		if err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(0, loopProg())
		m.LoadProgram(1, bad)
		return m, m.Run(500_000)
	}
	ref, refErr := run(EngineSerial{})
	par, parErr := run(EngineParallel{Shards: 4})
	if refErr == nil || parErr == nil {
		t.Fatalf("expected faults, got serial=%v parallel=%v", refErr, parErr)
	}
	if refErr.Error() != parErr.Error() {
		t.Errorf("fault text diverged:\nserial:   %v\nparallel: %v", refErr, parErr)
	}
	compareMachines(t, ref, par, nil, nil, "fault")
}

// TestParallelCallbacksAndAt checks control-plane At callbacks (a global
// event family) interleave identically with ME work.
func TestParallelCallbacksAndAt(t *testing.T) {
	run := func(spec EngineSpec) (*Machine, []int64) {
		m, _ := buildEngineMachine(t, spec, loopProg())
		var seen []int64
		m.At(25_000, func() { seen = append(seen, m.Now()) })
		m.At(25_001, func() {
			seen = append(seen, m.Now())
			m.At(25_050, func() { seen = append(seen, m.Now()) })
		})
		if err := m.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return m, seen
	}
	ref, refSeen := run(EngineSerial{})
	par, parSeen := run(EngineParallel{Shards: 4})
	if !reflect.DeepEqual(refSeen, parSeen) {
		t.Errorf("callback times diverged: serial %v parallel %v", refSeen, parSeen)
	}
	compareMachines(t, ref, par, nil, nil, "callbacks")
}

// TestEngineValidation exercises the typed construction-time failures
// and the auto shard count.
func TestEngineValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Engine = EngineParallel{Shards: -1}
	var ece *EngineConfigError
	if _, err := New(cfg); !errors.As(err, &ece) {
		t.Fatalf("Shards=-1: got %v, want *EngineConfigError", err)
	} else if ece.Shards != -1 || ece.NumMEs != cfg.NumMEs {
		t.Errorf("error fields = %+v", ece)
	}
	cfg.Engine = EngineParallel{Shards: cfg.NumMEs + 1}
	if _, err := New(cfg); !errors.As(err, &ece) {
		t.Fatalf("Shards=NumMEs+1: got %v, want *EngineConfigError", err)
	}
	// Zero means auto: resolved to at most NumMEs, at least 1.
	m, err := New(DefaultConfig(), WithEngine(EngineParallel{Shards: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if name, shards := m.EngineInfo(); name != "parallel" || shards < 1 || shards > DefaultConfig().NumMEs {
		t.Errorf("auto shards resolved to (%s, %d)", name, shards)
	}
	// The serial default reports itself.
	m2, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if name, shards := m2.EngineInfo(); name != "serial" || shards != 0 {
		t.Errorf("serial EngineInfo = (%s, %d)", name, shards)
	}
}
