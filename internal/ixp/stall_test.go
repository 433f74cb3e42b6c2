package ixp

import (
	"testing"

	"shangrila/internal/cg"
)

// runTraced builds the standard two-ME forwarding loop with a StallTracer
// attached from cycle 0 and runs it for cycles.
func runTraced(t *testing.T, cycles int64) (*Machine, *StallTracer) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RingSlots = 64
	m, err := New(cfg, WithMedia(&FixedDescMedia{}))
	if err != nil {
		t.Fatal(err)
	}
	st := NewStallTracer(cfg.NumMEs, cfg.ThreadsPerME)
	m.Observer().SetTracer(st)
	m.GrowRing(cg.RingFree, 128)
	for i := 0; i < 100; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	mustLoad(t, m, 0, loopProg())
	mustLoad(t, m, 1, loopProg())
	if err := m.Run(cycles); err != nil {
		t.Fatal(err)
	}
	return m, st
}

// checkConservation asserts the breakdown's defining invariant: every ME
// row's categories sum exactly to the window — no cycle is double-counted
// or lost.
func checkConservation(t *testing.T, rep *StallReport) {
	t.Helper()
	if rep == nil {
		t.Fatal("no stall report")
	}
	for _, me := range rep.MEs {
		if me.Cycles != rep.Cycles {
			t.Errorf("ME%d window %d != report window %d", me.ME, me.Cycles, rep.Cycles)
		}
		if got := me.Total(); got != me.Cycles {
			t.Errorf("ME%d categories sum to %d, want exactly %d (compute %d, ring %d, idle %d, lat %v, q %v)",
				me.ME, got, me.Cycles, me.Compute, me.Ring, me.Idle, me.MemLatency, me.MemQueue)
		}
	}
	tot := rep.Totals()
	if tot.Total() != tot.Cycles {
		t.Errorf("Totals sum %d != %d", tot.Total(), tot.Cycles)
	}
}

// TestStallConservation: the per-ME stall categories account for 100% of
// the simulated window, exactly, on a live forwarding workload — and keep
// doing so after a warm-up reset.
func TestStallConservation(t *testing.T) {
	m, _ := runTraced(t, 200_000)
	rep := m.Observer().StallReport()
	checkConservation(t, rep)
	if rep.Cycles == 0 {
		t.Fatal("empty window")
	}

	// Busy MEs show compute; disabled MEs are pure idle.
	if rep.MEs[0].Compute == 0 {
		t.Error("ME0 ran a forwarding loop but shows zero compute")
	}
	idleME := rep.MEs[len(rep.MEs)-1]
	if idleME.Idle != rep.Cycles {
		t.Errorf("disabled ME: idle %d, want the whole window %d", idleME.Idle, rep.Cycles)
	}
	// The loop issues scratch ring/memory ops; some blocked time must be
	// attributed to the scratch controller (latency and/or queueing).
	busy := rep.MEs[0]
	if busy.MemLatency["scratch"]+busy.MemQueue["scratch"] == 0 {
		t.Error("forwarding loop shows no scratch stall time")
	}
	// Regression: the machine reports a window's accesses before the window
	// itself, so the wake ending a gap may already be displaced by the woken
	// thread's next access; those gaps must still attribute to memory. A
	// leak shows up as ME-level idle far above the threads' own idle share —
	// an engine is only idle when its threads have nothing to do (failed
	// pops), which the thread rows record directly.
	var thrIdle, thrCycles int64
	for _, th := range busy.Threads {
		thrIdle += th.Idle
		thrCycles += busy.Cycles
	}
	if meIdle, tIdle := busy.StallShare("idle"), float64(thrIdle)/float64(thrCycles); meIdle > tIdle+0.1 {
		t.Errorf("busy ME idle share %.2f exceeds thread idle share %.2f (displaced wakes leaking to idle):\n%s",
			meIdle, tIdle, rep)
	}

	// Warm-up pattern: reset the window mid-run, keep going, and the new
	// window must balance exactly too (in-flight blocks straddle the
	// boundary).
	m.ResetStats()
	if err := m.Run(150_000); err != nil {
		t.Fatal(err)
	}
	rep2 := m.Observer().StallReport()
	checkConservation(t, rep2)
	if rep2.Cycles >= rep.Cycles+150_001 || rep2.Cycles < 140_000 {
		t.Errorf("post-reset window %d, want ~150000", rep2.Cycles)
	}
}

// TestStallThreadRowsNest: thread rows attribute each thread's own blocked
// intervals; threads block concurrently, so each row stays within the
// window but rows are not required to sum to it.
func TestStallThreadRowsNest(t *testing.T) {
	m, _ := runTraced(t, 200_000)
	rep := m.Observer().StallReport()
	for _, me := range rep.MEs {
		if len(me.Threads) != m.Cfg.ThreadsPerME {
			t.Fatalf("ME%d has %d thread rows, want %d", me.ME, len(me.Threads), m.Cfg.ThreadsPerME)
		}
		for _, th := range me.Threads {
			if th.Compute < 0 || th.Ring < 0 || th.Idle < 0 {
				t.Errorf("ME%d/T%d negative category: %+v", me.ME, th.Thread, th.Stall)
			}
			if th.Compute > me.Cycles {
				t.Errorf("ME%d/T%d compute %d exceeds window %d", me.ME, th.Thread, th.Compute, me.Cycles)
			}
		}
	}
}

// TestStallShare pins the category arithmetic of the share accessor.
func TestStallShare(t *testing.T) {
	s := Stall{
		Cycles:  1000,
		Compute: 400,
		Ring:    100,
		Idle:    100,
		MemLatency: map[string]int64{
			"scratch": 50, "sram": 50, "dram": 100,
		},
		MemQueue: map[string]int64{
			"scratch": 0, "sram": 50, "dram": 150,
		},
	}
	checks := map[string]float64{
		"compute":           0.4,
		"ring":              0.1,
		"idle":              0.1,
		"mem_latency":       0.2,
		"mem_queue":         0.2,
		"mem_queue.dram":    0.15,
		"mem_latency.sram":  0.05,
		"mem_queue.scratch": 0,
		"bogus":             0,
	}
	for cat, want := range checks {
		if got := s.StallShare(cat); got != want {
			t.Errorf("StallShare(%q) = %v, want %v", cat, got, want)
		}
	}
	if s.Total() != s.Cycles {
		t.Errorf("Total %d != Cycles %d", s.Total(), s.Cycles)
	}
	var empty Stall
	if empty.StallShare("compute") != 0 {
		t.Error("empty row share not 0")
	}
}

// TestStallIdleAttribution: an enabled ME spinning on an empty Rx ring
// (failed pops) charges its blocked time to idle, not to memory.
func TestStallIdleAttribution(t *testing.T) {
	cfg := DefaultConfig()
	m, err := New(cfg) // no media: the Rx ring stays empty
	if err != nil {
		t.Fatal(err)
	}
	st := NewStallTracer(cfg.NumMEs, cfg.ThreadsPerME)
	m.Observer().SetTracer(st)
	mustLoad(t, m, 0, loopProg())
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	rep := m.Observer().StallReport()
	checkConservation(t, rep)
	me0 := rep.MEs[0]
	if share := me0.StallShare("idle"); share < 0.5 {
		t.Errorf("starved ME idle share %.2f, want > 0.5:\n%s", share, rep)
	}
	if me0.StallShare("mem_queue") > 0.1 {
		t.Errorf("starved ME shows memory queueing:\n%s", rep)
	}
}

// TestMultiTracerComposition: a MultiTracer fans events out to every sink,
// collapses trivial cases, and forwards window resets.
func TestMultiTracerComposition(t *testing.T) {
	if MultiTracer() != nil {
		t.Error("empty MultiTracer != nil")
	}
	st := NewStallTracer(1, 2)
	if MultiTracer(st) != Tracer(st) {
		t.Error("single-element MultiTracer not collapsed")
	}
	if MultiTracer(nil, st, nil) != Tracer(st) {
		t.Error("nils not dropped from MultiTracer")
	}

	ct := NewChromeTracer(600)
	mt := MultiTracer(st, ct)
	mt.ThreadRun(0, 0, 0, 10, YieldMem)
	mt.MemAccess(10, 0, 0, cg.MemDRAM, 2, 15, 130)
	if ct.Len() != 2 {
		t.Errorf("chrome sink saw %d events, want 2", ct.Len())
	}
	// ResetWindow reaches the StallTracer member through the composite.
	if wr, ok := mt.(windowResetter); !ok {
		t.Fatal("multiTracer does not forward window resets")
	} else {
		wr.ResetWindow(500)
	}
	rep := st.Report(700, nil)
	if rep.Cycles != 200 {
		t.Errorf("window after composite reset = %d, want 200", rep.Cycles)
	}
	checkConservation(t, rep)
}

// BenchmarkTracerOverhead measures the per-cycle cost of the tracing hooks:
// "disabled" is the production configuration (nil tracer — every emit site
// is one pointer check) and must stay within noise of pre-tracing builds;
// the sink variants bound the enabled cost.
func BenchmarkTracerOverhead(b *testing.B) {
	bench := func(b *testing.B, mk func(cfg Config) Tracer) {
		cfg := DefaultConfig()
		cfg.RingSlots = 64
		cfg.SampleInterval = 0
		m, err := New(cfg, WithMedia(&FixedDescMedia{}))
		if err != nil {
			b.Fatal(err)
		}
		if tr := mk(cfg); tr != nil {
			m.Observer().SetTracer(tr)
		}
		m.GrowRing(cg.RingFree, 128)
		for i := 0; i < 100; i++ {
			m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
		}
		mustLoad(b, m, 0, loopProg())
		mustLoad(b, m, 1, loopProg())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Run(10_000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) {
		bench(b, func(Config) Tracer { return nil })
	})
	b.Run("stall", func(b *testing.B) {
		bench(b, func(cfg Config) Tracer {
			return NewStallTracer(cfg.NumMEs, cfg.ThreadsPerME)
		})
	})
	b.Run("chrome", func(b *testing.B) {
		bench(b, func(Config) Tracer {
			ct := NewChromeTracer(600)
			ct.Limit = 1 << 16 // bounded: excess events drop, as in production
			return ct
		})
	})
}
