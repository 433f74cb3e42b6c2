package ixp

import (
	"math"
	"testing"

	"shangrila/internal/cg"
)

// openMedia injects at line rate for a fixed frame size and drops (with
// accounting) instead of retrying when the Rx path is saturated — the
// open-loop traffic model the workload engine uses, reduced to its
// essentials for machine-level tests.
type openMedia struct {
	frame int
}

func (o *openMedia) Inject(m *Machine) float64 {
	id, _, ok := m.Rings[cg.RingFree].Get()
	switch {
	case !ok || m.Rings[cg.RingRx].Space() == 0:
		if ok {
			m.Rings[cg.RingFree].Put(id, 0)
		}
		m.Observer().RxDrop(o.frame)
	default:
		m.Rings[cg.RingRx].Put(id, 64<<16|128)
		m.Observer().RxPacket(id, o.frame)
	}
	return m.Cfg.RxIntervalCycles(float64(o.frame * 8))
}

func (o *openMedia) Transmit(m *Machine, w0, w1 uint32) int {
	m.Rings[cg.RingFree].Put(w0, 64<<16|128)
	return o.frame
}

// TestOfferedLoadAccuracy pins the fractional-cycle Rx pacing: at 2.5
// Gbps and 600 MHz a 64B frame spans 122.88 cycles, so whole-cycle
// truncation alone would overshoot the configured rate by 0.72%. The
// carry accumulator must keep the measured offered load within 0.5%.
func TestOfferedLoadAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PortGbps = 2.5
	media := &openMedia{frame: 64}
	m, err := New(cfg, WithMedia(media))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 256)
	for i := 0; i < 200; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	// No program drains the Rx ring: it saturates and further arrivals
	// drop, but offered load counts accepted and dropped bits alike.
	if err := m.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	offered := st.OfferedGbps(cfg.ClockMHz)
	if rel := math.Abs(offered-cfg.PortGbps) / cfg.PortGbps; rel > 0.005 {
		t.Errorf("offered load %.4f Gbps deviates %.2f%% from configured %.1f (want <= 0.5%%)",
			offered, rel*100, cfg.PortGbps)
	}
	if st.RxDropped == 0 {
		t.Error("undrained Rx ring produced no saturation drops")
	}
}

// TestLatencyRecorded checks the Rx→Tx accounting: every transmitted
// packet yields exactly one latency sample and the quantiles are ordered.
func TestLatencyRecorded(t *testing.T) {
	m := runLoop(t, 1)
	st := m.Snapshot()
	lat := m.Observer().Latency()
	if lat.Count == 0 || lat.Count != st.TxPackets {
		t.Fatalf("latency samples %d, want one per transmitted packet (%d)",
			lat.Count, st.TxPackets)
	}
	if lat.P50 <= 0 || lat.P90 < lat.P50 || lat.P99 < lat.P90 || lat.Max < lat.P99 {
		t.Errorf("quantiles out of order: %+v", lat)
	}
	// Reset discards the window's samples but keeps in-flight stamps:
	// continuing the run keeps producing samples.
	m.ResetStats()
	if m.Observer().Latency().Count != 0 {
		t.Error("latency histogram survived ResetStats")
	}
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if m.Observer().Latency().Count == 0 {
		t.Error("no latency samples after warm-up reset")
	}
}

// TestDropCauseRxSaturation: an undrained Rx ring attributes every loss
// to Rx saturation and none to channel-ring overflow.
func TestDropCauseRxSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingSlots = 8
	m, err := New(cfg, WithMedia(&openMedia{frame: 64}))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 64)
	for i := 0; i < 32; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	if err := m.Run(500_000); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.RxDropped == 0 {
		t.Fatal("no Rx saturation drops")
	}
	if st.ChanOverflows() != 0 {
		t.Errorf("idle MEs produced %d channel-ring overflows", st.ChanOverflows())
	}
	if st.DropRate() <= 0 || st.DropRate() >= 1 {
		t.Errorf("drop rate %v out of (0,1)", st.DropRate())
	}
}

// TestDropCauseChannelOverflow: a stage pushing into a full, undrained
// app ring accumulates per-ring overflow counts (backpressure), while the
// media-side Rx accounting stays a separate cause.
func TestDropCauseChannelOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRings = 4 // Rx, Tx, free + one app ring nobody drains
	cfg.RingSlots = 8
	m, err := New(cfg, WithMedia(&openMedia{frame: 64}))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 64)
	for i := 0; i < 32; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	mustLoad(t, m, 0, deadendProg())
	if err := m.Run(500_000); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if len(st.RingOverflow) != 4 {
		t.Fatalf("RingOverflow has %d entries, want 4", len(st.RingOverflow))
	}
	if st.RingOverflow[cg.RingApp0] == 0 {
		t.Error("full app ring recorded no overflow attempts")
	}
	if st.ChanOverflows() < st.RingOverflow[cg.RingApp0] {
		t.Error("ChanOverflows does not cover the app ring")
	}
	if st.RxDropped == 0 {
		t.Error("saturated pipeline should also drop at Rx")
	}
}

// deadendProg forwards Rx descriptors into an app ring nobody drains,
// retrying failed puts as compiled channel operations do.
func deadendProg() *cg.Program {
	return &cg.Program{Name: "deadend", Code: []*cg.Instr{
		{Op: cg.IRingGet, Ring: cg.RingRx, Dst: 0, Dst2: 16, Class: cg.ClassPacketRing},
		{Op: cg.IBccImm, Cond: cg.CNe, SrcA: 0, Imm: cg.InvalidPktID, Target: 4},
		{Op: cg.ICtxArb},
		{Op: cg.IBr, Target: 0},
		{Op: cg.IRingPut, Ring: cg.RingApp0, SrcA: 0, SrcB: 16, Dst: 1, Class: cg.ClassPacketRing},
		{Op: cg.IBccImm, Cond: cg.CNe, SrcA: 1, Imm: 0, Target: 0},
		{Op: cg.ICtxArb},
		{Op: cg.IBr, Target: 4},
	}}
}

// TestDropCausesSimultaneous: when the pipeline stalls behind a dead-end
// channel, both causes fire in the same run — Rx-ring saturation losses
// AND channel-ring overflow backpressure — and stay separately attributed:
// only Rx losses enter the drop rate, overflow attempts are not losses.
func TestDropCausesSimultaneous(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRings = 4
	cfg.RingSlots = 8
	m, err := New(cfg, WithMedia(&openMedia{frame: 64}))
	if err != nil {
		t.Fatal(err)
	}
	m.GrowRing(cg.RingFree, 64)
	for i := 0; i < 32; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	mustLoad(t, m, 0, deadendProg())
	if err := m.Run(500_000); err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot()
	if st.RxDropped == 0 || st.ChanOverflows() == 0 {
		t.Fatalf("want both causes active: rx-drops %d, chan-overflows %d",
			st.RxDropped, st.ChanOverflows())
	}
	// The causes are disjoint accounts: the drop rate is Rx losses over
	// offered packets, unchanged by however many overflow retries happened.
	want := float64(st.RxDropped) / float64(st.RxPackets+st.RxDropped)
	if got := st.DropRate(); got != want {
		t.Errorf("drop rate %v mixes causes, want rx-only %v", got, want)
	}
	if st.RingOverflow[cg.RingRx] != 0 {
		t.Errorf("media-side Rx saturation leaked into ME ring-overflow counts: %v",
			st.RingOverflow)
	}
}

// TestPacketConservationRandomized sweeps randomized open-loop workloads
// (frame size, ring capacity, port rate, duration) and checks the
// population identity on each: every offered packet is accounted exactly
// once as dropped at Rx, transmitted, freed, or still in flight —
// offered = rxDropped + tx + freed + inFlight, with no start-of-run
// population because machines begin empty.
func TestPacketConservationRandomized(t *testing.T) {
	rng := uint64(1)
	next := func(n int) int { // xorshift64*, avoids seeding-by-time
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int((rng * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
	}
	frames := []int{64, 128, 594, 1518}
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig()
		cfg.NumRings = 4 // Rx, Tx, free + a dead-end app ring
		cfg.RingSlots = []int{8, 16, 64}[next(3)]
		cfg.PortGbps = []float64{0.5, 2.5, 10}[next(3)]
		frame := frames[next(len(frames))]
		cycles := int64(100_000 + 50_000*next(5))
		m, err := New(cfg, WithMedia(&openMedia{frame: frame}))
		if err != nil {
			t.Fatal(err)
		}
		m.GrowRing(cg.RingFree, 128)
		for i := 0; i < 100; i++ {
			m.Rings[cg.RingFree].Put(uint32(i), uint32(frame)<<16|128)
		}
		// Mix of fates: ME0 forwards to Tx, ME1 pushes into a dead-end ring
		// when present (channel backpressure in the balance).
		mustLoad(t, m, 0, loopProg())
		if cfg.RingSlots < 64 {
			mustLoad(t, m, 1, deadendProg())
		}
		if err := m.Run(cycles); err != nil {
			t.Fatal(err)
		}
		st := m.Snapshot()
		offered := st.RxPackets + st.RxDropped
		accounted := st.RxDropped + st.TxPackets + st.FreedPackets +
			uint64(m.Observer().InFlight())
		if offered == 0 {
			t.Fatalf("trial %d: no packets offered", trial)
		}
		if offered != accounted {
			t.Errorf("trial %d (frame %d, slots %d, %.1fG, %d cycles): offered %d != dropped %d + tx %d + freed %d + inflight %d",
				trial, frame, cfg.RingSlots, cfg.PortGbps, cycles,
				offered, st.RxDropped, st.TxPackets, st.FreedPackets,
				m.Observer().InFlight())
		}
	}
}
