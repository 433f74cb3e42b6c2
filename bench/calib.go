package main

import (
	"sort"
	"time"
)

// The calibration kernel is frozen with the benchmark: every host-time
// metric is expressed in the time this code takes, so changing a constant
// or a line of calibKernel re-baselines the whole history.
//
// It has three phases because the host's slow phases are not all alike
// (measured on the reference host, 2-second blocks of steady_opt slices:
// raw time varies by 4.0-4.5 %; divided by a pure cache-latency chain
// 1.4-2.2 %, by a pure ALU loop 1.5-1.8 %, by a branchy loop 0.8-1.2 %,
// by the sum of all three 0.8-1.0 %): a neighbour on the sibling
// hyperthread costs issue slots, one thrashing the shared cache costs
// load latency, and the simulator and compiler pay for both.
const (
	calibALUIters    = 520_000 // four independent xorshift chains: core throughput
	calibBranchIters = 130_000 // data-dependent eight-way switch: front end, predictor
	calibLoadIters   = 100_000 // dependent loads over 1 MiB: L2/L3 latency
	calibOps         = calibALUIters + calibBranchIters + calibLoadIters
	calibWords       = 1 << 18 // 1 MiB of uint32
	calibSmallWords  = 1 << 12
	// refOpsPerSec defines the calibrated second: the time the kernel
	// needs for 160 M ops (about 1 s on the quiet reference host).
	refOpsPerSec = 160e6
)

var (
	calibTable = func() []uint32 {
		t := make([]uint32, calibWords)
		x := uint64(0x2545F4914F6CDD1D)
		for i := range t {
			x = xorshift(x)
			t[i] = uint32(x >> 16)
		}
		return t
	}()
	calibSmall [calibSmallWords]uint32
	calibSink  uint64
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func calibKernel() {
	a, b, c, d := calibSink|1, uint64(2), uint64(3), uint64(4)
	for i := 0; i < calibALUIters; i++ {
		a, b, c, d = xorshift(a), xorshift(b), xorshift(c), xorshift(d)
	}
	x := a ^ b ^ c ^ d | 1
	var acc uint64
	for i := 0; i < calibBranchIters; i++ {
		x = xorshift(x)
		j := x >> 20 & (calibSmallWords - 1)
		switch x & 7 {
		case 0:
			acc += uint64(calibSmall[j])
		case 1:
			acc ^= x
		case 2:
			calibSmall[j] = uint32(acc)
		case 3:
			acc += 3
		case 4:
			acc -= x >> 3
		case 5:
			acc += uint64(calibSmall[x>>32&(calibSmallWords-1)]) * 3
		case 6:
			acc = acc<<1 | acc>>63
		default:
			acc++
		}
	}
	x ^= acc
	for i := 0; i < calibLoadIters; i++ {
		x = xorshift(x)
		x ^= uint64(calibTable[x&(calibWords-1)])
	}
	calibSink = x
}

// sliceRec is one timed slice of work: raw seconds, the local calibration
// factor (host speed relative to the reference), and the work it did.
type sliceRec struct {
	start  int64 // ns since the meter's epoch
	end    int64
	factor float64 // local kernel rate / refOpsPerSec
	work   float64
	probe  bool // layer probe, not part of the workload's operations
}

func (s sliceRec) rawSec() float64 { return float64(s.end-s.start) / 1e9 }
func (s sliceRec) cs() float64     { return s.rawSec() * s.factor }

// meter times slices of work, bracketing each with the calibration
// kernel. Consecutive slices share the kernel run between them, so the
// cost is one run (about 5 ms) per slice.
type meter struct {
	epoch     time.Time
	lastCalib float64 // seconds the most recent kernel run took
	calibSec  float64 // total seconds spent calibrating
	calibMops []float64
	slices    []sliceRec
	// tr, when set, is told which slice its spans belong to.
	tr *tracer
}

func newMeter() *meter { return &meter{epoch: time.Now()} }

func (m *meter) now() int64 { return int64(time.Since(m.epoch)) }

func (m *meter) calibrate() {
	t0 := time.Now()
	calibKernel()
	m.lastCalib = time.Since(t0).Seconds()
	m.calibSec += m.lastCalib
	m.calibMops = append(m.calibMops, calibOps/m.lastCalib/1e6)
}

// run times fn as one slice and returns its id. The factor is the mean of
// the kernel rates measured immediately before and after.
func (m *meter) run(work float64, probe bool, fn func() error) (int, error) {
	if m.lastCalib == 0 {
		m.calibrate()
	}
	before := m.lastCalib
	id := len(m.slices)
	m.slices = append(m.slices, sliceRec{work: work, probe: probe})
	if m.tr != nil {
		m.tr.slice = id
	}
	start := m.now()
	err := fn()
	end := m.now()
	m.calibrate()
	rate := calibOps / ((before + m.lastCalib) / 2)
	s := &m.slices[id]
	s.start, s.end, s.factor = start, end, rate/refOpsPerSec
	return id, err
}

// totals sums work, raw seconds and calibrated seconds over the
// workload's own slices (probes excluded).
func (m *meter) totals() (work, rawSec, cs float64) {
	for _, s := range m.slices {
		if s.probe {
			continue
		}
		work += s.work
		rawSec += s.rawSec()
		cs += s.cs()
	}
	return
}

// opSamples returns each operation slice's calibrated and raw
// milliseconds, in slice order.
func (m *meter) opSamples() (cms, rawMs []float64) {
	for _, s := range m.slices {
		if s.probe {
			continue
		}
		cms = append(cms, s.cs()*1e3)
		rawMs = append(rawMs, s.rawSec()*1e3)
	}
	return
}

// repSamples sums the operations' calibrated milliseconds over each whole
// repetition of period operations (a trailing partial one is left out).
func (m *meter) repSamples(period int) []float64 {
	cms, _ := m.opSamples()
	var reps []float64
	for i := 0; i+period <= len(cms); i += period {
		var sum float64
		for _, v := range cms[i : i+period] {
			sum += v
		}
		reps = append(reps, sum)
	}
	return reps
}

func (m *meter) calibStats() (p50, min float64) {
	if len(m.calibMops) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), m.calibMops...)
	sort.Float64s(s)
	return median(s), s[0]
}
