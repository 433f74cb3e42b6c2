// Package ixp models the Intel IXP2400 network processor of §3: eight
// multi-threaded microengines with non-preemptive round-robin thread
// arbitration, an uncached four-level memory hierarchy with per-level
// latency and finite controller bandwidth, a 16-entry CAM and 640 words of
// Local Memory per ME, scratch rings for communication channels, and
// Rx/Tx media engines. The machine executes the code generator's CGIR
// directly: registers hold real 32-bit values and the simulated memories
// hold real bytes, so compiled applications genuinely forward packets
// while the event-driven timing model produces the forwarding rates and
// per-packet access counts the paper's evaluation measures.
//
// The paper's experiments run on real hardware; this model is the
// substitution (see DESIGN.md). Constants are calibrated so the Figure 6
// micro-experiment reproduces the paper's budget rules: ~700 instructions
// and at most ≈2 DRAM / 8 SRAM / 64 Scratch accesses per 64-byte packet
// at the 2.5 Gbps line rate with six MEs.
package ixp

import (
	"fmt"
	"math"
	"math/bits"

	"shangrila/internal/cg"
	"shangrila/internal/metrics"
)

// Config sets the machine's physical parameters.
type Config struct {
	NumMEs       int // microengines available to packet processing
	ThreadsPerME int
	ClockMHz     float64
	PortGbps     float64 // aggregate media bandwidth (3x1G on the eval board)

	// Per-level controller timing (cycles): fixed pipeline latency plus
	// service occupancy base + per-word.
	ScratchLatency, ScratchSvcBase, ScratchSvcWord int64
	SRAMLatency, SRAMSvcBase, SRAMSvcWord          int64
	DRAMLatency, DRAMSvcBase, DRAMSvcWord          int64
	LocalLatency                                   int64

	ScratchBytes int
	SRAMBytes    int
	DRAMBytes    int
	LocalBytes   int
	CAMEntries   int

	// SampleInterval, when positive, schedules a telemetry sampler every
	// that many cycles: per-ME utilization, per-controller saturation and
	// queue depth, and per-ring occupancy are appended to the machine's
	// metrics registry as time-series.
	SampleInterval int64

	// NumRings and RingSlots describe the scratch-ring topology: NumRings
	// rings of RingSlots descriptor pairs each. The runtime folds the
	// compiled image's layout into these before constructing the machine.
	NumRings  int
	RingSlots int
}

// maxMEs is the most MEs a machine can have: an event names its ME in a
// uint16.
const maxMEs = 1 << 16

// Validate rejects configurations that would make the timing model divide
// by zero or produce NaN/Inf rates (zero or negative clock, port rate,
// structural sizes).
func (c *Config) Validate() error {
	switch {
	case c.NumMEs <= 0:
		return fmt.Errorf("ixp: config: NumMEs must be positive (got %d)", c.NumMEs)
	case c.NumMEs > maxMEs:
		return fmt.Errorf("ixp: config: NumMEs must be at most %d (got %d); an event names its ME in 16 bits", maxMEs, c.NumMEs)
	case c.ThreadsPerME <= 0:
		return fmt.Errorf("ixp: config: ThreadsPerME must be positive (got %d)", c.ThreadsPerME)
	case c.ThreadsPerME > 64:
		return fmt.Errorf("ixp: config: ThreadsPerME must be at most 64 (got %d); an ME's ready set is one 64-bit mask", c.ThreadsPerME)
	case math.IsNaN(c.ClockMHz) || math.IsInf(c.ClockMHz, 0) || c.ClockMHz <= 0:
		return fmt.Errorf("ixp: config: ClockMHz must be a positive finite value (got %v); a zero or negative clock makes every rate NaN/Inf", c.ClockMHz)
	case math.IsNaN(c.PortGbps) || math.IsInf(c.PortGbps, 0) || c.PortGbps <= 0:
		return fmt.Errorf("ixp: config: PortGbps must be a positive finite value (got %v); the Rx injection interval is derived from it", c.PortGbps)
	case c.ScratchLatency < 0 || c.SRAMLatency < 0 || c.DRAMLatency < 0 || c.LocalLatency < 0:
		return fmt.Errorf("ixp: config: memory latencies must be non-negative")
	case c.ScratchSvcBase < 0 || c.ScratchSvcWord < 0 ||
		c.SRAMSvcBase < 0 || c.SRAMSvcWord < 0 ||
		c.DRAMSvcBase < 0 || c.DRAMSvcWord < 0:
		return fmt.Errorf("ixp: config: controller service times must be non-negative")
	case c.ScratchBytes <= 0 || c.SRAMBytes <= 0 || c.DRAMBytes <= 0 || c.LocalBytes <= 0:
		return fmt.Errorf("ixp: config: memory sizes must be positive")
	case c.CAMEntries <= 0:
		return fmt.Errorf("ixp: config: CAMEntries must be positive (got %d)", c.CAMEntries)
	case c.SampleInterval < 0:
		return fmt.Errorf("ixp: config: SampleInterval must be non-negative (got %d)", c.SampleInterval)
	case c.NumRings < 0:
		return fmt.Errorf("ixp: config: NumRings must be non-negative (got %d)", c.NumRings)
	case c.NumRings > 0 && c.RingSlots <= 0:
		return fmt.Errorf("ixp: config: RingSlots must be positive when rings are configured (got %d)", c.RingSlots)
	}
	return nil
}

// DefaultConfig returns the calibrated IXP2400 model.
func DefaultConfig() Config {
	return Config{
		NumMEs:       8,
		ThreadsPerME: 8,
		ClockMHz:     600,
		PortGbps:     3.0,

		ScratchLatency: 60, ScratchSvcBase: 1, ScratchSvcWord: 1,
		SRAMLatency: 90, SRAMSvcBase: 8, SRAMSvcWord: 1,
		DRAMLatency: 120, DRAMSvcBase: 20, DRAMSvcWord: 1,
		LocalLatency: 3,

		ScratchBytes: 16 << 10,
		SRAMBytes:    8 << 20,
		DRAMBytes:    8 << 20, // pool sized for the packet buffers in use
		LocalBytes:   2560,
		CAMEntries:   16,

		NumRings:  3, // Rx, Tx, free list; runtimes add app rings
		RingSlots: 128,
	}
}

// AccessKey aggregates the Table 1 statistics.
type AccessKey struct {
	Level cg.MemLevel
	Class cg.AccessClass
}

// Stats accumulates run statistics.
type Stats struct {
	Cycles        int64
	RxPackets     uint64
	RxBits        uint64 // wire bits of packets accepted at Rx
	TxPackets     uint64
	TxBits        uint64
	FreedPackets  uint64
	RxDropped     uint64 // saturation drops at the Rx ring (expected)
	RxDroppedBits uint64 // wire bits of those drops (count toward offered load)
	// RingOverflow counts ME ring-put attempts rejected by a full ring,
	// indexed by ring number: backpressure between pipeline stages (the
	// "channel ring overflow" drop cause, distinct from Rx saturation).
	RingOverflow []uint64
	// MEAccesses counts microengine-issued memory references by level
	// and class (engine DMA is excluded, as in Table 1).
	MEAccesses map[AccessKey]uint64
	// MEInstrs counts executed CGIR instructions per ME.
	MEInstrs []uint64
	// MEBusy accumulates executing (non-idle) cycles per ME; divided by
	// Cycles it is the ME's utilization over the measured window.
	MEBusy []int64
	// CAMLookups, CAMHits and CAMClears observe the software-controlled
	// cache per ME: 16-entry CAM probes, their hits, and full-CAM
	// invalidations — the delayed-update flush path, so a churn run can
	// verify that control-plane updates actually reach each ME.
	CAMLookups []uint64
	CAMHits    []uint64
	CAMClears  []uint64
	// Busy accumulates controller occupancy cycles per level.
	Busy [4]int64
}

// clone deep-copies the statistics (maps and slices included).
func (s *Stats) clone() Stats {
	cp := *s
	cp.MEAccesses = make(map[AccessKey]uint64, len(s.MEAccesses))
	for k, v := range s.MEAccesses {
		cp.MEAccesses[k] = v
	}
	cp.MEInstrs = append([]uint64(nil), s.MEInstrs...)
	cp.MEBusy = append([]int64(nil), s.MEBusy...)
	cp.RingOverflow = append([]uint64(nil), s.RingOverflow...)
	cp.CAMLookups = append([]uint64(nil), s.CAMLookups...)
	cp.CAMHits = append([]uint64(nil), s.CAMHits...)
	cp.CAMClears = append([]uint64(nil), s.CAMClears...)
	return cp
}

// Utilization returns ME i's busy fraction over the measured window.
func (s Stats) Utilization(i int) float64 {
	if s.Cycles == 0 || i >= len(s.MEBusy) {
		return 0
	}
	return float64(s.MEBusy[i]) / float64(s.Cycles)
}

// Saturation returns the named controller level's occupancy fraction over
// the measured window (1.0 = the controller was busy every cycle).
func (s Stats) Saturation(level cg.MemLevel) float64 {
	if s.Cycles == 0 || int(level) >= len(s.Busy) {
		return 0
	}
	return float64(s.Busy[level]) / float64(s.Cycles)
}

// Gbps returns the measured forwarding rate over the simulated interval.
// A non-positive clock yields 0 rather than NaN/Inf (ixp.New rejects such
// configurations; this guards direct Stats use).
func (s Stats) Gbps(clockMHz float64) float64 {
	if s.Cycles == 0 || clockMHz <= 0 || math.IsNaN(clockMHz) || math.IsInf(clockMHz, 0) {
		return 0
	}
	seconds := float64(s.Cycles) / (clockMHz * 1e6)
	return float64(s.TxBits) / 1e9 / seconds
}

// PerPacket returns ME accesses per forwarded-or-dropped packet for a
// level/class pair.
func (s Stats) PerPacket(level cg.MemLevel, class cg.AccessClass) float64 {
	done := s.TxPackets + s.FreedPackets
	if done == 0 {
		return 0
	}
	return float64(s.MEAccesses[AccessKey{level, class}]) / float64(done)
}

// OfferedGbps returns the load the media offered over the measured window:
// accepted plus saturation-dropped wire bits per simulated second.
func (s Stats) OfferedGbps(clockMHz float64) float64 {
	if s.Cycles == 0 || clockMHz <= 0 || math.IsNaN(clockMHz) || math.IsInf(clockMHz, 0) {
		return 0
	}
	seconds := float64(s.Cycles) / (clockMHz * 1e6)
	return float64(s.RxBits+s.RxDroppedBits) / 1e9 / seconds
}

// DropRate returns the fraction of offered packets lost to Rx-ring
// saturation (0 when nothing was offered).
func (s Stats) DropRate() float64 {
	offered := s.RxPackets + s.RxDropped
	if offered == 0 {
		return 0
	}
	return float64(s.RxDropped) / float64(offered)
}

// ChanOverflows returns the total ME ring-put rejections across every
// ring: the channel-backpressure counterpart of RxDropped.
func (s Stats) ChanOverflows() uint64 {
	var n uint64
	for _, v := range s.RingOverflow {
		n += v
	}
	return n
}

// Ring is a scratch-memory descriptor ring carrying (word0, word1) pairs.
type Ring struct {
	buf  [][2]uint32
	cap  int
	head int
	n    int
	hwm  int // high-water occupancy since the last stats reset
}

func newRing(capacity int) *Ring { return &Ring{buf: make([][2]uint32, capacity), cap: capacity} }

// Put appends a pair; reports false when full.
func (r *Ring) Put(a, b uint32) bool {
	if r.n == r.cap {
		return false
	}
	r.buf[(r.head+r.n)%r.cap] = [2]uint32{a, b}
	r.n++
	if r.n > r.hwm {
		r.hwm = r.n
	}
	return true
}

// Get pops a pair; ok=false when empty.
func (r *Ring) Get() (a, b uint32, ok bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	p := r.buf[r.head]
	r.head = (r.head + 1) % r.cap
	r.n--
	return p[0], p[1], true
}

// Len returns the entry count.
func (r *Ring) Len() int { return r.n }

// Space returns free slots.
func (r *Ring) Space() int { return r.cap - r.n }

// Cap returns the slot count.
func (r *Ring) Cap() int { return r.cap }

// MaxOcc returns the high-water occupancy since the last stats reset.
func (r *Ring) MaxOcc() int { return r.hwm }

// resetHWM restarts the high-water mark at the current occupancy (a ring
// may carry standing entries across a stats reset).
func (r *Ring) resetHWM() { r.hwm = r.n }

// controller models one shared memory channel.
type controller struct {
	level    cg.MemLevel
	latency  int64
	svcBase  int64
	svcWord  int64
	nextFree int64
}

// access queues a request issued at t and returns when its service began
// (start-t is the queueing delay behind earlier requests — the bandwidth
// signal stall attribution keys on) and when it completes, updating
// occupancy.
func (c *controller) access(t int64, words int, st *Stats) (start, done int64) {
	start = t
	if c.nextFree > start {
		start = c.nextFree
	}
	svc := c.svcBase + c.svcWord*int64(words)
	c.nextFree = start + svc
	st.Busy[c.level] += svc
	return start, start + svc + c.latency
}

type threadState int

const (
	tReady threadState = iota
	tBlocked
	tDead
)

// Thread is one hardware thread context. The register file carries one
// extra slot past the architectural registers: the predecoder's wired
// zero (zeroReg), which absent operands read and nothing writes.
type Thread struct {
	regs  [cg.NumRegs + 1]uint32
	pc    int
	state threadState
}

// Reg returns a thread register (test hook).
func (t *Thread) Reg(r cg.PReg) uint32 { return t.regs[r] }

// SetReg sets a thread register (used by the runtime loader).
func (t *Thread) SetReg(r cg.PReg, v uint32) { t.regs[r] = v }

type camEntry struct {
	tag   uint32
	valid bool
}

// ME is one microengine.
type ME struct {
	idx     int
	prog    *cg.Program
	dec     *dProg // predecoded block form of prog (see predecode.go)
	threads []*Thread
	local   []byte
	cam     []camEntry
	camLRU  []int // entry indices, most recent first
	rrNext  int
	// readyMask mirrors thread states (bit t set ⇔ threads[t] is tReady),
	// so the scheduler picks round-robin with two bit operations instead
	// of scanning the thread array. Config.Validate caps ThreadsPerME at
	// 64, so it is the whole ready set.
	readyMask uint64
	scheduled bool
	enabled   bool
}

// setReady maintains readyMask alongside a thread state change.
func (m *ME) setReady(t int, ready bool) {
	if ready {
		m.readyMask |= 1 << uint(t)
	} else {
		m.readyMask &^= 1 << uint(t)
	}
}

// Thread returns thread t (runtime loader hook).
func (m *ME) Thread(t int) *Thread { return m.threads[t] }

// Media is the machine's traffic interface: one implementation supplies
// arriving packets and consumes transmitted ones. The runtime's trace
// player and the workload engine's arrival processes are both Media.
type Media interface {
	// Inject is called at each Rx opportunity. It may enqueue at most one
	// packet (stamping it with Observer.RxPacket, or counting a loss with
	// Observer.RxDrop when the Rx path is saturated) and returns the delay
	// in core cycles until the next opportunity. Fractional delays are
	// honored exactly: the machine carries the sub-cycle remainder across
	// ticks, so the long-run injection rate matches the requested one.
	Inject(m *Machine) float64
	// Transmit is called for each descriptor popped from the Tx ring; it
	// must return the frame length in bytes (for rate accounting) and is
	// responsible for recycling the buffer.
	Transmit(m *Machine, w0, w1 uint32) int
}

// Machine is the whole simulated processor plus media engines.
type Machine struct {
	Cfg     Config
	Scratch []byte
	MEs     []*ME
	Rings   []*Ring

	// sram and dram are demand-grown (see growMem); host-side code reaches
	// them through Window.
	sram, dram growMem

	stats     Stats
	reg       *metrics.Registry
	lat       *metrics.Histogram // Rx→Tx latency of transmitted packets
	tracer    Tracer             // nil = tracing off (every emit is one nil check)
	meLabels  []string           // per-ME program labels (Observer.SetMELabel)
	rxStamp   map[uint32]int64   // buffer id → arrival cycle
	rxCarry   float64            // fractional-cycle Rx pacing remainder
	media     Media
	lastBusy  [4]int64       // controller busy at the previous telemetry sample
	lastME    []int64        // per-ME busy at the previous telemetry sample
	ctrl      [3]*controller // scratch, sram, dram (local is uncontended)
	q         eventQueue     // pending events (eventq.go)
	now       int64
	seq       int64
	statsBase int64 // time origin of the current Stats window
	started   bool  // engine tick chains scheduled
	err       error

	// acc is the hot-path form of Stats.MEAccesses: a flat counter array
	// indexed by the predecoder's accIdx (level*numAccessClasses+class).
	// Snapshot folds it into the map; the map itself is never touched
	// while executing instructions.
	acc [numMemLevels * numAccessClasses]uint64

	// decCache memoizes predecoded programs so reloading the same
	// cg.Program on several MEs (replicated pipeline stages) decodes once.
	decCache map[*cg.Program]*dProg

	// cbs is the callback registry: events are pointer-free, so a
	// scheduled closure parks here and the event carries its index. The
	// free list recycles slots (rings of control-plane callbacks never
	// grow the table).
	cbs    []func()
	cbFree []int32

	// woken collects, in wake order, the idle MEs an evReady drain made
	// runnable (see resumeWoken). An ME enters at most once per drain, so
	// its NumMEs capacity is never outgrown.
	woken []int32

	// XScaleStep processes one descriptor from an XScale-bound ring; it
	// returns the modelled processing cost in cycles. Installed by the
	// runtime when the plan has XScale aggregates.
	XScaleStep  func(m *Machine, ring int, w0, w1 uint32) int64
	XScaleRings []int
}

// New builds a machine from a configuration (ring topology included),
// shaped by functional options: WithMedia supplies the traffic source
// and sink (machines without media only execute code). Every machine
// owns its telemetry registry (Observer.Metrics).
// Options apply before validation, so zero or negative clock, port rate
// or structural sizes are rejected here with a descriptive error instead
// of surfacing later as NaN/Inf rates.
func New(cfg Config, opts ...Option) (*Machine, error) {
	m := &Machine{Cfg: cfg}
	for _, o := range opts {
		if o != nil {
			o(m)
		}
	}
	if err := m.Cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = m.Cfg
	m.Scratch = make([]byte, cfg.ScratchBytes)
	m.sram.limit = cfg.SRAMBytes
	m.dram.limit = cfg.DRAMBytes
	m.reg = metrics.NewRegistry()
	m.lat = metrics.NewHistogram()
	m.rxStamp = map[uint32]int64{}
	m.lastME = make([]int64, cfg.NumMEs)
	m.woken = make([]int32, 0, cfg.NumMEs)
	m.stats.MEAccesses = map[AccessKey]uint64{}
	m.stats.MEInstrs = make([]uint64, cfg.NumMEs)
	m.stats.MEBusy = make([]int64, cfg.NumMEs)
	m.stats.RingOverflow = make([]uint64, cfg.NumRings)
	m.stats.CAMLookups = make([]uint64, cfg.NumMEs)
	m.stats.CAMHits = make([]uint64, cfg.NumMEs)
	m.stats.CAMClears = make([]uint64, cfg.NumMEs)
	m.ctrl[0] = &controller{level: cg.MemScratch, latency: cfg.ScratchLatency, svcBase: cfg.ScratchSvcBase, svcWord: cfg.ScratchSvcWord}
	m.ctrl[1] = &controller{level: cg.MemSRAM, latency: cfg.SRAMLatency, svcBase: cfg.SRAMSvcBase, svcWord: cfg.SRAMSvcWord}
	m.ctrl[2] = &controller{level: cg.MemDRAM, latency: cfg.DRAMLatency, svcBase: cfg.DRAMSvcBase, svcWord: cfg.DRAMSvcWord}
	for i := 0; i < cfg.NumMEs; i++ {
		me := &ME{idx: i, local: make([]byte, cfg.LocalBytes),
			cam: make([]camEntry, cfg.CAMEntries)}
		for e := 0; e < cfg.CAMEntries; e++ {
			me.camLRU = append(me.camLRU, e)
		}
		for t := 0; t < cfg.ThreadsPerME; t++ {
			me.threads = append(me.threads, &Thread{state: tDead})
		}
		m.MEs = append(m.MEs, me)
	}
	for i := 0; i < cfg.NumRings; i++ {
		m.Rings = append(m.Rings, newRing(cfg.RingSlots))
	}
	return m, nil
}

// GrowRing resizes ring i (the free ring must hold every buffer). Entries
// already queued are preserved in FIFO order, so a ring can be grown
// mid-run; shrinking below the current occupancy drops the excess tail.
func (m *Machine) GrowRing(i, slots int) {
	old := m.Rings[i]
	nr := newRing(slots)
	for {
		a, b, ok := old.Get()
		if !ok || !nr.Put(a, b) {
			break
		}
	}
	m.Rings[i] = nr
}

// LoadProgram installs code on an ME and starts its threads. The program
// is predecoded into block-structured form here, once; execution never
// consults the cg.Program again.
func (m *Machine) LoadProgram(me int, prog *cg.Program) {
	mx := m.MEs[me]
	mx.prog = prog
	d, ok := m.decCache[prog]
	if !ok {
		d = predecode(prog)
		if m.decCache == nil {
			m.decCache = map[*cg.Program]*dProg{}
		}
		m.decCache[prog] = d
	}
	mx.dec = d
	mx.enabled = true
	for i, t := range mx.threads {
		t.pc = 0
		t.state = tReady
		mx.setReady(i, true)
	}
}

func (m *Machine) controllerFor(level cg.MemLevel) *controller {
	switch level {
	case cg.MemScratch:
		return m.ctrl[0]
	case cg.MemSRAM:
		return m.ctrl[1]
	default:
		return m.ctrl[2]
	}
}

// growMem is one demand-grown shared memory level. A machine's SRAM and
// DRAM are megabytes of which a run touches the packet buffers and the
// tables, so the backing starts empty and grows to the highest byte an
// access reaches; bytes past it are architecturally zero, exactly what a
// fresh eager allocation would hold. The logical size — the one
// out-of-range faults are checked against — never changes.
type growMem struct {
	b     []byte // backing; len(b) <= limit
	limit int    // logical size in bytes (Config.SRAMBytes / DRAMBytes)
}

// memGranule is the growth unit of a demand-grown level.
const memGranule = 64 << 10

// reach grows the backing to cover [0, end) and returns it, or nil when
// end is beyond the logical size. Growth at least doubles, in whole
// granules, capped at the logical size.
func (g *growMem) reach(end int) []byte {
	if end > g.limit {
		return nil
	}
	if end > len(g.b) {
		n := (end + memGranule - 1) &^ (memGranule - 1)
		if d := 2 * len(g.b); n < d {
			n = d
		}
		if n > g.limit {
			n = g.limit
		}
		nb := make([]byte, n)
		copy(nb, g.b)
		g.b = nb
	}
	return g.b
}

// memory returns the bytes currently backing a level: all of Scratch and
// Local Memory, the materialized prefix of SRAM and DRAM.
func (m *Machine) memory(level cg.MemLevel, me int) []byte {
	switch level {
	case cg.MemScratch:
		return m.Scratch
	case cg.MemSRAM:
		return m.sram.b
	case cg.MemDRAM:
		return m.dram.b
	default:
		return m.MEs[me].local
	}
}

// grown returns the demand-grown store behind a level, nil for the eager
// ones (Scratch, Local Memory).
func (m *Machine) grown(level cg.MemLevel) *growMem {
	switch level {
	case cg.MemSRAM:
		return &m.sram
	case cg.MemDRAM:
		return &m.dram
	}
	return nil
}

// memSlow is execMem's out-of-line path for an access past the current
// backing: it grows a demand-grown level to cover [0, end) and returns
// the new backing, or nil when end is beyond the level's logical size.
func (m *Machine) memSlow(level cg.MemLevel, end int) []byte {
	if g := m.grown(level); g != nil {
		return g.reach(end)
	}
	return nil
}

// Window returns the n bytes at [addr, addr+n) of a shared level (Scratch,
// SRAM or DRAM) for host-side code: the media engines, the XScale bridge,
// tests. The slice aliases the machine's memory with its capacity clipped
// to the window, so a write through it can never spill past addr+n. It is
// valid until the level next grows: use it at once, do not keep it across
// Run. A window beyond the level's configured size panics, as indexing a
// slice would.
func (m *Machine) Window(level cg.MemLevel, addr uint32, n int) []byte {
	end := int(addr) + n
	mem := m.Scratch
	if level != cg.MemScratch {
		mem = m.memSlow(level, end)
	}
	if n < 0 || end > len(mem) {
		panic(fmt.Sprintf("ixp: window %d+%d out of range (level %v)", addr, n, level))
	}
	return mem[addr:end:end]
}

func (m *Machine) schedule(t int64, kind evKind, me, thread int, fn func()) {
	cb := int32(-1)
	if fn != nil {
		if n := len(m.cbFree); n > 0 {
			cb = m.cbFree[n-1]
			m.cbFree = m.cbFree[:n-1]
			m.cbs[cb] = fn
		} else {
			cb = int32(len(m.cbs))
			m.cbs = append(m.cbs, fn)
		}
	}
	m.seq++
	m.q.push(event{time: t, seq: m.seq, kind: kind, me: uint16(me), thread: uint8(thread), cb: cb})
}

// takeCB claims a scheduled callback out of the registry, freeing its slot.
func (m *Machine) takeCB(i int32) func() {
	fn := m.cbs[i]
	m.cbs[i] = nil
	m.cbFree = append(m.cbFree, i)
	return fn
}

// At schedules fn at absolute cycle t (control-plane injections).
func (m *Machine) At(t int64, fn func()) { m.schedule(t, evCallback, 0, 0, fn) }

// Now returns the current simulation time in cycles.
func (m *Machine) Now() int64 { return m.now }

// QueueCounts tallies the event core since construction: every schedule,
// and those that missed the wheel's window — Far beyond it, Past before
// its base. It sits outside Stats, so no report or golden carries it.
type QueueCounts struct {
	Schedules, Far, Past int64
}

// QueueCounts returns the event core's tallies.
func (m *Machine) QueueCounts() QueueCounts {
	return QueueCounts{Schedules: m.seq, Far: m.q.farPushes, Past: m.q.pastPushes}
}

// Err returns the first machine-check error (bad address, bad opcode).
func (m *Machine) Err() error { return m.err }

func (m *Machine) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("ixp: "+format, args...)
	}
}

// BudgetError is Run's rejection of a negative cycle budget: the clock
// only moves forward, so Run leaves the machine untouched.
type BudgetError struct {
	Cycles int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ixp: cycle budget %d is negative", e.Cycles)
}

// Run advances the simulation until the cycle budget elapses or an error
// occurs. It can be called repeatedly for warm-up + measure phases. A
// negative budget is a *BudgetError.
func (m *Machine) Run(cycles int64) error {
	if cycles < 0 {
		return &BudgetError{Cycles: cycles}
	}
	deadline := m.now + cycles
	m.kickoff()
	for m.err == nil {
		ev, ok := m.q.popUntil(deadline)
		if !ok {
			if m.q.len() > 0 {
				// The next event is past the budget: leave it queued for a
				// future Run call (the old engine popped and re-pushed here,
				// churning the heap on every deadline).
				m.now = deadline
				m.stats.Cycles = m.now - m.statsBase
				return m.err
			}
			break
		}
		if ev.time > m.now {
			m.now = ev.time
		}
		switch ev.kind {
		case evActivate:
			m.MEs[ev.me].scheduled = false
			m.runME(int(ev.me))
		case evReady:
			m.readyThread(int(ev.me), int(ev.thread))
			// Drain further wakeups sharing this timestamp: they are the
			// next pops regardless, so handling them here preserves event
			// order while skipping the dispatch loop. dueBy leaves the
			// wheel's base at the clock, so the activations resumeWoken
			// schedules at m.now land in the wheel, not the past heap.
			h := m.q.dueBy(m.now)
			for h != nil && h.kind == evReady && h.time == m.now {
				e := m.q.pop()
				m.readyThread(int(e.me), int(e.thread))
				h = m.q.dueBy(m.now)
			}
			m.resumeWoken(h != nil)
		case evRxTick:
			m.rxTick()
		case evTxTick:
			m.txTick()
		case evXScale:
			m.xscaleTick()
		case evCallback:
			m.takeCB(ev.cb)()
		case evSample:
			m.sampleTick()
		}
	}
	m.stats.Cycles = m.now - m.statsBase
	return m.err
}

// kickoff schedules the run's initial events: one activation per idle
// ME, and — on the first Run only — the perpetual media/XScale/telemetry
// tick chains (another chain would double the modelled media bandwidth).
func (m *Machine) kickoff() {
	for i, mx := range m.MEs {
		if !mx.scheduled && mx.enabled {
			mx.scheduled = true
			m.schedule(m.now, evActivate, i, 0, nil)
		}
	}
	if !m.started {
		m.started = true
		if m.media != nil {
			m.schedule(m.now, evRxTick, 0, 0, nil)
		}
		if len(m.Rings) > cg.RingTx {
			m.schedule(m.now, evTxTick, 0, 0, nil)
		}
		if m.XScaleStep != nil && len(m.XScaleRings) > 0 {
			m.schedule(m.now, evXScale, 0, 0, nil)
		}
		if m.Cfg.SampleInterval > 0 {
			m.schedule(m.now+m.Cfg.SampleInterval, evSample, 0, 0, nil)
		}
	}
}

// readyThread unblocks a thread whose memory or ring operation completed
// and, when its ME is enabled and has no activation queued, collects the
// ME into woken for resumeWoken.
func (m *Machine) readyThread(me, thread int) {
	mx := m.MEs[me]
	th := mx.threads[thread]
	if th.state == tBlocked {
		th.state = tReady
		mx.setReady(thread, true)
	}
	if mx.scheduled || !mx.enabled {
		return
	}
	mx.scheduled = true
	m.woken = append(m.woken, int32(me))
}

// resumeWoken activates the MEs an evReady drain woke, in wake order.
// Each activation stands for an evActivate at m.now, whose seq would be
// larger than any queued event's: it would pop after every event due at
// or before m.now and before every later one. So when nothing is due
// (due false), the activations are the next pops and run here, in this
// dispatch. Running one cannot put an event ahead of the next: runME
// schedules nothing at m.now, since cycles++ precedes every terminator.
// When something is due, each gets its evActivate at m.now, in wake order.
func (m *Machine) resumeWoken(due bool) {
	if due {
		for _, me := range m.woken {
			m.schedule(m.now, evActivate, int(me), 0, nil)
		}
	} else {
		for _, me := range m.woken {
			if m.err != nil {
				break
			}
			m.MEs[me].scheduled = false
			m.runME(int(me))
		}
	}
	m.woken = m.woken[:0]
}

// maxRunInstrs bounds one thread activation so event processing stays
// responsive even through long ALU stretches.
const maxRunInstrs = 4096

// runME executes the next ready thread until it blocks or yields.
//
// This is the block engine: straight-line stretches of register
// instructions execute in the tight loop below with no per-instruction
// bookkeeping — instruction and cycle counts are known from the
// predecoded run length and batched into the activation's accumulators,
// which flush to Stats exactly once per activation. Only run terminators
// (branches, memory, rings, CAM, yields) reach the general dispatch.
func (m *Machine) runME(meIdx int) {
	mx := m.MEs[meIdx]
	if !mx.enabled || mx.dec == nil {
		return
	}
	// Round-robin pick: rotate the ready mask so rrNext becomes bit 0 and
	// take the lowest set bit.
	if mx.readyMask == 0 {
		return // re-activated when a thread completes
	}
	n := len(mx.threads)
	rot := mx.readyMask>>uint(mx.rrNext) | mx.readyMask<<uint(n-mx.rrNext)
	ti := mx.rrNext + bits.TrailingZeros64(rot)
	if ti >= n {
		ti -= n
	}
	th := mx.threads[ti]
	windowStart := m.now
	cycles := int64(0)
	instrs := uint64(0) // flushed to stats.MEInstrs once, at every exit
	code := mx.dec.code
	regs := &th.regs
	pc := th.pc
	budget := int64(maxRunInstrs)
	reason := YieldBudget // loop falls through only on budget exhaustion
loop:
	for budget > 0 {
		if pc < 0 || pc >= len(code) {
			th.pc = pc
			m.stats.MEInstrs[meIdx] += instrs
			m.fail("ME%d thread %d: pc %d out of range", meIdx, ti, pc)
			if m.tracer != nil {
				m.tracer.ThreadRun(windowStart, meIdx, ti, cycles, YieldFault)
			}
			return
		}
		in := &code[pc]
		if in.run > 0 {
			// Straight-line run: execute up to the remaining budget in the
			// shared tight loop. Every instruction there costs exactly one
			// cycle, so the whole stretch accounts in one batched step.
			n := int64(in.run)
			if n > budget {
				n = budget
			}
			pc = execRun(code, regs, pc, n)
			instrs += uint64(n)
			cycles += n
			budget -= n
			continue
		}
		// General dispatch: run terminators.
		instrs++
		cycles++
		budget--
		next := pc + 1
		switch in.kind {
		case dBr:
			next = int(in.target)
		case dBcc:
			if condEval(in.cond, regs[in.srcA], regs[in.srcB]) {
				next = int(in.target)
			}
		case dBccImm:
			if condEval(in.cond, regs[in.srcA], in.imm) {
				next = int(in.target)
			}
		case dFusedImmedBcc:
			regs[in.dst] = in.imm
			if budget > 0 { // tail branch fits the budget
				t := &code[next]
				instrs++
				cycles++
				budget--
				next++
				if condEval(t.cond, regs[t.srcA], regs[t.srcB]) {
					next = int(t.target)
				}
			}
		case dFusedImmedBccImm:
			regs[in.dst] = in.imm
			if budget > 0 {
				t := &code[next]
				instrs++
				cycles++
				budget--
				next++
				if condEval(t.cond, regs[t.srcA], t.imm) {
					next = int(t.target)
				}
			}
		case dMem:
			done, block := m.execMem(mx, th, ti, in, cycles)
			if !done {
				th.pc = pc
				m.stats.MEInstrs[meIdx] += instrs
				if m.tracer != nil {
					m.tracer.ThreadRun(windowStart, meIdx, ti, cycles, YieldFault)
				}
				return // machine error
			}
			if in.level == cg.MemLocal {
				cycles += m.Cfg.LocalLatency - 1
			}
			if block > 0 {
				pc = next
				th.state = tBlocked
				mx.setReady(ti, false)
				m.schedule(block, evReady, meIdx, ti, nil)
				reason = YieldMem
				break loop
			}
		case dCAMLookup:
			hit, entry := m.camLookup(mx, regs[in.srcA])
			regs[in.dst] = hit
			regs[in.dst2] = entry
			cycles += 2
		case dCAMWrite:
			e := regs[in.srcA] % uint32(len(mx.cam))
			mx.cam[e] = camEntry{tag: regs[in.srcB], valid: true}
			m.camTouch(mx, int(e))
		case dCAMClear:
			m.stats.CAMClears[mx.idx]++
			for i := range mx.cam {
				mx.cam[i].valid = false
			}
		case dRingGet:
			blockAt := m.ringGet(mx, th, ti, in, cycles)
			if blockAt > 0 {
				pc = next
				th.state = tBlocked
				mx.setReady(ti, false)
				m.schedule(blockAt, evReady, meIdx, ti, nil)
				reason = YieldRing
				break loop
			}
		case dRingPut:
			blockAt := m.ringPut(mx, th, ti, in, cycles)
			if blockAt > 0 {
				pc = next
				th.state = tBlocked
				mx.setReady(ti, false)
				m.schedule(blockAt, evReady, meIdx, ti, nil)
				reason = YieldRing
				break loop
			}
		case dCtxArb:
			pc = next
			reason = YieldCtx
			break loop // stays ready; just gives up the pipeline
		case dHalt:
			th.state = tDead
			mx.setReady(ti, false)
			pc = next
			reason = YieldHalt
			break loop
		default: // dBad
			th.pc = pc
			m.stats.MEInstrs[meIdx] += instrs
			m.fail("ME%d: bad opcode %v", meIdx, in.op)
			if m.tracer != nil {
				m.tracer.ThreadRun(windowStart, meIdx, ti, cycles, YieldFault)
			}
			return
		}
		pc = next
	}
	th.pc = pc
	if m.tracer != nil {
		m.tracer.ThreadRun(windowStart, meIdx, ti, cycles, reason)
	}
	m.stats.MEInstrs[meIdx] += instrs
	m.stats.MEBusy[meIdx] += cycles
	if reason == YieldBudget {
		// Budget exhaustion only chunks the event loop; MEs context-switch
		// at voluntary yield points (I/O, ctx_arb), never mid-sequence, so
		// the same thread continues on the next activation. Rotating here
		// would let a sibling observe a software-cache fill between its
		// CAM tag write and its line write.
		mx.rrNext = ti
	} else {
		mx.rrNext = (ti + 1) % len(mx.threads)
	}
	// Context switch overhead of 1 cycle, then run the next ready thread.
	if mx.readyMask != 0 {
		mx.scheduled = true
		m.schedule(m.now+cycles+1, evActivate, meIdx, 0, nil)
	}
}

// execMem performs the data movement and returns the absolute unblock
// time (0 for non-blocking Local Memory).
func (m *Machine) execMem(mx *ME, th *Thread, ti int, in *dInstr, cyclesSoFar int64) (ok bool, unblockAt int64) {
	addr := in.addrOff + th.regs[in.addr] // absent base predecodes to the wired zero
	mem := m.memory(in.level, mx.idx)
	n := int(in.nwords) * 4
	if int(addr)+n > len(mem) {
		if mem = m.memSlow(in.level, int(addr)+n); mem == nil {
			m.fail("ME%d: %v access at %d+%d out of range (level %v)", mx.idx, in.op, addr, n, in.level)
			return false, 0
		}
	}
	if in.atomic && in.level == cg.MemScratch && !in.store {
		// Test-and-set: return previous value, write 1.
		old := beWord(mem[addr:])
		putBEWord(mem[addr:], 1)
		th.regs[in.data[0]] = old
	} else if in.store {
		for i, r := range in.data {
			putBEWord(mem[int(addr)+i*4:], th.regs[r])
		}
	} else {
		for i, r := range in.data {
			th.regs[r] = beWord(mem[int(addr)+i*4:])
		}
	}
	if in.accIdx >= 0 {
		m.acc[in.accIdx]++
	}
	if in.level == cg.MemLocal {
		return true, 0 // 3-cycle pipeline, no context swap (charged by caller)
	}
	c := m.controllerFor(in.level)
	issue := m.now + cyclesSoFar
	start, done := c.access(issue, int(in.nwords), &m.stats)
	if m.tracer != nil {
		m.tracer.MemAccess(issue, mx.idx, ti, in.level, int(in.nwords), start, done)
	}
	return true, done
}

// ringGet pops a descriptor pair, writing InvalidPktID on empty.
func (m *Machine) ringGet(mx *ME, th *Thread, ti int, in *dInstr, cyclesSoFar int64) int64 {
	r := m.Rings[in.ring]
	a, b, ok := r.Get()
	if !ok {
		a, b = cg.InvalidPktID, 0
	}
	th.regs[in.dst] = a
	th.regs[in.dst2] = b
	if in.accIdx >= 0 {
		m.acc[in.accIdx]++
	}
	c := m.ctrl[0]
	issue := m.now + cyclesSoFar
	start, done := c.access(issue, 2, &m.stats)
	if m.tracer != nil {
		m.tracer.RingOp(issue, mx.idx, ti, int(in.ring), RingPop, ok, r.Len(), start, done)
	}
	return done
}

// ringPut pushes a pair; Dst receives 1 on success, 0 when full.
func (m *Machine) ringPut(mx *ME, th *Thread, ti int, in *dInstr, cyclesSoFar int64) int64 {
	r := m.Rings[in.ring]
	ok := r.Put(th.regs[in.srcA], th.regs[in.srcB])
	if !ok {
		// Channel-ring backpressure: compiled code spins and retries, so
		// the packet is not lost here, but the failed put is the stall
		// cause we attribute latency growth to.
		m.stats.RingOverflow[in.ring]++
	}
	if ok && in.ring == cg.RingFree {
		m.stats.FreedPackets++ // an ME dropped (or recycled) a packet
		delete(m.rxStamp, th.regs[in.srcA])
	}
	if in.dst >= 0 { // success flag is optional
		if ok {
			th.regs[in.dst] = 1
		} else {
			th.regs[in.dst] = 0
		}
	}
	if in.accIdx >= 0 {
		m.acc[in.accIdx]++
	}
	c := m.ctrl[0]
	issue := m.now + cyclesSoFar
	start, done := c.access(issue, 2, &m.stats)
	if m.tracer != nil {
		m.tracer.RingOp(issue, mx.idx, ti, int(in.ring), RingPush, ok, r.Len(), start, done)
	}
	return done
}

func (m *Machine) camLookup(mx *ME, key uint32) (hit, entry uint32) {
	m.stats.CAMLookups[mx.idx]++
	for e, ce := range mx.cam {
		if ce.valid && ce.tag == key {
			m.camTouch(mx, e)
			m.stats.CAMHits[mx.idx]++
			return 1, uint32(e)
		}
	}
	// Miss: report the LRU entry for replacement.
	lru := mx.camLRU[len(mx.camLRU)-1]
	return 0, uint32(lru)
}

func (m *Machine) camTouch(mx *ME, e int) {
	for i, v := range mx.camLRU {
		if v == e {
			copy(mx.camLRU[1:i+1], mx.camLRU[:i])
			mx.camLRU[0] = e
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Media engines

func (m *Machine) rxTick() {
	gap := m.media.Inject(m)
	if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
		gap = 0
	}
	// Carry the fractional cycle to the next tick: truncating every gap
	// independently would bias the injection rate high (e.g. a 102.4-cycle
	// spacing truncated to 102 overshoots 3 Gbps by 0.4%). Accumulating the
	// remainder keeps the long-run offered load within rounding of the
	// requested rate.
	m.rxCarry += gap
	step := int64(m.rxCarry)
	if step < 1 {
		step = 1
		m.rxCarry = 0
	} else {
		m.rxCarry -= float64(step)
	}
	m.schedule(m.now+step, evRxTick, 0, 0, nil)
}

// RxIntervalCycles returns the exact (fractional) core-cycle spacing of
// frames of the given bit length at the configured port rate. Degenerate
// configurations (non-positive or non-finite clock or port rate —
// rejected by New, but this method is callable on a bare Config) fall
// back to a 64-cycle interval instead of returning zero or negative
// intervals that would wedge the event loop.
func (c *Config) RxIntervalCycles(bits float64) float64 {
	if c.PortGbps <= 0 || c.ClockMHz <= 0 ||
		math.IsNaN(c.PortGbps) || math.IsInf(c.PortGbps, 0) ||
		math.IsNaN(c.ClockMHz) || math.IsInf(c.ClockMHz, 0) ||
		bits <= 0 || math.IsNaN(bits) || math.IsInf(bits, 0) {
		return 64
	}
	seconds := bits / (c.PortGbps * 1e9)
	iv := seconds * c.ClockMHz * 1e6
	if iv < 1e-9 {
		return 1e-9
	}
	return iv
}

// RxIntervalOrDefault is RxIntervalCycles for minimum-size 64-byte frames,
// truncated to whole cycles — kept for callers that want a coarse integer
// spacing; rate-accurate media use RxIntervalCycles with the carry
// accumulator instead.
func (c *Config) RxIntervalOrDefault() int64 {
	iv := int64(c.RxIntervalCycles(64 * 8))
	if iv < 1 {
		iv = 1
	}
	return iv
}

// ChargeRxDMA bills the Rx engine's buffer write and metadata write; the
// media's Inject calls it per packet. The media interface moves
// packet data in efficient interleaved 64-byte bursts, so its occupancy
// per frame is charged at a quarter of the ME word rate.
func (m *Machine) ChargeRxDMA(frameBytes, metaWords int) {
	m.ctrl[2].access(m.now, (frameBytes+15)/16, &m.stats)
	m.ctrl[1].access(m.now, metaWords, &m.stats)
}

func (m *Machine) txTick() {
	r := m.Rings[cg.RingTx]
	w0, w1, ok := r.Get()
	if !ok {
		m.schedule(m.now+16, evTxTick, 0, 0, nil)
		return
	}
	frame := 64
	if m.media != nil {
		frame = m.media.Transmit(m, w0, w1)
	}
	m.ctrl[2].access(m.now, (frame+15)/16, &m.stats)
	m.stats.TxPackets++
	m.stats.TxBits += uint64(frame * 8)
	latency := int64(-1)
	if ts, ok := m.rxStamp[w0]; ok {
		latency = m.now - ts
		m.lat.Record(latency)
		delete(m.rxStamp, w0)
	}
	if m.tracer != nil {
		m.tracer.Tx(m.now, w0, frame, latency)
	}
	// Pace the port: next transmit after the frame serializes.
	bits := float64(frame * 8)
	wait := int64(bits / (m.Cfg.PortGbps * 1e9) * m.Cfg.ClockMHz * 1e6)
	if wait < 1 {
		wait = 1
	}
	m.schedule(m.now+wait, evTxTick, 0, 0, nil)
}

// levelName names the controller levels for metric keys.
func levelName(level cg.MemLevel) string {
	switch level {
	case cg.MemScratch:
		return "scratch"
	case cg.MemSRAM:
		return "sram"
	case cg.MemDRAM:
		return "dram"
	default:
		return "local"
	}
}

// sampleTick appends one telemetry sample per instrument: per-ME
// utilization and per-controller saturation over the elapsed interval,
// per-controller queue backlog, and per-ring occupancy at this instant.
func (m *Machine) sampleTick() {
	interval := m.Cfg.SampleInterval
	dt := float64(interval)
	for i := range m.MEs {
		d := m.stats.MEBusy[i] - m.lastME[i]
		m.lastME[i] = m.stats.MEBusy[i]
		m.reg.Series(metrics.MEUtil(i)).Append(m.now, float64(d)/dt)
	}
	for _, c := range m.ctrl {
		d := m.stats.Busy[c.level] - m.lastBusy[c.level]
		m.lastBusy[c.level] = m.stats.Busy[c.level]
		name := levelName(c.level)
		m.reg.Series(metrics.CtrlSat(name)).Append(m.now, float64(d)/dt)
		backlog := c.nextFree - m.now
		if backlog < 0 {
			backlog = 0
		}
		m.reg.Series(metrics.CtrlQueue(name)).Append(m.now, float64(backlog))
	}
	for i, r := range m.Rings {
		m.reg.Series(metrics.RingOcc(i)).Append(m.now, float64(r.Len()))
	}
	m.schedule(m.now+interval, evSample, 0, 0, nil)
}

func (m *Machine) xscaleTick() {
	var cost int64
	for _, ring := range m.XScaleRings {
		r := m.Rings[ring]
		if w0, w1, ok := r.Get(); ok {
			cost += m.XScaleStep(m, ring, w0, w1)
		}
	}
	if cost < 64 {
		cost = 64
	}
	m.schedule(m.now+cost, evXScale, 0, 0, nil)
}

// ---------------------------------------------------------------------------
// ALU semantics

func aluEval(op cg.ALUOp, a, b uint32) uint32 {
	switch op {
	case cg.AAdd:
		return a + b
	case cg.ASub:
		return a - b
	case cg.AMul:
		return a * b
	case cg.AAnd:
		return a & b
	case cg.AOr:
		return a | b
	case cg.AXor:
		return a ^ b
	case cg.AShl:
		return a << (b & 31)
	case cg.AShrU:
		return a >> (b & 31)
	case cg.AShrS:
		return uint32(int32(a) >> (b & 31))
	case cg.ANot:
		return ^a
	case cg.ANeg:
		return -a
	case cg.AMov:
		return a
	case cg.ADivU:
		if b == 0 {
			return 0
		}
		return a / b
	case cg.ARemU:
		if b == 0 {
			return 0
		}
		return a % b
	}
	return 0
}

func condEval(c cg.CondOp, a, b uint32) bool {
	switch c {
	case cg.CEq:
		return a == b
	case cg.CNe:
		return a != b
	case cg.CLtU:
		return a < b
	case cg.CLeU:
		return a <= b
	case cg.CLtS:
		return int32(a) < int32(b)
	case cg.CLeS:
		return int32(a) <= int32(b)
	}
	return false
}

func beWord(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBEWord(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// ResetStats clears measurement counters (after warm-up) while keeping
// machine state (queues, caches, register files) intact. Ring high-water
// marks restart at the current occupancy and the telemetry sampler's
// baselines reset with the counters.
func (m *Machine) ResetStats() {
	base := m.now
	m.stats = Stats{
		MEAccesses:   map[AccessKey]uint64{},
		MEInstrs:     make([]uint64, m.Cfg.NumMEs),
		MEBusy:       make([]int64, m.Cfg.NumMEs),
		RingOverflow: make([]uint64, m.Cfg.NumRings),
		CAMLookups:   make([]uint64, m.Cfg.NumMEs),
		CAMHits:      make([]uint64, m.Cfg.NumMEs),
		CAMClears:    make([]uint64, m.Cfg.NumMEs),
	}
	m.statsBase = base
	m.acc = [numMemLevels * numAccessClasses]uint64{}
	m.lastBusy = [4]int64{}
	m.lastME = make([]int64, m.Cfg.NumMEs)
	m.lat.Reset()
	// rxStamp is machine state, not a counter: packets in flight keep
	// their true arrival cycle across the warm-up reset.
	for _, r := range m.Rings {
		r.resetHWM()
	}
	// Window-scoped tracers (stall attribution) restart with the counters
	// so warm-up cycles never appear in the breakdown.
	if wr, ok := m.tracer.(windowResetter); ok {
		wr.ResetWindow(base)
	}
}

// Snapshot returns an immutable deep copy of the run statistics. The
// machine's internal counters cannot be mutated through it; hooks that
// need to account packets use the Observer's accounting methods instead.
// The execution engine accumulates classified accesses in a flat counter
// array; they fold into the MEAccesses map here, at snapshot time.
func (m *Machine) Snapshot() Stats {
	s := m.stats.clone()
	for i, v := range m.acc {
		if v != 0 {
			s.MEAccesses[AccessKey{cg.MemLevel(i / numAccessClasses), cg.AccessClass(i % numAccessClasses)}] += v
		}
	}
	return s
}

// SetPC places a thread at an absolute entry point (the runtime uses this
// to split one ME's threads across pipeline stages when fewer MEs than
// stages are enabled).
func (t *Thread) SetPC(pc int) { t.pc = pc }
