// Package rts is Shangri-La's runtime system (§4.2): it loads a compiled
// image onto the IXP model, maps communication channels to scratch rings,
// replicates aggregate programs across the enabled microengines, seeds
// packet buffers and the free list, runs init/control functions on the
// (interpreted) XScale core against simulated memory, and bridges packets
// between ME rings and XScale aggregates.
package rts

import (
	"fmt"
	"strings"

	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/ixp"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/workload"
)

// TxPkt is a captured transmitted frame for functional verification.
type TxPkt struct {
	Frame []byte // bytes on the wire: [head, end) of the buffer
}

// Runtime binds an image to a machine instance. It is the machine's
// Media: Inject plays the application trace (at line rate, or shaped by
// a workload stream) and Transmit recycles transmitted buffers.
type Runtime struct {
	Img *cg.Image
	M   *ixp.Machine

	prog        *ir.Program // for XScale interpretation
	trace       []*packet.Packet
	tracePos    int
	stream      *workload.Stream // nil = legacy line-rate trace player
	rxPortField *types.ProtoField

	// TxCapture collects up to CaptureLimit transmitted frames.
	TxCapture    []TxPkt
	CaptureLimit int

	sramStackBase   uint32
	xscaleEntries   map[int]*aggregate.Entry // ring -> entry
	interp          *profiler.Interp
	combinedEntries []int // per-stage entry PCs when thread-splitting one ME
}

// Options configures a run.
type Options struct {
	NumMEs int // enabled packet-processing MEs (1..6 in the paper's plots)
	Cfg    ixp.Config
	// CaptureLimit bounds functional frame capture (0 disables).
	CaptureLimit int
	// Workload shapes arrivals with a deterministic open-loop stream
	// (arrival process, size mix, Zipf flow locality over the trace).
	// nil plays the trace back-to-back at line rate, the paper's
	// saturating-load setup.
	Workload *workload.Spec
	// Engine is ignored: the machine has one engine (ixp.EngineSerial).
	// It stays because bench/ sets it from ixp.ParseEngine.
	Engine ixp.EngineSpec
	// Media overrides the machine's installed media. nil keeps the
	// runtime itself (trace playback / workload stream); the cluster
	// passes its fabric port here and feeds packets back through the
	// runtime's FabricSink methods.
	Media ixp.Media
}

// New loads img onto a fresh machine, replicating ME programs across
// opts.NumMEs engines per the aggregation plan, and installs the runtime
// as the machine's media. prog supplies the IR for interpreted (XScale)
// execution.
func New(img *cg.Image, prog *ir.Program, tr []*packet.Packet, opts Options) (*Runtime, error) {
	if opts.NumMEs < 1 {
		return nil, fmt.Errorf("rts: need at least one ME")
	}
	cfg := opts.Cfg
	if cfg.NumMEs == 0 {
		cfg = ixp.DefaultConfig()
	}
	lay := img.Layout
	// Inject and DeliverFrame copy trace packets into buffers whole, so one
	// longer than a buffer's payload area would overwrite its neighbour.
	limit := int(lay.BufSize - lay.BufHeadroom)
	for i, p := range tr {
		if p.Len() > limit {
			return nil, fmt.Errorf("rts: trace packet %d is %d bytes, over the %d-byte buffer payload limit",
				i, p.Len(), limit)
		}
	}
	cfg.NumRings = lay.NumRings
	cfg.RingSlots = lay.RingSlots

	r := &Runtime{
		Img: img, prog: prog, trace: tr,
		CaptureLimit:  opts.CaptureLimit,
		xscaleEntries: map[int]*aggregate.Entry{},
	}
	if opts.Workload != nil {
		st, err := workload.NewStream(*opts.Workload)
		if err != nil {
			return nil, fmt.Errorf("rts: %w", err)
		}
		r.stream = st
	}
	med := ixp.Media(r)
	if opts.Media != nil {
		med = opts.Media
	}
	m, err := ixp.New(cfg, ixp.WithMedia(med))
	if err != nil {
		return nil, fmt.Errorf("rts: %w", err)
	}
	r.M = m
	m.GrowRing(cg.RingFree, lay.NumBufs+8)
	r.rxPortField = img.Types.Metadata.Field("rx_port")
	// SRAM stack overflow area sits after the metadata records.
	metaEnd := lay.MetaAddr(uint32(lay.NumBufs))
	r.sramStackBase = (metaEnd + 63) &^ 63

	// Free list: every buffer id.
	for id := 0; id < lay.NumBufs; id++ {
		m.Rings[cg.RingFree].Put(uint32(id), 0)
	}

	// Assign programs to MEs.
	if len(img.MECode) == 0 {
		return nil, fmt.Errorf("rts: image has no ME code")
	}
	if err := r.assignMEs(opts.NumMEs); err != nil {
		return nil, err
	}

	// XScale aggregates: consume their input rings interpretively.
	r.interp = &profiler.Interp{Prog: prog, Env: &simEnv{rt: r}}
	var xr []int
	for _, xm := range img.XScale {
		for _, e := range xm.Entries {
			if e.In == nil {
				return nil, fmt.Errorf("rts: rx-fed aggregate %v mapped to XScale", xm.Agg.PPFs)
			}
			ring, ok := img.RingOf[e.In.Name]
			if !ok {
				return nil, fmt.Errorf("rts: no ring for XScale input %s", e.In.Name)
			}
			r.xscaleEntries[ring] = e
			xr = append(xr, ring)
		}
	}
	m.XScaleRings = xr
	if len(xr) > 0 {
		m.XScaleStep = r.xscaleStep
	}

	// Init functions run at load time on the XScale.
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		if fn.Kind == ir.FuncInit && len(fn.Params) == 0 {
			if _, err := r.interp.Run(fn, nil); err != nil {
				return nil, fmt.Errorf("rts: init %s: %w", name, err)
			}
		}
	}

	return r, nil
}

// assignMEs distributes the plan's stages over n engines: with enough
// engines each stage gets floor-even replication (stage i on ME j when
// j mod stages == i); with fewer engines than stages every enabled ME
// runs the combined program that polls all inputs (the paper's 1-ME data
// points for 2-ME pipelines).
func (r *Runtime) assignMEs(n int) error {
	stages := r.Img.MECode
	// Expand duplication factors into a stage sequence.
	var seq []*cg.Compiled
	for _, s := range stages {
		for d := 0; d < s.Agg.Dup; d++ {
			seq = append(seq, s)
		}
	}
	if len(seq) == 0 {
		seq = stages
	}
	if n < len(seq) {
		comb, err := r.combinedProgram()
		if err != nil {
			return err
		}
		for me := 0; me < n; me++ {
			r.loadME(me, comb)
		}
		return nil
	}
	for me := 0; me < n; me++ {
		r.loadME(me, seq[me%len(seq)])
	}
	return nil
}

// combinedProgram concatenates every stage's code into one program by
// chaining dispatch loops (used only when fewer MEs than stages are
// enabled). Threads are split across the stage programs instead:
// thread t runs stage t mod stages.
func (r *Runtime) combinedProgram() (*cg.Compiled, error) {
	// Simplest faithful model: load stage programs on the same ME by
	// giving each thread a different entry PC. CGIR programs are
	// self-contained loops, so concatenation with adjusted branch
	// targets works.
	var code []*cg.Instr
	var entryPCs []int
	for _, s := range r.Img.MECode {
		base := len(code)
		entryPCs = append(entryPCs, base)
		for _, in := range s.Program.Code {
			cp := *in
			cp.Data = append([]cg.PReg(nil), in.Data...)
			switch cp.Op {
			case cg.IBr, cg.IBcc, cg.IBccImm:
				cp.Target += base
			}
			code = append(code, &cp)
		}
	}
	comb := &cg.Compiled{
		Agg:     r.Img.MECode[0].Agg,
		Program: &cg.Program{Name: "combined", Code: code},
	}
	r.combinedEntries = entryPCs
	return comb, nil
}

// loadME installs a program and initializes the per-thread registers.
func (r *Runtime) loadME(me int, c *cg.Compiled) {
	m := r.M
	lay := r.Img.Layout
	m.LoadProgram(me, c.Program)
	label := c.Program.Name
	if len(c.Agg.PPFs) > 0 && label != "combined" {
		label = strings.Join(c.Agg.PPFs, "+")
	}
	m.Observer().SetMELabel(me, label)
	for t := 0; t < m.Cfg.ThreadsPerME; t++ {
		th := m.MEs[me].Thread(t)
		th.SetReg(cg.RegSP, lay.StackBase+uint32(t)*lay.StackSize)
		th.SetReg(cg.RegSSP, r.sramStackBase+uint32(me*m.Cfg.ThreadsPerME+t)*64)
		if c.Program.Name == "combined" && len(r.combinedEntries) > 0 {
			th.SetPC(r.combinedEntries[t%len(r.combinedEntries)])
		}
	}
}

// Inject implements ixp.Media: it sources the next arrival and returns
// the gap until the following one. With no workload stream the trace
// plays back-to-back at line rate and a full Rx ring causes a retry
// (the paper's saturating setup); with a stream, arrivals follow the
// configured process and a saturated Rx path loses the packet
// (open-loop), which is the drop the load–latency curves account.
func (r *Runtime) Inject(m *ixp.Machine) float64 {
	if len(r.trace) == 0 {
		return 64
	}
	if r.stream == nil {
		p := r.trace[r.tracePos%len(r.trace)]
		wire := p.Bytes()
		gap := m.Cfg.RxIntervalCycles(float64(len(wire) * 8))
		if !r.enqueue(m, p, len(wire)) {
			// Closed loop: the packet is not consumed; retry shortly.
			return 32
		}
		r.tracePos++
		return gap
	}
	pkt := r.stream.Next()
	r.DeliverFrame(m, pkt.FrameBytes, pkt.Flow)
	return pkt.GapSeconds * m.Cfg.ClockMHz * 1e6
}

// DeliverFrame implements ixp.FabricSink: it materializes one
// externally-scheduled arrival (the cluster fabric's delivery path,
// also the tail of the runtime's own workload player). Zipf flow
// locality: the flow picks the trace packet, so popular flows replay
// identical headers (table keys, labels, routes). The arrival is
// consumed whether or not the Rx path accepts it (open loop); a false
// return means it was counted as a saturation loss.
func (r *Runtime) DeliverFrame(m *ixp.Machine, frameBytes, flow int) bool {
	if len(r.trace) == 0 {
		return false
	}
	p := r.trace[flow%len(r.trace)]
	frame := frameBytes
	lay := r.Img.Layout
	if max := int(lay.BufSize - lay.BufHeadroom); frame > max {
		frame = max
	}
	if frame < p.Len() {
		frame = p.Len()
	}
	ok := r.enqueue(m, p, frame)
	r.tracePos++
	return ok
}

// enqueue copies one trace packet into a fresh buffer, padded to
// frameBytes on the wire, and pushes its descriptor on the Rx ring. A
// saturated Rx ring or exhausted free list counts a loss (the caller
// decides whether the packet is consumed).
func (r *Runtime) enqueue(m *ixp.Machine, p *packet.Packet, frameBytes int) bool {
	lay := r.Img.Layout
	rx := m.Rings[cg.RingRx]
	if rx.Space() == 0 {
		m.Observer().RxDrop(frameBytes)
		return false
	}
	id, _, ok := m.Rings[cg.RingFree].Get()
	if !ok {
		m.Observer().RxDrop(frameBytes)
		return false
	}
	// The window is exactly the frame: New checked every trace packet
	// fits a buffer, and a copy through it cannot reach the next one.
	buf := m.Window(cg.MemDRAM, lay.BufAddr(id)+lay.BufHeadroom, frameBytes)
	// Zero the padding up to the frame length (buffers are recycled).
	clear(buf[copy(buf, p.Bytes()):])
	head := lay.BufHeadroom
	end := lay.BufHeadroom + uint32(frameBytes)
	// Metadata record: end, head, app metadata (zeroed + rx_port).
	meta := m.Window(cg.MemSRAM, lay.MetaAddr(id), int(lay.MetaRecBytes))
	putBE(meta[cg.MetaLenOff:], end)
	putBE(meta[cg.MetaHeadOff:], head)
	app := meta[lay.MetaAppOff:]
	clear(app)
	if r.rxPortField != nil {
		packet.WriteBits(app, r.rxPortField.BitOff, r.rxPortField.Bits, p.Port)
	}
	m.ChargeRxDMA(frameBytes, int(lay.MetaRecBytes/4))
	rx.Put(id, head<<16|end)
	m.Observer().RxPacket(id, frameBytes)
	return true
}

// Transmit implements ixp.Media: it accounts and recycles one
// transmitted packet.
func (r *Runtime) Transmit(m *ixp.Machine, w0, w1 uint32) int {
	lay := r.Img.Layout
	head := w1 >> 16
	end := w1 & 0xffff
	if end < head {
		head, end = end, head
	}
	frame := int(end - head)
	if r.CaptureLimit > 0 && len(r.TxCapture) < r.CaptureLimit {
		cp := append([]byte(nil), m.Window(cg.MemDRAM, lay.BufAddr(w0)+head, frame)...)
		r.TxCapture = append(r.TxCapture, TxPkt{Frame: cp})
	}
	m.Rings[cg.RingFree].Put(w0, 0)
	return frame
}

// Control invokes a control function immediately against simulated memory
// (the host → XScale control path).
func (r *Runtime) Control(name string, args ...uint32) error {
	fn := r.prog.Func(name)
	if fn == nil {
		return fmt.Errorf("rts: no control function %q", name)
	}
	vals := make([]profiler.Value, len(args))
	for i, a := range args {
		vals[i] = profiler.Value{W: a}
	}
	_, err := r.interp.Run(fn, vals)
	return err
}

// ControlAt schedules a control invocation at an absolute cycle.
func (r *Runtime) ControlAt(t int64, name string, args ...uint32) {
	r.M.At(t, func() {
		_ = r.Control(name, args...)
	})
}

// Run advances the machine.
func (r *Runtime) Run(cycles int64) error { return r.M.Run(cycles) }

// xscaleStep interprets one packet on an XScale aggregate entry.
func (r *Runtime) xscaleStep(m *ixp.Machine, ring int, w0, w1 uint32) int64 {
	e := r.xscaleEntries[ring]
	lay := r.Img.Layout
	head := w1 >> 16
	end := w1 & 0xffff
	wire := append([]byte(nil), m.Window(cg.MemDRAM, lay.BufAddr(w0)+head, int(end)-int(head))...)
	p := packet.New(wire, len(r.Img.Types.Metadata.Fields)*4/8+4)
	// App metadata from SRAM.
	p.Meta = append(p.Meta[:0], m.Window(cg.MemSRAM,
		lay.MetaAddr(w0)+lay.MetaAppOff, int(lay.MetaRecBytes-lay.MetaAppOff))...)
	env := r.interp.Env.(*simEnv)
	env.track(p, w0, int(end-head), head)
	if _, err := r.interp.Run(e.Func, []profiler.Value{{P: p, Head: 0}}); err != nil {
		// Treat interpreter failures as a dropped packet.
		m.Rings[cg.RingFree].Put(w0, 0)
		m.Observer().PacketFreed(w0)
		return 512
	}
	// Cost model: interpreted XScale execution, a few cycles per IR op.
	return 2048
}

func putBE(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func beWord(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
