package profiler

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// CacheLineBytes is the software-cache line size assumed when estimating
// hit rates (four words: one CAM entry maps one Local-Memory line).
const CacheLineBytes = 16

// SWCacheEntries matches the ME's 16-entry CAM (§3.3).
const SWCacheEntries = 16

// GlobalStats aggregates accesses to one global data structure.
type GlobalStats struct {
	Reads      uint64
	Writes     uint64
	InCritical bool // some access occurred inside a critical section
	// LineReads counts reads per cache-line-sized chunk, for hit-rate
	// estimation.
	LineReads map[uint32]uint64
}

// EstHitRate estimates the hit rate of a 16-entry line cache over the
// observed read stream: the share of reads landing on the 16 hottest lines
// (an upper-bound working-set argument that matches how the paper picks
// "high hit rate" candidates).
func (g *GlobalStats) EstHitRate() float64 {
	if g.Reads == 0 {
		return 0
	}
	// top holds the largest counts seen so far, in descending order.
	var top [SWCacheEntries]uint64
	n := 0
	for _, c := range g.LineReads {
		if n == len(top) && c <= top[n-1] {
			continue
		}
		if n < len(top) {
			n++
		}
		i := n - 1
		for ; i > 0 && top[i-1] < c; i-- {
			top[i] = top[i-1]
		}
		top[i] = c
	}
	var sum uint64
	for _, c := range top[:n] {
		sum += c
	}
	return float64(sum) / float64(g.Reads)
}

// FuncStats aggregates one function's dynamic behaviour.
type FuncStats struct {
	Invocations uint64
	// Instrs counts executed IR instructions (the PPF execution-time
	// estimate).
	Instrs uint64
	// MemAccesses counts executed memory-touching operations (global,
	// packet and metadata accesses), the dominant cost on the IXP.
	MemAccesses uint64
}

// Weights is the part of a profile that weighs the program's functions and
// channels against each other: how many packets were injected, how often
// and how long each function ran, and how many messages each channel
// carried. It is all aggregation reads, so two profiles with equal Weights
// aggregate alike.
type Weights struct {
	Packets uint64      // trace packets injected
	Funcs   []FuncStats // by position in ir.Program.Funcs
	Chans   []uint64    // messages, by Channel.ID
}

// Stats is the Functional profiler's output, consumed by the IPA/global
// optimizer (aggregation reads its Weights, SWC candidate selection its
// Globals).
type Stats struct {
	Weights
	Forwarded uint64 // packets reaching tx
	Dropped   uint64
	// Globals is by Global.ID, one entry per declared global: the synthetic
	// globals SWC adds after them have none.
	Globals []GlobalStats
}

// Equal reports whether two weights hold the same counts.
func (w *Weights) Equal(v *Weights) bool {
	return w.Packets == v.Packets && slices.Equal(w.Chans, v.Chans) && slices.Equal(w.Funcs, v.Funcs)
}

// Equal reports whether two profiles hold the same counts.
func (s *Stats) Equal(t *Stats) bool {
	return s.Weights.Equal(&t.Weights) && s.Forwarded == t.Forwarded && s.Dropped == t.Dropped &&
		slices.EqualFunc(s.Globals, t.Globals, func(a, b GlobalStats) bool {
			return a.Reads == b.Reads && a.Writes == b.Writes && a.InCritical == b.InCritical &&
				maps.Equal(a.LineReads, b.LineReads)
		})
}

// Diff names the first count in which two profiles of prog differ, "" when
// they are Equal: the packet counts, then channels, functions and globals
// in position order.
func (s *Stats) Diff(prog *ir.Program, t *Stats) string {
	switch {
	case s.Packets != t.Packets:
		return "Packets"
	case s.Forwarded != t.Forwarded:
		return "Forwarded"
	case s.Dropped != t.Dropped:
		return "Dropped"
	case len(s.Chans) != len(t.Chans) || len(s.Funcs) != len(t.Funcs) || len(s.Globals) != len(t.Globals):
		return fmt.Sprintf("the number of channels, functions or globals (%d/%d/%d, %d/%d/%d)",
			len(s.Chans), len(s.Funcs), len(s.Globals), len(t.Chans), len(t.Funcs), len(t.Globals))
	}
	for id, n := range s.Chans {
		if n != t.Chans[id] {
			return "Chans[" + prog.Types.ChanByID[id].Name + "]"
		}
	}
	for i, a := range s.Funcs {
		if a != t.Funcs[i] {
			return fmt.Sprintf("Funcs[%s] (%+v, %+v)", prog.Funcs[i].Name, a, t.Funcs[i])
		}
	}
	names := make([]string, len(s.Globals))
	for _, g := range prog.Types.Globals {
		if g.ID < len(names) {
			names[g.ID] = g.Name
		}
	}
	for id := range s.Globals {
		a, b := &s.Globals[id], &t.Globals[id]
		switch {
		case a.Reads != b.Reads:
			return "Globals[" + names[id] + "].Reads"
		case a.Writes != b.Writes:
			return "Globals[" + names[id] + "].Writes"
		case a.InCritical != b.InCritical:
			return "Globals[" + names[id] + "].InCritical"
		}
		if !maps.Equal(a.LineReads, b.LineReads) {
			low := uint32(math.MaxUint32) // the lowest line whose counts differ
			for _, m := range [...]map[uint32]uint64{a.LineReads, b.LineReads} {
				for line := range m {
					if a.LineReads[line] != b.LineReads[line] {
						low = min(low, line)
					}
				}
			}
			return fmt.Sprintf("Globals[%s].LineReads[%d]", names[id], low)
		}
	}
	return ""
}

// hostEnv is the profiler's host-memory execution environment and PPF
// dispatcher. It counts on dense tables — globals by Global.ID, channels
// by Channel.ID, functions on the Interp's decoded code — and assemble
// copies them into the Stats slices once, at the end of a profile.
type hostEnv struct {
	tp      *types.Program
	it      *Interp
	stats   *Stats
	globals []hostGlobal // by Global.ID
	mem     []uint32     // every global's words
	lines   []uint64     // every global's line counters
	chans   []hostChan   // by Channel.ID
	queue   []OutPacket  // pending channel messages (FIFO); qhead is the next one
	qhead   int
	inCrit  int
	rx      *code             // the PPF wired to rx, once resolved
	rxPort  *types.ProtoField // metadata field mirroring the receive port, if declared
	// rec, when set, logs what each packet reads, writes and counts, for
	// an Incremental profile; nil on every other path. The work env's
	// Interp carries it too.
	rec *recorder
}

type hostGlobal struct {
	g         *types.Global
	words     []uint32    // backing store
	lineReads []uint64    // by cache line
	stats     GlobalStats // LineReads is filled from lineReads by assemble, and Reads too with a recorder
	// base and line0 are where words and lineReads start in the env's mem
	// and lines.
	base, line0 uint32
}

type hostChan struct {
	puts     uint64
	consumer *code // resolved on the first message
}

func newHostEnv(prog *ir.Program, stats *Stats) *hostEnv {
	tp := prog.Types
	env := &hostEnv{tp: tp, stats: stats, rxPort: tp.Metadata.Field("rx_port"),
		globals: make([]hostGlobal, len(tp.Globals)), chans: make([]hostChan, len(tp.ChanByID))}
	env.it = &Interp{Prog: prog, Env: env, host: env}
	for _, g := range tp.Globals {
		env.globals[g.ID].g = g
	}
	// Every global's words are cut from one backing store, and its line
	// counters from one array, in Global.ID order.
	words, lines := 0, 0
	for i := range env.globals {
		n := (env.globals[i].g.Type.SizeBytes() + 3) / 4
		words, lines = words+n, lines+n*4/CacheLineBytes+1
	}
	env.mem, env.lines = make([]uint32, words), make([]uint64, lines)
	words, lines = 0, 0
	for i := range env.globals {
		hg := &env.globals[i]
		n := (hg.g.Type.SizeBytes() + 3) / 4
		nl := n*4/CacheLineBytes + 1
		hg.base, hg.line0 = uint32(words), uint32(lines)
		hg.words, hg.lineReads = env.mem[words:words+n:words+n], env.lines[lines:lines+nl:lines+nl]
		words, lines = words+n, lines+nl
	}
	return env
}

// global returns g's backing and counters after checking that the n-word
// access at off is inside it, and notes an access inside a critical
// section.
func (e *hostEnv) global(g *types.Global, off uint32, n int, verb string) (*hostGlobal, error) {
	if g.ID >= len(e.globals) || e.globals[g.ID].g != g {
		return nil, fmt.Errorf("global %s is not part of the program", g.Name)
	}
	hg := &e.globals[g.ID]
	if int(off/4)+n > len(hg.words) {
		return nil, fmt.Errorf("global %s %s out of range (off %d, %d words)", g.Name, verb, off, n)
	}
	if e.inCrit > 0 {
		e.critical(hg)
	}
	return hg, nil
}

// critical notes an access to hg inside a critical section.
func (e *hostEnv) critical(hg *hostGlobal) {
	hg.stats.InCritical = true
	if e.rec != nil {
		e.rec.critical(hg.g.ID)
	}
}

// LoadWords and StoreWords serve the Interps that have no host (and
// Session.ReadGlobalWord): exec does the same bookkeeping in place for the
// globals decode resolved (opHostLoad, opHostStore).
func (e *hostEnv) LoadWords(g *types.Global, off uint32, n int) ([]uint32, error) {
	hg, err := e.global(g, off, n, "read")
	if err != nil {
		return nil, err
	}
	hg.stats.Reads++
	hg.lineReads[off/CacheLineBytes]++
	if e.rec != nil {
		e.rec.read(hg, off, n)
	}
	return hg.words[off/4 : off/4+uint32(n)], nil
}

func (e *hostEnv) StoreWords(g *types.Global, off uint32, words []uint32) error {
	hg, err := e.global(g, off, len(words), "write")
	if err != nil {
		return err
	}
	hg.stats.Writes++
	if e.rec != nil { // before the words change: a control's write logs what they held
		e.rec.write(hg, off, len(words))
	}
	copy(hg.words[off/4:], words)
	return nil
}

func (e *hostEnv) ChannelPut(ch *types.Channel, p *packet.Packet, head int) error {
	if ch.ID >= len(e.chans) || e.tp.ChanByID[ch.ID] != ch {
		return fmt.Errorf("channel %s is not part of the program", ch.Name)
	}
	e.chans[ch.ID].puts++
	if e.rec != nil {
		e.rec.put(ch.ID)
	}
	e.queue = append(e.queue, OutPacket{Chan: ch, P: p, Head: head})
	return nil
}

func (e *hostEnv) Drop(p *packet.Packet) { e.stats.Dropped++ }

func (e *hostEnv) Lock(id int)   { e.inCrit++ }
func (e *hostEnv) Unlock(id int) { e.inCrit-- }

func (e *hostEnv) NewPacket(proto *types.Protocol) *packet.Packet {
	return packet.NewZero(proto.Size(), e.tp.Metadata.Bytes)
}

// Init runs the program's no-argument init functions in declaration
// order: the first half of the XScale boot (§4.2), on the host model and
// the simulator alike.
func (it *Interp) Init() error {
	for _, fn := range it.Prog.Funcs {
		if fn.Kind == ir.FuncInit && len(fn.Params) == 0 {
			if _, err := it.Run(fn, nil); err != nil {
				return fmt.Errorf("init %s: %w", fn.Name, err)
			}
		}
	}
	return nil
}

// Control invokes a control function with word arguments (the host →
// XScale control path). Only a function declared as a control runs: an
// init function or a PPF named here is refused, as a Session delta
// refuses it.
func (it *Interp) Control(name string, args ...uint32) error {
	fn := it.Prog.Func(name)
	if fn == nil || fn.Kind != ir.FuncControl {
		return fmt.Errorf("no control function %q", name)
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = Value{W: a}
	}
	_, err := it.Run(fn, vals)
	return err
}

// Boot applies controls in order, the second half of the boot; a
// deployment, a profile and the differential's reference all call it with
// the same list.
func (it *Interp) Boot(controls []Control) error {
	for _, c := range controls {
		if err := it.Control(c.Name, c.Args...); err != nil {
			return fmt.Errorf("control %s: %w", c.Name, err)
		}
	}
	return nil
}

// entry resolves the PPF wired to rx.
func (e *hostEnv) entry() (*code, error) {
	if e.rx == nil {
		if e.tp.Entry == nil || e.it.Prog.Func(e.tp.Entry.Name) == nil {
			return nil, fmt.Errorf("program has no rx entry PPF")
		}
		e.rx = e.it.codeOf(e.it.Prog.Func(e.tp.Entry.Name))
	}
	return e.rx, nil
}

// inject runs p through the application: it enters at the rx-wired PPF,
// then channel messages are dispatched FIFO to consumer PPFs until the
// system drains. Packets reaching tx are appended to out when non-nil.
//
// Every packet starts from an empty channel queue outside any critical
// section, even when the one before it faulted half-way: a packet's run
// depends only on its bytes, its port and the global words it reads.
func (e *hostEnv) inject(entry *code, p *packet.Packet, out *[]OutPacket) error {
	err := e.dispatch(entry, p, out)
	e.queue, e.qhead, e.inCrit = e.queue[:0], 0, 0
	return err
}

func (e *hostEnv) dispatch(entry *code, p *packet.Packet, out *[]OutPacket) error {
	e.stats.Packets++
	if e.rxPort != nil {
		p.SetMetaField(e.rxPort, p.Port)
	}
	if err := e.runPPF(entry, p, 0); err != nil {
		return err
	}
	for e.qhead < len(e.queue) {
		msg := e.queue[e.qhead]
		e.qhead++
		if msg.Chan.Consumer == "tx" {
			e.stats.Forwarded++
			if out != nil {
				*out = append(*out, msg)
			}
			continue
		}
		hc := &e.chans[msg.Chan.ID]
		if hc.consumer == nil {
			fn := e.it.Prog.Func(msg.Chan.Consumer)
			if fn == nil {
				return fmt.Errorf("channel %s consumer %q missing", msg.Chan.Name, msg.Chan.Consumer)
			}
			hc.consumer = e.it.codeOf(fn)
		}
		if err := e.runPPF(hc.consumer, msg.P, msg.Head); err != nil {
			return err
		}
	}
	return nil
}

func (e *hostEnv) runPPF(c *code, p *packet.Packet, head int) error {
	c.invocations++
	if e.rec != nil {
		e.rec.invoke(c)
	}
	if _, err := e.it.run(c, []Value{{P: p, Head: head}}); err != nil {
		return fmt.Errorf("%s: %w", c.fn.Name, err)
	}
	return nil
}

// resetCounts forgets everything counted so far; memory keeps its
// contents. Function counters live on the Interp's decoded code, so a fresh
// Interp starts them (and the consumers resolved against it) from nothing.
func (e *hostEnv) resetCounts() {
	e.it, e.rx = &Interp{Prog: e.it.Prog, Env: e, host: e}, nil
	clear(e.chans)
	for i := range e.globals {
		e.globals[i].stats = GlobalStats{}
		clear(e.globals[i].lineReads)
	}
}

// assemble fills the slices of st from the dense counters, leaving zero
// every function, channel and global not touched since the last reset.
// With a recorder, whose counts can go down again, a global was accessed
// inside a critical section when its count of such accesses is not zero,
// its reads are what its line counters hold (an Incremental takes a
// packet's reads out of those only), and only the lines a recorded packet
// read can have a count.
func (e *hostEnv) assemble(st *Stats) {
	st.Funcs = make([]FuncStats, len(e.it.Prog.Funcs))
	for i, fn := range e.it.Prog.Funcs {
		if c := e.it.code[fn]; c != nil {
			st.Funcs[i] = FuncStats{Invocations: c.invocations, Instrs: c.instrs, MemAccesses: c.mem}
		}
	}
	st.Chans = make([]uint64, len(e.chans))
	for id, hc := range e.chans {
		st.Chans[id] = hc.puts
	}
	declared := 0
	for declared < len(e.globals) && !e.globals[declared].g.Synthetic {
		declared++
	}
	st.Globals = make([]GlobalStats, declared)
	for i := range st.Globals {
		hg := &e.globals[i]
		reads, crit := hg.stats.Reads, hg.stats.InCritical
		if e.rec != nil {
			reads, crit = 0, e.rec.crit[i] > 0
			for _, line := range e.rec.touched[i] {
				reads += hg.lineReads[line]
			}
		}
		if reads+hg.stats.Writes == 0 {
			continue
		}
		gs := &st.Globals[i]
		*gs = GlobalStats{Reads: reads, Writes: hg.stats.Writes, InCritical: crit}
		if e.rec == nil {
			gs.LineReads = map[uint32]uint64{}
			for line, n := range hg.lineReads {
				if n > 0 {
					gs.LineReads[uint32(line)] = n
				}
			}
		} else {
			gs.LineReads = make(map[uint32]uint64, len(e.rec.touched[i]))
			for _, line := range e.rec.touched[i] {
				if n := hg.lineReads[line]; n > 0 {
					gs.LineReads[line] = n
				}
			}
		}
	}
}

// Control names a control-plane invocation used to populate tables before
// profiling (the compile-time equivalent of the host driving the XScale).
type Control struct {
	Name string
	Args []uint32
}

// Profile interprets the program over the trace and returns the gathered
// statistics. Each trace packet enters at the rx-wired PPF; channel
// messages are dispatched FIFO to consumer PPFs until the system drains.
func Profile(prog *ir.Program, tr []*packet.Packet) (*Stats, error) {
	return ProfileWithControls(prog, tr, nil)
}

// ProfileWithControls is Profile with control-function table setup
// between init and the packet trace. The trace is only read, so one trace
// can drive any number of profiles.
func ProfileWithControls(prog *ir.Program, tr []*packet.Packet, controls []Control) (*Stats, error) {
	stats := &Stats{}
	env := newHostEnv(prog, stats)
	if err := env.it.Init(); err != nil {
		return nil, err
	}
	if err := env.it.Boot(controls); err != nil {
		return nil, err
	}
	// Setup traffic (init + table population) must not pollute the
	// steady-state statistics: SWC's Equation 2 needs the *runtime* store
	// rate, and aggregation wants data-path execution weights.
	env.resetCounts()

	entry, err := env.entry()
	if err != nil {
		return nil, err
	}
	// The application rewrites the packet it is given (MACs, TTLs,
	// labels), so each trace packet is copied into one scratch packet
	// first: the trace is only read.
	var scratch packet.Packet
	for _, p := range tr {
		scratch.CopyFrom(p)
		if err := env.inject(entry, &scratch, nil); err != nil {
			return nil, err
		}
	}
	env.assemble(stats)
	return stats, nil
}

// Session bundles an executor and host environment for integration
// tests and examples that want to run a Baker program functionally
// (outside the IXP model): inject packets, invoke control functions, and
// inspect outputs.
type Session struct {
	Prog *ir.Program
	// Stats carries the live packet counters (Packets, Forwarded, Dropped);
	// its per-function, channel and global slices are only filled by
	// Profile.
	Stats *Stats
	env   *hostEnv
	// Out receives packets forwarded to tx along with the channel they
	// left on.
	Out []OutPacket
}

// OutPacket is a transmitted packet, its exit channel and final header
// offset.
type OutPacket struct {
	Chan *types.Channel
	P    *packet.Packet
	Head int
}

// NewSession builds a functional execution session, running init
// functions.
func NewSession(prog *ir.Program) (*Session, error) {
	s := &Session{Prog: prog, Stats: &Stats{}}
	s.env = newHostEnv(prog, s.Stats)
	if err := s.env.it.Init(); err != nil {
		return nil, err
	}
	return s, nil
}

// Control invokes a control function with word arguments.
func (s *Session) Control(name string, args ...uint32) error { return s.env.it.Control(name, args...) }

// Boot applies the boot controls in order (Interp.Boot).
func (s *Session) Boot(controls []Control) error { return s.env.it.Boot(controls) }

// Inject runs one packet through the application, collecting transmitted
// packets into s.Out.
func (s *Session) Inject(p *packet.Packet) error {
	entry, err := s.env.entry()
	if err != nil {
		return err
	}
	return s.env.inject(entry, p, &s.Out)
}

// ReadGlobalWord reads one word of a global's host backing store (test
// hook).
func (s *Session) ReadGlobalWord(name string, off uint32) (uint32, error) {
	g := s.Prog.Types.Globals[name]
	if g == nil {
		return 0, fmt.Errorf("no global %q", name)
	}
	w, err := s.env.LoadWords(g, off, 1)
	if err != nil {
		return 0, err
	}
	return w[0], nil
}
