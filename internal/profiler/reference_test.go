package profiler

// The pre-PR-21 interpreter, kept for one PR as the reference the slot
// executor is checked against (equiv_test.go): the tree-walking loop over
// *ir.Instr with its per-instruction Observer, the name-keyed host
// environment, and the Profile/Session drivers built on them. Nothing
// outside _test.go files may use it, and the next PR that touches this
// package deletes this file together with the tests that compare against it.

import (
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// refObserverIface is the deleted profiler.Observer interface.
type refObserverIface interface {
	OnInstr(fn *ir.Func, in *ir.Instr)
}

type refInterp struct {
	Prog *ir.Program
	Env  Env
	Obs  refObserverIface
}

type refSession struct {
	Prog  *ir.Program
	Stats *Stats
	env   *refHostEnv
	it    *refInterp
	Out   []OutPacket
}

// Run is the tree-walking loop the slot executor replaced, verbatim.
func (it *refInterp) Run(fn *ir.Func, args []Value) (Value, error) {
	if len(args) != len(fn.Params) {
		return Value{}, fmt.Errorf("interp: %s called with %d args, want %d",
			fn.Name, len(args), len(fn.Params))
	}
	regs := make([]Value, fn.NumRegs)
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	steps := 0
	blk := fn.Entry
	var prev *ir.Block
	_ = prev
	for {
		var next *ir.Block
		for _, in := range blk.Instrs {
			steps++
			if steps > MaxSteps {
				return Value{}, fmt.Errorf("interp: %s exceeded %d steps (infinite loop?)", fn.Name, MaxSteps)
			}
			if it.Obs != nil {
				it.Obs.OnInstr(fn, in)
			}
			switch in.Op {
			case ir.OpConst:
				regs[in.Dst[0]] = Value{W: uint32(in.Imm)}
			case ir.OpMov:
				regs[in.Dst[0]] = regs[in.Args[0]]
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDivU, ir.OpRemU,
				ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShrU, ir.OpShrS,
				ir.OpEq, ir.OpNe, ir.OpLtU, ir.OpLeU, ir.OpLtS, ir.OpLeS:
				x, y := regs[in.Args[0]], regs[in.Args[1]]
				v, err := refALU(in, x, y)
				if err != nil {
					return Value{}, err
				}
				regs[in.Dst[0]] = v
			case ir.OpNot:
				regs[in.Dst[0]] = Value{W: ^regs[in.Args[0]].W}
			case ir.OpNeg:
				regs[in.Dst[0]] = Value{W: -regs[in.Args[0]].W}
			case ir.OpBr:
				next = in.Blocks[0]
			case ir.OpCondBr:
				if regs[in.Args[0]].W != 0 {
					next = in.Blocks[0]
				} else {
					next = in.Blocks[1]
				}
			case ir.OpRet:
				if len(in.Args) > 0 {
					return regs[in.Args[0]], nil
				}
				return Value{}, nil
			case ir.OpCall:
				callee := it.Prog.Func(in.Callee)
				if callee == nil {
					return Value{}, execErr(in, "unknown callee %q", in.Callee)
				}
				cargs := make([]Value, len(in.Args))
				for i, a := range in.Args {
					cargs[i] = regs[a]
				}
				rv, err := it.Run(callee, cargs)
				if err != nil {
					return Value{}, err
				}
				if len(in.Dst) > 0 {
					regs[in.Dst[0]] = rv
				}
			case ir.OpLoad:
				off, err := it.effAddr(in, regs)
				if err != nil {
					return Value{}, err
				}
				words, err := it.Env.LoadWords(in.Global, off, len(in.Dst))
				if err != nil {
					return Value{}, execErr(in, "%v", err)
				}
				for i, d := range in.Dst {
					regs[d] = Value{W: words[i]}
				}
			case ir.OpStore:
				off, err := it.effAddr(in, regs)
				if err != nil {
					return Value{}, err
				}
				words := make([]uint32, len(in.Args)-1)
				for i, a := range in.Args[1:] {
					words[i] = regs[a].W
				}
				if err := it.Env.StoreWords(in.Global, off, words); err != nil {
					return Value{}, execErr(in, "%v", err)
				}
			case ir.OpPktLoad:
				p := regs[in.Args[0]].P
				if p == nil {
					return Value{}, execErr(in, "packet load through nil handle")
				}
				head := regs[in.Args[0]].Head
				if in.Field != nil {
					v, err := p.ReadField(head, in.Field)
					if err != nil {
						return Value{}, execErr(in, "%v", err)
					}
					regs[in.Dst[0]] = Value{W: v}
				} else {
					raw, err := p.ReadRaw(head, int(in.Off), in.Width)
					if err != nil {
						return Value{}, execErr(in, "%v", err)
					}
					for i, d := range in.Dst {
						regs[d] = Value{W: beWord(raw[i*4:])}
					}
				}
			case ir.OpPktStore:
				p := regs[in.Args[0]].P
				if p == nil {
					return Value{}, execErr(in, "packet store through nil handle")
				}
				head := regs[in.Args[0]].Head
				if in.Field != nil {
					if err := p.WriteField(head, in.Field, regs[in.Args[1]].W); err != nil {
						return Value{}, execErr(in, "%v", err)
					}
				} else {
					raw, err := p.ReadRaw(head, int(in.Off), in.Width)
					if err != nil {
						return Value{}, execErr(in, "%v", err)
					}
					for i, a := range in.Args[1:] {
						putBEWord(raw[i*4:], regs[a].W)
					}
				}
			case ir.OpMetaLoad:
				p := regs[in.Args[0]].P
				if in.Field != nil {
					regs[in.Dst[0]] = Value{W: p.MetaField(in.Field)}
				} else {
					if int(in.Off)+in.Width > len(p.Meta) {
						return Value{}, execErr(in, "raw metadata read out of range")
					}
					for i, d := range in.Dst {
						regs[d] = Value{W: beWord(p.Meta[int(in.Off)+i*4:])}
					}
				}
			case ir.OpMetaStore:
				p := regs[in.Args[0]].P
				if in.Field != nil {
					p.SetMetaField(in.Field, regs[in.Args[1]].W)
				} else {
					if int(in.Off)+in.Width > len(p.Meta) {
						return Value{}, execErr(in, "raw metadata write out of range")
					}
					for i, a := range in.Args[1:] {
						putBEWord(p.Meta[int(in.Off)+i*4:], regs[a].W)
					}
				}
			case ir.OpDecap:
				h := regs[in.Args[0]]
				src := it.Prog.Types.ProtoByID[in.Imm]
				nh, err := h.P.Decap(h.Head, src, it.Prog.Types.Consts)
				if err != nil {
					return Value{}, execErr(in, "%v", err)
				}
				regs[in.Dst[0]] = Value{P: h.P, Head: nh}
			case ir.OpEncap:
				h := regs[in.Args[0]]
				nh, err := h.P.Encap(h.Head, in.Proto)
				if err != nil {
					return Value{}, execErr(in, "%v", err)
				}
				regs[in.Dst[0]] = Value{P: h.P, Head: nh}
			case ir.OpPktCopy:
				h := regs[in.Args[0]]
				regs[in.Dst[0]] = Value{P: h.P.Clone(), Head: h.Head}
			case ir.OpPktCreate:
				regs[in.Dst[0]] = Value{P: it.Env.NewPacket(in.Proto)}
			case ir.OpPktDrop:
				it.Env.Drop(regs[in.Args[0]].P)
			case ir.OpAddTail:
				regs[in.Args[0]].P.AddTail(int(regs[in.Args[1]].W))
			case ir.OpRemoveTail:
				if err := regs[in.Args[0]].P.RemoveTail(int(regs[in.Args[1]].W)); err != nil {
					return Value{}, execErr(in, "%v", err)
				}
			case ir.OpPktLength:
				regs[in.Dst[0]] = Value{W: uint32(regs[in.Args[0]].P.Len())}
			case ir.OpChanPut:
				h := regs[in.Args[0]]
				if err := it.Env.ChannelPut(in.Chan, h.P, h.Head); err != nil {
					return Value{}, execErr(in, "%v", err)
				}
			case ir.OpLockAcquire:
				it.Env.Lock(int(in.Imm))
			case ir.OpLockRelease:
				it.Env.Unlock(int(in.Imm))
			case ir.OpCacheLookup:
				// The host interpreter models the software cache as always
				// missing: the load path then reads the home location,
				// which is semantically the coherent behaviour.
				regs[in.Dst[0]] = Value{W: 0}
				for _, d := range in.Dst[1:] {
					regs[d] = Value{}
				}
			case ir.OpCacheFill, ir.OpCacheFlush:
				// No-ops on the host.
			default:
				return Value{}, execErr(in, "interp: unhandled op %s", in.Op)
			}
		}
		if next == nil {
			return Value{}, fmt.Errorf("interp: %s block b%d fell through without terminator", fn.Name, blk.ID)
		}
		prev, blk = blk, next
	}
}

func (it *refInterp) effAddr(in *ir.Instr, regs []Value) (uint32, error) {
	off := uint32(in.Off)
	if len(in.Args) > 0 && in.Args[0] != ir.NoReg {
		off += regs[in.Args[0]].W
	}
	size := uint32(in.Global.Type.SizeBytes())
	if off+4 > size || off%4 != 0 {
		// Index out of range: report (Baker has no bounds checking on the
		// ME, but the profiler flags it as a program bug).
		if off+4 > size {
			return 0, execErr(in, "global %s access at byte %d out of range (size %d)",
				in.Global.Name, off, size)
		}
	}
	return off, nil
}

func refALU(in *ir.Instr, x, y Value) (Value, error) {
	a, b := x.W, y.W
	switch in.Op {
	case ir.OpAdd:
		return Value{W: a + b}, nil
	case ir.OpSub:
		return Value{W: a - b}, nil
	case ir.OpMul:
		return Value{W: a * b}, nil
	case ir.OpDivU:
		if b == 0 {
			return Value{}, execErr(in, "division by zero")
		}
		return Value{W: a / b}, nil
	case ir.OpRemU:
		if b == 0 {
			return Value{}, execErr(in, "modulo by zero")
		}
		return Value{W: a % b}, nil
	case ir.OpAnd:
		return Value{W: a & b}, nil
	case ir.OpOr:
		return Value{W: a | b}, nil
	case ir.OpXor:
		return Value{W: a ^ b}, nil
	case ir.OpShl:
		return Value{W: a << (b & 31)}, nil
	case ir.OpShrU:
		return Value{W: a >> (b & 31)}, nil
	case ir.OpShrS:
		return Value{W: uint32(int32(a) >> (b & 31))}, nil
	case ir.OpEq:
		// Handle identity comparison when both sides are handles.
		if x.P != nil || y.P != nil {
			return boolVal(x.P == y.P), nil
		}
		return boolVal(a == b), nil
	case ir.OpNe:
		if x.P != nil || y.P != nil {
			return boolVal(x.P != y.P), nil
		}
		return boolVal(a != b), nil
	case ir.OpLtU:
		return boolVal(a < b), nil
	case ir.OpLeU:
		return boolVal(a <= b), nil
	case ir.OpLtS:
		return boolVal(int32(a) < int32(b)), nil
	case ir.OpLeS:
		return boolVal(int32(a) <= int32(b)), nil
	}
	return Value{}, execErr(in, "interp: not an ALU op %s", in.Op)
}

// refHostEnv is the profiler's host-memory execution environment.
type refHostEnv struct {
	tp      *types.Program
	mem     map[string][]uint32 // global backing store, word granular
	queue   []refQueued         // pending channel messages (FIFO)
	stats   *Stats
	locks   map[int]bool
	inCrit  int
	current string // function whose accesses are being attributed
}

type refQueued struct {
	ch   *types.Channel
	p    *packet.Packet
	head int
}

func newRefHostEnv(tp *types.Program, stats *Stats) *refHostEnv {
	env := &refHostEnv{tp: tp, mem: map[string][]uint32{}, stats: stats, locks: map[int]bool{}}
	for name, g := range tp.Globals {
		env.mem[name] = make([]uint32, (g.Type.SizeBytes()+3)/4)
	}
	return env
}

func (e *refHostEnv) gstats(g *types.Global) *GlobalStats {
	gs := e.stats.Globals[g.Name]
	if gs == nil {
		gs = &GlobalStats{LineReads: map[uint32]uint64{}}
		e.stats.Globals[g.Name] = gs
	}
	return gs
}

func (e *refHostEnv) LoadWords(g *types.Global, off uint32, n int) ([]uint32, error) {
	buf := e.mem[g.Name]
	if int(off/4)+n > len(buf) {
		return nil, fmt.Errorf("global %s read out of range (off %d, %d words)", g.Name, off, n)
	}
	gs := e.gstats(g)
	gs.Reads++
	gs.LineReads[off/CacheLineBytes]++
	if e.inCrit > 0 {
		gs.InCritical = true
	}
	return buf[off/4 : off/4+uint32(n)], nil
}

func (e *refHostEnv) StoreWords(g *types.Global, off uint32, words []uint32) error {
	buf := e.mem[g.Name]
	if int(off/4)+len(words) > len(buf) {
		return fmt.Errorf("global %s write out of range (off %d, %d words)", g.Name, off, len(words))
	}
	gs := e.gstats(g)
	gs.Writes++
	if e.inCrit > 0 {
		gs.InCritical = true
	}
	copy(buf[off/4:], words)
	return nil
}

func (e *refHostEnv) ChannelPut(ch *types.Channel, p *packet.Packet, head int) error {
	e.stats.Chans[ch.Name]++
	e.queue = append(e.queue, refQueued{ch: ch, p: p, head: head})
	return nil
}

func (e *refHostEnv) Drop(p *packet.Packet) { e.stats.Dropped++ }

func (e *refHostEnv) Lock(id int)   { e.inCrit++ }
func (e *refHostEnv) Unlock(id int) { e.inCrit-- }

func (e *refHostEnv) NewPacket(proto *types.Protocol) *packet.Packet {
	size := proto.FixedSize
	if size < 0 {
		size = proto.HeaderMin
	}
	return packet.New(make([]byte, size), e.tp.Metadata.Bytes)
}

// refObserver attributes instruction counts to the running function.
type refObserver struct{ stats *Stats }

func (o *refObserver) OnInstr(fn *ir.Func, in *ir.Instr) {
	fs := o.stats.Funcs[fn.Name]
	if fs == nil {
		fs = &FuncStats{}
		o.stats.Funcs[fn.Name] = fs
	}
	fs.Instrs++
	switch in.Op {
	case ir.OpLoad, ir.OpStore, ir.OpPktLoad, ir.OpPktStore,
		ir.OpMetaLoad, ir.OpMetaStore:
		fs.MemAccesses++
	}
}

// refProfileWithControls is the pre-PR-21 ProfileWithControls with control-function table setup
// between init and the packet trace.
func refProfileWithControls(prog *ir.Program, tr []*packet.Packet, controls []Control) (*Stats, error) {
	stats := &Stats{
		Funcs:   map[string]*FuncStats{},
		Chans:   map[string]uint64{},
		Globals: map[string]*GlobalStats{},
	}
	env := newRefHostEnv(prog.Types, stats)
	it := &refInterp{Prog: prog, Env: env, Obs: &refObserver{stats: stats}}

	// Run init functions first (they run on the XScale at load time).
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		if fn.Kind == ir.FuncInit && len(fn.Params) == 0 {
			if _, err := it.Run(fn, nil); err != nil {
				return nil, fmt.Errorf("profile: init %s: %w", name, err)
			}
		}
	}

	for _, c := range controls {
		vals := make([]Value, len(c.Args))
		for i, a := range c.Args {
			vals[i] = Value{W: a}
		}
		fn := prog.Func(c.Name)
		if fn == nil {
			return nil, fmt.Errorf("profile: no control function %q", c.Name)
		}
		if _, err := it.Run(fn, vals); err != nil {
			return nil, fmt.Errorf("profile: control %s: %w", c.Name, err)
		}
	}
	// Setup traffic (init + table population) must not pollute the
	// steady-state statistics: SWC's Equation 2 needs the *runtime* store
	// rate, and aggregation wants data-path execution weights.
	stats.Funcs = map[string]*FuncStats{}
	stats.Chans = map[string]uint64{}
	stats.Globals = map[string]*GlobalStats{}

	entry := prog.Types.Entry
	if entry == nil {
		return nil, fmt.Errorf("profile: program has no rx entry PPF")
	}
	entryFn := prog.Func(entry.Name)
	rxPort := prog.Types.Metadata.Field("rx_port")

	for _, p := range tr {
		stats.Packets++
		if rxPort != nil {
			p.SetMetaField(rxPort, p.Port)
		}
		if err := refRunPPF(it, stats, entryFn, p, 0); err != nil {
			return nil, err
		}
		// Drain channel messages.
		for len(env.queue) > 0 {
			msg := env.queue[0]
			env.queue = env.queue[1:]
			if msg.ch.Consumer == "tx" {
				stats.Forwarded++
				continue
			}
			consumer := prog.Func(msg.ch.Consumer)
			if consumer == nil {
				return nil, fmt.Errorf("profile: channel %s consumer %q missing",
					msg.ch.Name, msg.ch.Consumer)
			}
			if err := refRunPPF(it, stats, consumer, msg.p, msg.head); err != nil {
				return nil, err
			}
		}
	}
	return stats, nil
}

func refRunPPF(it *refInterp, stats *Stats, fn *ir.Func, p *packet.Packet, head int) error {
	fs := stats.Funcs[fn.Name]
	if fs == nil {
		fs = &FuncStats{}
		stats.Funcs[fn.Name] = fs
	}
	fs.Invocations++
	_, err := it.Run(fn, []Value{{P: p, Head: head}})
	if err != nil {
		return fmt.Errorf("profile: %s: %w", fn.Name, err)
	}
	return nil
}

// newRefSession builds a functional execution session, running init
// functions.
func newRefSession(prog *ir.Program) (*refSession, error) {
	stats := &Stats{
		Funcs:   map[string]*FuncStats{},
		Chans:   map[string]uint64{},
		Globals: map[string]*GlobalStats{},
	}
	env := newRefHostEnv(prog.Types, stats)
	s := &refSession{Prog: prog, Stats: stats, env: env}
	s.it = &refInterp{Prog: prog, Env: env}
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		if fn.Kind == ir.FuncInit && len(fn.Params) == 0 {
			if _, err := s.it.Run(fn, nil); err != nil {
				return nil, fmt.Errorf("init %s: %w", name, err)
			}
		}
	}
	return s, nil
}

// Inject runs one packet through the application, collecting transmitted
// packets into s.Out.
func (s *refSession) Inject(p *packet.Packet) error {
	entry := s.Prog.Types.Entry
	if entry == nil {
		return fmt.Errorf("program has no rx entry")
	}
	if rx := s.Prog.Types.Metadata.Field("rx_port"); rx != nil {
		p.SetMetaField(rx, p.Port)
	}
	s.Stats.Packets++
	if err := refRunPPF(s.it, s.Stats, s.Prog.Func(entry.Name), p, 0); err != nil {
		return err
	}
	for len(s.env.queue) > 0 {
		msg := s.env.queue[0]
		s.env.queue = s.env.queue[1:]
		if msg.ch.Consumer == "tx" {
			s.Stats.Forwarded++
			s.Out = append(s.Out, OutPacket{Chan: msg.ch, P: msg.p, Head: msg.head})
			continue
		}
		if err := refRunPPF(s.it, s.Stats, s.Prog.Func(msg.ch.Consumer), msg.p, msg.head); err != nil {
			return err
		}
	}
	return nil
}

// RefProfileWithControls exports the reference profiler to the external
// test package, which may import apps, driver and bakergen (they import
// this package, so the in-package tests cannot).
var RefProfileWithControls = refProfileWithControls

// TestHost drives one executor — the slot executor or the reference loop —
// over a host environment, for the equivalence tests.
type TestHost struct {
	// Control invokes a control function.
	Control func(name string, args ...uint32) error
	// Inject is Session.Inject; Out returns the packets it has sent to tx.
	Inject func(p *packet.Packet) error
	Out    func() []OutPacket
	// Run activates fn on a packet handle, as rts.xscaleStep does, and
	// returns the channel messages it queued.
	Run func(fn *ir.Func, p *packet.Packet, head int) ([]OutPacket, error)
	// Globals snapshots every global's backing words by name.
	Globals func() map[string][]uint32
}

// NewTestHost builds a host over prog with init functions run.
func NewTestHost(prog *ir.Program, reference bool) (*TestHost, error) {
	if reference {
		s, err := newRefSession(prog)
		if err != nil {
			return nil, err
		}
		return &TestHost{
			Control: func(name string, args ...uint32) error {
				fn := prog.Func(name)
				if fn == nil {
					return fmt.Errorf("no control function %q", name)
				}
				vals := make([]Value, len(args))
				for i, a := range args {
					vals[i] = Value{W: a}
				}
				_, err := s.it.Run(fn, vals)
				return err
			},
			Inject: s.Inject,
			Out:    func() []OutPacket { return s.Out },
			Run: func(fn *ir.Func, p *packet.Packet, head int) ([]OutPacket, error) {
				_, err := s.it.Run(fn, []Value{{P: p, Head: head}})
				var msgs []OutPacket
				for _, m := range s.env.queue {
					msgs = append(msgs, OutPacket{Chan: m.ch, P: m.p, Head: m.head})
				}
				s.env.queue = nil
				return msgs, err
			},
			Globals: func() map[string][]uint32 {
				out := map[string][]uint32{}
				for name, w := range s.env.mem {
					out[name] = append([]uint32(nil), w...)
				}
				return out
			},
		}, nil
	}
	s, err := NewSession(prog)
	if err != nil {
		return nil, err
	}
	return &TestHost{
		Control: s.Control,
		Inject:  s.Inject,
		Out:     func() []OutPacket { return s.Out },
		Run: func(fn *ir.Func, p *packet.Packet, head int) ([]OutPacket, error) {
			_, err := s.env.it.Run(fn, []Value{{P: p, Head: head}})
			msgs := append([]OutPacket(nil), s.env.queue[s.env.qhead:]...)
			s.env.queue, s.env.qhead = s.env.queue[:0], 0
			return msgs, err
		},
		Globals: func() map[string][]uint32 {
			out := map[string][]uint32{}
			for _, hg := range s.env.globals {
				out[hg.g.Name] = append([]uint32(nil), hg.words...)
			}
			return out
		},
	}, nil
}
