// Package profiler implements the Functional profiler of the paper's
// Figure 5: an IR executor that simulates the network application over a
// user-supplied packet trace, collecting PPF execution-time estimates,
// communication-channel utilizations and global data-structure access
// frequencies. The same executor doubles as the XScale execution path at
// runtime (infrequent aggregates run interpreted, as the paper's XScale
// binaries run compiled-by-gcc C) and as the fuzz oracle's reference
// semantics.
package profiler

import (
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// Value is a register value: a 32-bit word or a packet handle. A handle
// is the pair (packet, header offset): the head_ptr belongs to the handle,
// not the packet (Figure 3 of the paper).
type Value struct {
	W    uint32
	P    *packet.Packet
	Head int
}

// Env abstracts the world the executor runs against: global data
// storage, channel output and locking. The profiler supplies a host-memory
// implementation; the runtime supplies one backed by simulated IXP memory.
type Env interface {
	// LoadWords reads n 32-bit words from global g at byte offset off. The
	// result is only read before the next Env call.
	LoadWords(g *types.Global, off uint32, n int) ([]uint32, error)
	// StoreWords writes words to global g at byte offset off; words is
	// not retained.
	StoreWords(g *types.Global, off uint32, words []uint32) error
	// ChannelPut places p, whose current header is at head, on channel ch.
	ChannelPut(ch *types.Channel, p *packet.Packet, head int) error
	// Drop releases a packet.
	Drop(p *packet.Packet)
	// Lock and Unlock bracket critical sections.
	Lock(id int)
	Unlock(id int)
	// NewPacket allocates a fresh packet for packet_create.
	NewPacket(proto *types.Protocol) *packet.Packet
}

// MaxSteps bounds one function activation to catch runaway loops in user
// programs (Baker has loops; the budget is generous). It is charged a
// whole block at a time, on entry.
const MaxSteps = 10_000_000

// Interp executes IR functions against an Env. Each function is decoded
// into slots (decode.go) on its first activation and the decoded form
// lives on the Interp, so the IR must not change while the Interp is in
// use. Registers live on one stack that activations carve windows from.
// An Interp is not safe for concurrent use and Env methods must not call
// back into Run.
type Interp struct {
	Prog *ir.Program
	Env  Env

	code  map[*ir.Func]*code
	codes []*code  // the shells of code, in the order codeOf made them
	stack []Value  // register windows of the live activations, callee above caller
	words []uint32 // OpStore staging
	// rec, set only on an Incremental's work env, counts what each
	// activation of the packet being recorded executed.
	rec *recorder
}

// execErr is a user-level runtime error positioned at in.
func execErr(in *ir.Instr, format string, args ...any) error {
	return fmt.Errorf("%s: %s", in.Pos, fmt.Sprintf(format, args...))
}

// Run executes fn with the given arguments and returns its result value
// (zero Value for void).
func (it *Interp) Run(fn *ir.Func, args []Value) (Value, error) {
	return it.run(it.codeOf(fn), args)
}

func (it *Interp) run(c *code, args []Value) (Value, error) {
	if len(args) != len(c.fn.Params) {
		return Value{}, fmt.Errorf("interp: %s called with %d args, want %d",
			c.fn.Name, len(args), len(c.fn.Params))
	}
	if err := it.decode(c); err != nil {
		return Value{}, err
	}
	win := it.window(c, 0)
	for i, p := range c.fn.Params {
		win[p] = args[i]
	}
	return it.exec(c, 0)
}

// window returns c's zeroed register window at stack offset base, growing
// the stack if needed; windows handed out earlier must then be re-sliced.
func (it *Interp) window(c *code, base int) []Value {
	top := base + c.fn.NumRegs
	if top > len(it.stack) {
		it.stack = append(it.stack[:base], make([]Value, max(top, 2*len(it.stack))-base)...)
	}
	win := it.stack[base:top]
	clear(win)
	return win
}

// exec runs decoded function c whose window, parameters already in place,
// starts at stack offset base.
func (it *Interp) exec(c *code, base int) (Value, error) {
	top := base + c.fn.NumRegs
	regs := it.stack[base:top]
	var cost uint64 // of the blocks entered so far
	bi := c.entry
	for {
		b := &c.blocks[bi]
		if cost += b.cost; uint32(cost) > MaxSteps {
			return Value{}, fmt.Errorf("interp: %s exceeded %d steps (infinite loop?)", c.fn.Name, MaxSteps)
		}
		pc := b.start
	body:
		for {
			s := &c.slots[pc]
			pc++
			switch s.op {
			case ir.OpConst:
				regs[s.dst] = Value{W: s.imm}
			case ir.OpMov:
				regs[s.dst] = regs[s.a]
			case ir.OpAdd:
				regs[s.dst] = Value{W: regs[s.a].W + regs[s.b].W}
			case ir.OpSub:
				regs[s.dst] = Value{W: regs[s.a].W - regs[s.b].W}
			case ir.OpMul:
				regs[s.dst] = Value{W: regs[s.a].W * regs[s.b].W}
			case ir.OpDivU:
				if regs[s.b].W == 0 {
					return Value{}, execErr(s.in, "division by zero")
				}
				regs[s.dst] = Value{W: regs[s.a].W / regs[s.b].W}
			case ir.OpRemU:
				if regs[s.b].W == 0 {
					return Value{}, execErr(s.in, "modulo by zero")
				}
				regs[s.dst] = Value{W: regs[s.a].W % regs[s.b].W}
			case ir.OpAnd:
				regs[s.dst] = Value{W: regs[s.a].W & regs[s.b].W}
			case ir.OpOr:
				regs[s.dst] = Value{W: regs[s.a].W | regs[s.b].W}
			case ir.OpXor:
				regs[s.dst] = Value{W: regs[s.a].W ^ regs[s.b].W}
			case ir.OpShl:
				regs[s.dst] = Value{W: regs[s.a].W << (regs[s.b].W & 31)}
			case ir.OpShrU:
				regs[s.dst] = Value{W: regs[s.a].W >> (regs[s.b].W & 31)}
			case ir.OpShrS:
				regs[s.dst] = Value{W: uint32(int32(regs[s.a].W) >> (regs[s.b].W & 31))}
			case ir.OpNot:
				regs[s.dst] = Value{W: ^regs[s.a].W}
			case ir.OpNeg:
				regs[s.dst] = Value{W: -regs[s.a].W}
			case ir.OpEq, ir.OpNe:
				// Handles compare by identity.
				x, y := regs[s.a], regs[s.b]
				eq := x.W == y.W
				if x.P != nil || y.P != nil {
					eq = x.P == y.P
				}
				regs[s.dst] = boolVal(eq == (s.op == ir.OpEq))
			case ir.OpLtU:
				regs[s.dst] = boolVal(regs[s.a].W < regs[s.b].W)
			case ir.OpLeU:
				regs[s.dst] = boolVal(regs[s.a].W <= regs[s.b].W)
			case ir.OpLtS:
				regs[s.dst] = boolVal(int32(regs[s.a].W) < int32(regs[s.b].W))
			case ir.OpLeS:
				regs[s.dst] = boolVal(int32(regs[s.a].W) <= int32(regs[s.b].W))
			case ir.OpBr:
				bi = s.imm
				break body
			case ir.OpCondBr:
				bi = s.imm
				if regs[s.a].W == 0 {
					bi = s.alt
				}
				break body
			case ir.OpRet:
				c.instrs += cost % memUnit
				c.mem += cost / memUnit
				if it.rec != nil {
					it.rec.ran(c, cost)
				}
				if s.a < 0 {
					return Value{}, nil
				}
				return regs[s.a], nil
			case ir.OpCall:
				cc := c.calls[s.imm]
				if err := it.decode(cc); err != nil {
					return Value{}, err
				}
				win := it.window(cc, top)
				regs = it.stack[base:top]
				for i, a := range c.list(s) {
					win[cc.fn.Params[i]] = regs[a]
				}
				rv, err := it.exec(cc, top)
				if err != nil {
					return Value{}, err
				}
				regs = it.stack[base:top] // a deeper call may have grown the stack
				if s.dst >= 0 {
					regs[s.dst] = rv
				}
			case ir.OpLoad:
				off, err := effAddr(s, regs)
				if err != nil {
					return Value{}, err
				}
				words, err := it.Env.LoadWords(s.in.Global, off, int(s.n))
				if err != nil {
					return Value{}, execErr(s.in, "%v", err)
				}
				if s.n == 1 {
					regs[s.dst] = Value{W: words[0]}
				} else {
					for i, d := range c.list(s) {
						regs[d] = Value{W: words[i]}
					}
				}
			case ir.OpStore:
				off, err := effAddr(s, regs)
				if err != nil {
					return Value{}, err
				}
				words := it.words[:0]
				if s.n == 1 {
					words = append(words, regs[s.b].W)
				} else {
					for _, a := range c.list(s) {
						words = append(words, regs[a].W)
					}
				}
				it.words = words
				if err := it.Env.StoreWords(s.in.Global, off, words); err != nil {
					return Value{}, execErr(s.in, "%v", err)
				}
			case ir.OpPktCreate:
				regs[s.dst] = Value{P: it.Env.NewPacket(s.in.Proto)}
			case ir.OpPktDrop:
				it.Env.Drop(regs[s.a].P)
			case ir.OpLockAcquire:
				it.Env.Lock(int(s.imm))
			case ir.OpLockRelease:
				it.Env.Unlock(int(s.imm))
			case ir.OpCacheLookup:
				// The host models the software cache as always missing: the
				// load path then reads the home location, which is
				// semantically the coherent behaviour.
				for _, d := range c.list(s) {
					regs[d] = Value{}
				}
			case ir.OpCacheFill, ir.OpCacheFlush:
				// No-ops on the host.
			case ir.OpInvalid:
				return Value{}, fmt.Errorf("interp: %s block b%d fell through without terminator", c.fn.Name, s.imm)
			default:
				// What remains works on the packet behind the handle in a.
				h := regs[s.a]
				p := h.P
				if p == nil {
					return Value{}, execErr(s.in, "%s through nil handle", s.op)
				}
				var err error
				switch s.op {
				case ir.OpPktLoad:
					if f := s.in.Field; f != nil {
						var v uint32
						v, err = p.ReadField(h.Head, f)
						regs[s.dst] = Value{W: v}
					} else if raw, rerr := p.ReadRaw(h.Head, int(int32(s.imm)), int(s.alt)); rerr != nil {
						err = rerr
					} else {
						for i, d := range c.list(s) {
							regs[d] = Value{W: beWord(raw[i*4:])}
						}
					}
				case ir.OpPktStore:
					if f := s.in.Field; f != nil {
						err = p.WriteField(h.Head, f, regs[s.b].W)
					} else if raw, rerr := p.ReadRaw(h.Head, int(int32(s.imm)), int(s.alt)); rerr != nil {
						err = rerr
					} else {
						for i, a := range c.list(s) {
							putBEWord(raw[i*4:], regs[a].W)
						}
					}
				case ir.OpMetaLoad:
					if f := s.in.Field; f != nil {
						regs[s.dst] = Value{W: p.MetaField(f)}
					} else if int(s.imm+s.alt) > len(p.Meta) {
						err = fmt.Errorf("raw metadata read out of range")
					} else {
						for i, d := range c.list(s) {
							regs[d] = Value{W: beWord(p.Meta[int(s.imm)+i*4:])}
						}
					}
				case ir.OpMetaStore:
					if f := s.in.Field; f != nil {
						p.SetMetaField(f, regs[s.b].W)
					} else if int(s.imm+s.alt) > len(p.Meta) {
						err = fmt.Errorf("raw metadata write out of range")
					} else {
						for i, a := range c.list(s) {
							putBEWord(p.Meta[int(s.imm)+i*4:], regs[a].W)
						}
					}
				case ir.OpDecap:
					h.Head, err = p.Decap(h.Head, it.Prog.Types.ProtoByID[s.imm], it.Prog.Types.Consts)
					regs[s.dst] = Value{P: p, Head: h.Head}
				case ir.OpEncap:
					h.Head, err = p.Encap(h.Head, s.in.Proto)
					regs[s.dst] = Value{P: p, Head: h.Head}
				case ir.OpPktCopy:
					regs[s.dst] = Value{P: p.Clone(), Head: h.Head}
				case ir.OpAddTail:
					p.AddTail(int(regs[s.b].W))
				case ir.OpRemoveTail:
					err = p.RemoveTail(int(regs[s.b].W))
				case ir.OpPktLength:
					regs[s.dst] = Value{W: uint32(p.Len())}
				case ir.OpChanPut:
					err = it.Env.ChannelPut(s.in.Chan, p, h.Head)
				}
				if err != nil {
					return Value{}, execErr(s.in, "%v", err)
				}
			}
		}
	}
}

// effAddr is a global access's byte offset, which must leave room for one
// word (Baker has no bounds checking on the ME, but the profiler flags an
// out-of-range index as a program bug).
func effAddr(s *slot, regs []Value) (uint32, error) {
	off := s.imm
	if s.a >= 0 {
		off += regs[s.a].W
	}
	if off+4 > s.alt {
		return 0, execErr(s.in, "global %s access at byte %d out of range (size %d)",
			s.in.Global.Name, off, s.alt)
	}
	return off, nil
}

func boolVal(b bool) Value {
	if b {
		return Value{W: 1}
	}
	return Value{}
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
