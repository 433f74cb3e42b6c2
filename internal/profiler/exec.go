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
	"encoding/binary"
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// Value is a register value at Run's boundary: a 32-bit word or a packet
// handle. A handle is the pair (packet, header offset): the head_ptr
// belongs to the handle, not the packet (Figure 3 of the paper).
type Value struct {
	W    uint32
	P    *packet.Packet
	Head int
}

// handle is a handle-class register.
type handle struct {
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
// use. Registers live in two banks by class, a word stack and a handle
// stack, that activations carve windows from. An Interp is not safe for
// concurrent use and Env methods must not call back into Run.
type Interp struct {
	Prog *ir.Program
	Env  Env

	code  map[*ir.Func]*code
	codes []*code  // the shells of code, in the order codeOf made them
	ws    []uint32 // word windows of the live activations, callee above caller
	hs    []handle // handle windows, likewise
	stage []uint32 // OpStore staging
	// host, set when Env is the profiler's own hostEnv, lets decode
	// resolve its globals (opHostLoad, opHostStore).
	host *hostEnv
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
	it.window(c, 0, 0)
	for i, p := range c.params {
		if p >= 0 {
			it.ws[p] = args[i].W
		} else {
			it.hs[^p] = handle{args[i].P, args[i].Head}
		}
	}
	return it.exec(c, 0, 0)
}

// window clears c's register windows at word offset wb and handle offset
// hb, growing the stacks if needed; windows handed out earlier must then be
// re-sliced. Only the handle window holds pointers.
func (it *Interp) window(c *code, wb, hb int) {
	if top := wb + int(c.nw); top > len(it.ws) {
		it.ws = append(it.ws[:wb], make([]uint32, max(top, 2*len(it.ws))-wb)...)
	}
	if top := hb + int(c.nh); top > len(it.hs) {
		it.hs = append(it.hs[:hb], make([]handle, max(top, 2*len(it.hs))-hb)...)
	}
	clear(it.ws[wb : wb+int(c.nw)])
	clear(it.hs[hb : hb+int(c.nh)])
}

// returned adds an activation's cost to its function's counts.
func (it *Interp) returned(c *code, cost uint64) {
	c.instrs += cost % memUnit
	c.mem += cost / memUnit
	if it.rec != nil {
		it.rec.ran(c, cost)
	}
}

// exec runs decoded function c whose windows, parameters already in place,
// start at word offset wb and handle offset hb.
func (it *Interp) exec(c *code, wb, hb int) (Value, error) {
	wtop, htop := wb+int(c.nw), hb+int(c.nh)
	words, handles := it.ws[wb:wtop], it.hs[hb:htop]
	host := it.host
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
				words[s.dst] = s.imm
			case ir.OpMov:
				words[s.dst] = words[s.a]
			case ir.OpAdd:
				words[s.dst] = words[s.a] + words[s.b]
			case ir.OpSub:
				words[s.dst] = words[s.a] - words[s.b]
			case ir.OpMul:
				words[s.dst] = words[s.a] * words[s.b]
			case ir.OpDivU: // a zero divisor gives 0, as the ME's ALU does
				q := uint32(0)
				if d := words[s.b]; d != 0 {
					q = words[s.a] / d
				}
				words[s.dst] = q
			case ir.OpRemU:
				r := uint32(0)
				if d := words[s.b]; d != 0 {
					r = words[s.a] % d
				}
				words[s.dst] = r
			case ir.OpAnd:
				words[s.dst] = words[s.a] & words[s.b]
			case ir.OpOr:
				words[s.dst] = words[s.a] | words[s.b]
			case ir.OpXor:
				words[s.dst] = words[s.a] ^ words[s.b]
			case ir.OpShl:
				words[s.dst] = words[s.a] << (words[s.b] & 31)
			case ir.OpShrU:
				words[s.dst] = words[s.a] >> (words[s.b] & 31)
			case ir.OpShrS:
				words[s.dst] = uint32(int32(words[s.a]) >> (words[s.b] & 31))
			case ir.OpNot:
				words[s.dst] = ^words[s.a]
			case ir.OpNeg:
				words[s.dst] = -words[s.a]
			case ir.OpEq:
				words[s.dst] = b2u(words[s.a] == words[s.b])
			case ir.OpNe:
				words[s.dst] = b2u(words[s.a] != words[s.b])
			case ir.OpLtU:
				words[s.dst] = b2u(words[s.a] < words[s.b])
			case ir.OpLeU:
				words[s.dst] = b2u(words[s.a] <= words[s.b])
			case ir.OpLtS:
				words[s.dst] = b2u(int32(words[s.a]) < int32(words[s.b]))
			case ir.OpLeS:
				words[s.dst] = b2u(int32(words[s.a]) <= int32(words[s.b]))
			case ir.OpBr:
				bi = s.imm
				break body
			case ir.OpCondBr:
				bi = s.imm
				if words[s.a] == 0 {
					bi = s.alt
				}
				break body
			case ir.OpRet:
				it.returned(c, cost)
				if s.a < 0 {
					return Value{}, nil
				}
				return Value{W: words[s.a]}, nil
			case ir.OpCall:
				cc := c.calls[s.imm]
				if err := it.decode(cc); err != nil {
					return Value{}, err
				}
				it.window(cc, wtop, htop)
				words, handles = it.ws[wb:wtop], it.hs[hb:htop]
				cw, ch := it.ws[wtop:], it.hs[htop:]
				for i, a := range c.list(s) {
					if p := cc.params[i]; p >= 0 {
						cw[p] = words[a]
					} else {
						ch[^p] = handles[a]
					}
				}
				rv, err := it.exec(cc, wtop, htop)
				if err != nil {
					return Value{}, err
				}
				words, handles = it.ws[wb:wtop], it.hs[hb:htop] // a deeper call may have grown the stacks
				switch {
				case s.dst < 0:
				case s.alt == uint32(ir.ClassHandle):
					handles[s.dst] = handle{rv.P, rv.Head}
				default:
					words[s.dst] = rv.W
				}
			case ir.OpLoad:
				off, ok := effAddr(s, words)
				if !ok {
					return Value{}, rangeErr(s, off)
				}
				ws, err := it.Env.LoadWords(s.in.Global, off, int(s.n))
				if err != nil {
					return Value{}, execErr(s.in, "%v", err)
				}
				for i, d := range c.list(s) {
					words[d] = ws[i]
				}
			case ir.OpStore:
				off, ok := effAddr(s, words)
				if !ok {
					return Value{}, rangeErr(s, off)
				}
				ws := it.stage[:0]
				for _, a := range c.list(s) {
					ws = append(ws, words[a])
				}
				it.stage = ws
				if err := it.Env.StoreWords(s.in.Global, off, ws); err != nil {
					return Value{}, execErr(s.in, "%v", err)
				}
			case opScaledLoad:
				words[s.c] = s.k
				words[s.a] = words[s.b] * s.k
				fallthrough
			case opHostLoad:
				off, ok := effAddr(s, words)
				if !ok {
					return Value{}, rangeErr(s, off)
				}
				// hostEnv.LoadWords' bookkeeping, in its order; effAddr's
				// bound keeps the words inside the global.
				hg := &host.globals[s.g]
				if host.inCrit > 0 {
					host.critical(hg)
				}
				hg.stats.Reads++
				hg.lineReads[off/CacheLineBytes]++
				if host.rec != nil {
					host.rec.read(hg, off, int(s.n))
				}
				ws := hg.words[off/4:]
				if s.n == 1 {
					words[s.dst] = ws[0]
				} else {
					for i, d := range c.list(s) {
						words[d] = ws[i]
					}
				}
			case opHostStore:
				off, ok := effAddr(s, words)
				if !ok {
					return Value{}, rangeErr(s, off)
				}
				// hostEnv.StoreWords' bookkeeping, in its order.
				hg := &host.globals[s.g]
				if host.inCrit > 0 {
					host.critical(hg)
				}
				hg.stats.Writes++
				if host.rec != nil { // before the words change
					host.rec.write(hg, off, int(s.n))
				}
				ws := hg.words[off/4:]
				if s.n == 1 {
					ws[0] = words[s.b]
				} else {
					for i, a := range c.list(s) {
						ws[i] = words[a]
					}
				}
			case opHMov:
				handles[s.dst] = handles[s.a]
			case opHEq:
				words[s.dst] = b2u(handles[s.a].P == handles[s.b].P)
			case opHNe:
				words[s.dst] = b2u(handles[s.a].P != handles[s.b].P)
			case opHRet:
				it.returned(c, cost)
				h := handles[s.a]
				return Value{P: h.P, Head: h.Head}, nil
			case opMovK:
				words[s.c] = s.k
				words[s.dst] = s.k
			case opAddK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] + s.k
			case opSubK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] - s.k
			case opMulK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] * s.k
			case opAndK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] & s.k
			case opOrK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] | s.k
			case opXorK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] ^ s.k
			case opShlK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] << (s.k & 31)
			case opShrUK:
				words[s.c] = s.k
				words[s.dst] = words[s.a] >> (s.k & 31)
			case opShrSK:
				words[s.c] = s.k
				words[s.dst] = uint32(int32(words[s.a]) >> (s.k & 31))
			case opEqK:
				words[s.c] = s.k
				words[s.dst] = b2u(words[s.a] == s.k)
			case opNeK:
				words[s.c] = s.k
				words[s.dst] = b2u(words[s.a] != s.k)
			case opLtUK:
				words[s.c] = s.k
				words[s.dst] = b2u(words[s.a] < s.k)
			case opLeUK:
				words[s.c] = s.k
				words[s.dst] = b2u(words[s.a] <= s.k)
			case opLtSK:
				words[s.c] = s.k
				words[s.dst] = b2u(int32(words[s.a]) < int32(s.k))
			case opLeSK:
				words[s.c] = s.k
				words[s.dst] = b2u(int32(words[s.a]) <= int32(s.k))
			case opEqBr:
				bi = branch(words, s, words[s.a] == words[s.b])
				break body
			case opNeBr:
				bi = branch(words, s, words[s.a] != words[s.b])
				break body
			case opLtUBr:
				bi = branch(words, s, words[s.a] < words[s.b])
				break body
			case opLeUBr:
				bi = branch(words, s, words[s.a] <= words[s.b])
				break body
			case opLtSBr:
				bi = branch(words, s, int32(words[s.a]) < int32(words[s.b]))
				break body
			case opLeSBr:
				bi = branch(words, s, int32(words[s.a]) <= int32(words[s.b]))
				break body
			case opEqKBr:
				words[s.c] = s.k
				bi = branch(words, s, words[s.a] == s.k)
				break body
			case opNeKBr:
				words[s.c] = s.k
				bi = branch(words, s, words[s.a] != s.k)
				break body
			case opLtUKBr:
				words[s.c] = s.k
				bi = branch(words, s, words[s.a] < s.k)
				break body
			case opLeUKBr:
				words[s.c] = s.k
				bi = branch(words, s, words[s.a] <= s.k)
				break body
			case opLtSKBr:
				words[s.c] = s.k
				bi = branch(words, s, int32(words[s.a]) < int32(s.k))
				break body
			case opLeSKBr:
				words[s.c] = s.k
				bi = branch(words, s, int32(words[s.a]) <= int32(s.k))
				break body
			case ir.OpPktCreate:
				handles[s.dst] = handle{P: it.Env.NewPacket(s.in.Proto)}
			case ir.OpPktDrop:
				it.Env.Drop(handles[s.a].P)
			case ir.OpLockAcquire:
				it.Env.Lock(int(s.imm))
			case ir.OpLockRelease:
				it.Env.Unlock(int(s.imm))
			case ir.OpCacheLookup:
				// The host models the software cache as always missing: the
				// load path then reads the home location, which is
				// semantically the coherent behaviour.
				for _, d := range c.list(s) {
					words[d] = 0
				}
			case ir.OpCacheFill, ir.OpCacheFlush:
				// No-ops on the host.
			default:
				// What remains works on the packet behind the handle in a.
				h := handles[s.a]
				p := h.P
				if p == nil {
					return Value{}, execErr(s.in, "%s through nil handle", s.op)
				}
				var err error
				switch s.op {
				case ir.OpPktLoad:
					if f := s.in.Field; f != nil {
						words[s.dst], err = p.ReadField(h.Head, f)
					} else if raw, rerr := p.ReadRaw(h.Head, int(int32(s.imm)), int(s.alt)); rerr != nil {
						err = rerr
					} else {
						for i, d := range c.list(s) {
							words[d] = binary.BigEndian.Uint32(raw[i*4:])
						}
					}
				case ir.OpPktStore:
					if f := s.in.Field; f != nil {
						err = p.WriteField(h.Head, f, words[s.b])
					} else if raw, rerr := p.ReadRaw(h.Head, int(int32(s.imm)), int(s.alt)); rerr != nil {
						err = rerr
					} else {
						for i, a := range c.list(s) {
							binary.BigEndian.PutUint32(raw[i*4:], words[a])
						}
					}
				case ir.OpMetaLoad:
					if f := s.in.Field; f != nil {
						words[s.dst] = p.MetaField(f)
					} else if int(s.imm+s.alt) > len(p.Meta) {
						err = fmt.Errorf("raw metadata read out of range")
					} else {
						for i, d := range c.list(s) {
							words[d] = binary.BigEndian.Uint32(p.Meta[int(s.imm)+i*4:])
						}
					}
				case ir.OpMetaStore:
					if f := s.in.Field; f != nil {
						p.SetMetaField(f, words[s.b])
					} else if int(s.imm+s.alt) > len(p.Meta) {
						err = fmt.Errorf("raw metadata write out of range")
					} else {
						for i, a := range c.list(s) {
							binary.BigEndian.PutUint32(p.Meta[int(s.imm)+i*4:], words[a])
						}
					}
				case ir.OpDecap:
					h.Head, err = p.Decap(h.Head, it.Prog.Types.ProtoByID[s.imm])
					handles[s.dst] = h
				case ir.OpEncap:
					h.Head, err = p.Encap(h.Head, s.in.Proto)
					handles[s.dst] = h
				case ir.OpPktCopy:
					handles[s.dst] = handle{p.Clone(), h.Head}
				case ir.OpAddTail:
					p.AddTail(int(words[s.b]))
				case ir.OpRemoveTail:
					err = p.RemoveTail(int(words[s.b]))
				case ir.OpPktLength:
					words[s.dst] = uint32(p.Len())
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

// branch writes a fused comparison's result and returns the block it
// branches to.
func branch(words []uint32, s *slot, taken bool) uint32 {
	words[s.dst] = b2u(taken)
	if taken {
		return s.imm
	}
	return s.alt
}

// effAddr is a global access's byte offset and whether the whole access
// is inside the global. The offset wraps in 32 bits, as the ME's address
// arithmetic does, and the bound is checked in 64: Baker has no bounds
// checking on the ME, but the profiler flags an out-of-range index as a
// program bug (rangeErr).
func effAddr(s *slot, words []uint32) (uint32, bool) {
	off := s.imm
	if s.a >= 0 {
		off += words[s.a]
	}
	return off, uint64(off)+4*uint64(s.n) <= uint64(s.alt)
}

func rangeErr(s *slot, off uint32) error {
	return execErr(s.in, "global %s access at byte %d out of range (size %d)", s.in.Global.Name, off, s.alt)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
