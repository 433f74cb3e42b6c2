// Package cg is the Shangri-La code generator: it lowers merged aggregate
// IR into CGIR, the microengine-level representation executed by the IXP
// model, performing dual-bank register allocation, stack layout and the
// packet-access expansions whose cost the specialized optimizations (PAC,
// SOAR, PHR, SWC) were designed to shrink.
//
// CGIR is a register-transfer ISA shaped after the IXP2400 microengine:
// 32 general-purpose registers per thread split into two banks (an ALU
// instruction's two register sources must come from different banks),
// explicit memory instructions per level (Local Memory / Scratch / SRAM /
// DRAM) with multi-word ref_cnt bursts, a 16-entry CAM, scratch rings for
// communication channels, and cooperative context switching (a thread
// yields on every memory reference).
package cg

import (
	"fmt"
	"slices"

	"shangrila/internal/baker/types"
)

// PReg is a physical register. 0..15 = bank A, 16..31 = bank B.
type PReg int

// Register file shape and reserved registers.
const (
	NumRegs       = 32
	BankSize      = 16
	RegSP    PReg = 15 // bank A: stack pointer (Local Memory byte address)
	RegTmpA  PReg = 14 // bank A assembler temp (spill reloads)
	RegTmpB  PReg = 30 // bank B assembler temp
	NoPReg   PReg = -1
)

// Bank returns 0 for bank A, 1 for bank B.
func (r PReg) Bank() int {
	if int(r) < BankSize {
		return 0
	}
	return 1
}

func (r PReg) String() string {
	if r == NoPReg {
		return "_"
	}
	if r.Bank() == 0 {
		return fmt.Sprintf("a%d", int(r))
	}
	return fmt.Sprintf("b%d", int(r)-BankSize)
}

// ALUOp is the function of an ALU instruction.
type ALUOp int

// ALU operations (two sources unless noted).
const (
	AAdd ALUOp = iota
	ASub
	AMul
	AAnd
	AOr
	AXor
	AShl
	AShrU
	AShrS
	ANot // one source
	ANeg // one source
	AMov // one source
	ADivU
	ARemU
)

var aluNames = [...]string{"add", "sub", "mul", "and", "or", "xor", "shl",
	"shru", "shrs", "not", "neg", "mov", "divu", "remu"}

func (a ALUOp) String() string { return enumName(aluNames[:], int(a), "aluop") }

// CondOp is a branch condition comparing two sources.
type CondOp int

// Branch conditions.
const (
	CEq CondOp = iota
	CNe
	CLtU
	CLeU
	CLtS
	CLeS
)

var condNames = [...]string{"eq", "ne", "ltu", "leu", "lts", "les"}

func (c CondOp) String() string { return enumName(condNames[:], int(c), "cond") }

// MemLevel selects the memory hierarchy level of a memory instruction.
type MemLevel int

// Memory levels (§3.2).
const (
	MemLocal MemLevel = iota
	MemScratch
	MemSRAM
	MemDRAM
)

var levelNames = [...]string{"local", "scratch", "sram", "dram"}

func (l MemLevel) String() string { return enumName(levelNames[:], int(l), "level") }

// AccessClass classifies memory accesses for the Table 1 accounting.
type AccessClass int

// Access classes: the paper's Table 1 splits per-packet accesses into
// packet data (DRAM), packet bookkeeping (metadata + head_ptr in SRAM,
// ring descriptors in Scratch) and application data.
const (
	ClassNone AccessClass = iota
	ClassPacketData
	ClassPacketMeta
	ClassPacketRing
	ClassAppData
)

var classNames = [...]string{"-", "pkt-data", "pkt-meta", "pkt-ring", "app"}

func (c AccessClass) String() string { return enumName(classNames[:], int(c), "class") }

// Opcode enumerates CGIR instructions.
type Opcode int

// CGIR opcodes.
const (
	INop       Opcode = iota
	IALU              // Dst = ALUOp(SrcA, SrcB); one-source ops use SrcA only
	IALUImm           // Dst = ALUOp(SrcA, Imm)
	IImmed            // Dst = Imm (32-bit load)
	IBr               // unconditional branch to Target
	IBcc              // if Cond(SrcA, SrcB) branch to Target
	IBccImm           // if Cond(SrcA, Imm) branch to Target
	IMem              // memory reference; see fields
	ICAMLookup        // DstHit(Dst)=0/1, DstEntry(Dst2)=entry, key=SrcA
	ICAMWrite         // entry=SrcA, key=SrcB
	ICAMClear
	IRingGet // pops a descriptor pair: Dst = word0 (pktID, InvalidPktID when empty), Dst2 = word1
	IRingPut // pushes a descriptor pair (SrcA, SrcB); Dst = ok (0 when the ring was full)
	ICtxArb  // voluntary yield
	IHalt    // thread exits
)

var opcodeNames = [...]string{"nop", "alu", "alui", "immed", "br", "bcc",
	"bcci", "mem", "camlookup", "camwrite", "camclear", "ringget",
	"ringput", "ctxarb", "halt"}

func (o Opcode) String() string { return enumName(opcodeNames[:], int(o), "opcode") }

// enumName names v from names, or, outside the enum, as kind(v): every
// String of a CGIR enum is total, so a bad instruction prints.
func enumName(names []string, v int, kind string) string {
	if v >= 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", kind, v)
}

// Instr is one CGIR instruction. Operand usage depends on Op; unused
// register fields hold NoPReg.
type Instr struct {
	Op   Opcode
	ALU  ALUOp
	Cond CondOp

	Dst  PReg
	Dst2 PReg
	SrcA PReg
	SrcB PReg
	Imm  uint32

	// Memory reference fields.
	Level   MemLevel
	Store   bool
	Addr    PReg   // base address register (NoPReg: absolute Imm address)
	AddrOff uint32 // byte offset added to the base
	NWords  int    // burst length (ref_cnt)
	Data    []PReg // destination regs (load) or source regs (store)
	Atomic  bool   // scratch test-and-set (returns previous value in Data[0])
	Class   AccessClass

	Ring   int // ring id for IRingGet/IRingPut
	Target int // branch target (instruction index)

	// Comment aids disassembly in tests and debugging.
	Comment string
}

func (in *Instr) String() string {
	switch in.Op {
	case IALU:
		if in.ALU == AMov || in.ALU == ANot || in.ALU == ANeg {
			return fmt.Sprintf("%s %s, %s", in.ALU, in.Dst, in.SrcA)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.ALU, in.Dst, in.SrcA, in.SrcB)
	case IALUImm:
		return fmt.Sprintf("%s %s, %s, #%d", in.ALU, in.Dst, in.SrcA, int32(in.Imm))
	case IImmed:
		return fmt.Sprintf("immed %s, #%#x", in.Dst, in.Imm)
	case IBr:
		return fmt.Sprintf("br %d", in.Target)
	case IBcc:
		return fmt.Sprintf("b%s %s, %s, %d", in.Cond, in.SrcA, in.SrcB, in.Target)
	case IBccImm:
		return fmt.Sprintf("b%s %s, #%d, %d", in.Cond, in.SrcA, int32(in.Imm), in.Target)
	case IMem:
		dir := "read"
		if in.Store {
			dir = "write"
		}
		return fmt.Sprintf("%s_%s %v, [%s+%d] x%d (%s)", in.Level, dir, in.Data, in.Addr, in.AddrOff, in.NWords, in.Class)
	case IRingGet:
		return fmt.Sprintf("ringget r%d -> %s, %s", in.Ring, in.Dst, in.Dst2)
	case IRingPut:
		return fmt.Sprintf("ringput r%d <- %s, %s (ok %s)", in.Ring, in.SrcA, in.SrcB, in.Dst)
	case ICAMLookup:
		return fmt.Sprintf("camlookup %s(hit) %s(entry), %s", in.Dst, in.Dst2, in.SrcA)
	case ICAMWrite:
		return fmt.Sprintf("camwrite [%s] = %s", in.SrcA, in.SrcB)
	}
	return in.Op.String()
}

// Program is one compiled aggregate entry: straight CGIR with absolute
// branch targets.
type Program struct {
	Name string
	Code []*Instr
	// StackBytes is the per-thread stack frame the code assumes (spill
	// slots), already placed by stack layout.
	StackBytes int
	// SRAMSpillWords counts spill slots that overflowed Local Memory into
	// SRAM (each access is an SRAM reference; §5.4 shows these destroy
	// performance, so well-optimized code has zero).
	SRAMSpillWords int
}

// Layout fixes the simulated physical memory map for one compiled
// application. All addresses are byte addresses within their level.
type Layout struct {
	// Per-global base addresses, keyed by qualified name, within the
	// global's assigned level (types.Global.Space).
	GlobalAddr map[string]uint32
	// Sizes actually used per level by globals.
	SRAMGlobalBytes    uint32
	ScratchGlobalBytes uint32
	LocalGlobalBytes   uint32 // per-ME private words (SWC counters)

	// Packet pool: DRAM buffers and SRAM metadata records.
	NumBufs      int
	BufSize      uint32 // DRAM bytes per packet buffer
	BufHeadroom  uint32 // offset of the packet's first byte within a buffer
	DRAMBufBase  uint32
	MetaBase     uint32 // SRAM base of metadata records
	MetaRecBytes uint32 // per-packet metadata record size
	// Record layout: word0 = packet length, word1 = head_ptr, then the
	// application's bit-packed metadata fields.
	MetaAppOff uint32 // byte offset of app metadata within the record

	// Scratch rings: ring i occupies [RingBase(i), RingBase(i)+RingBytes).
	NumRings  int
	RingBase0 uint32
	RingBytes uint32 // per-ring control+storage footprint
	RingSlots int

	// Lock words (one scratch word per static critical section).
	LockBase uint32
	NumLocks int

	// Local Memory map (per ME, byte addresses into 2560-byte LM).
	SWCLineBase  uint32 // 16 lines x 32 bytes for the software cache
	LocalGlobal0 uint32 // compiler-generated per-ME globals
	StackBase    uint32 // per-thread stacks: thread t at StackBase + t*StackSize
	StackSize    uint32 // bytes per thread (48 words = 192 bytes, §5.4)
}

// InvalidPktID is returned by IRingGet when the ring is empty (buffer ids
// are small pool indices, so the sentinel is unambiguous).
const InvalidPktID = 0xffffffff

// Ring ids fixed by convention.
const (
	RingRx   = 0 // Rx engine -> first aggregate
	RingTx   = 1 // aggregates -> Tx engine
	RingFree = 2 // dropped packets -> buffer free list
	RingApp0 = 3 // first application channel ring
)

// MetaLenOff and MetaHeadOff are the record offsets of the packet length
// and head_ptr words.
const (
	MetaLenOff  = 0
	MetaHeadOff = 4
)

// BuildLayout assigns addresses for every source-level global, the
// compiler-generated globals in synthetic, every ring and lock, and the
// packet pool.
func BuildLayout(tp *types.Program, synthetic map[*types.Global]bool, numLocks, numAppRings, numBufs int) *Layout {
	l := &Layout{
		GlobalAddr:  map[string]uint32{},
		NumBufs:     numBufs,
		BufSize:     256,
		BufHeadroom: 64,
		NumLocks:    numLocks,
	}
	// Globals, deterministic order.
	var names []string
	for name, g := range tp.Globals {
		if !g.Synthetic || synthetic[g] {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	// Local Memory bytes [0, swcRegionBytes) hold the software cache's
	// 16 lines of 32 bytes; per-ME local globals (SWC counters, seen
	// words) are laid out after them — their addresses are absolute LM
	// byte offsets, so they must not alias the line region.
	const swcRegionBytes = 16 * 32
	var sram, scratch uint32
	local := uint32(swcRegionBytes)
	for _, name := range names {
		g := tp.Globals[name]
		size := uint32((g.Type.SizeBytes() + 3) &^ 3)
		switch g.Space {
		case types.SpaceScratch:
			l.GlobalAddr[name] = scratch
			scratch += size
		case types.SpaceLocal:
			l.GlobalAddr[name] = local
			local += size
		default:
			l.GlobalAddr[name] = sram
			sram += size
		}
	}
	l.SRAMGlobalBytes = sram
	l.ScratchGlobalBytes = scratch
	l.LocalGlobalBytes = local - swcRegionBytes

	// SRAM: globals first, then metadata records. The record size is
	// rounded to a power of two so record addresses are shift+add.
	l.MetaRecBytes = uint32(8 + tp.Metadata.Bytes)
	for p := uint32(8); ; p <<= 1 {
		if p >= l.MetaRecBytes {
			l.MetaRecBytes = p
			break
		}
	}
	l.MetaAppOff = 8
	l.MetaBase = (sram + 63) &^ 63
	// DRAM: packet buffers from 0.
	l.DRAMBufBase = 0
	// Scratch: globals, then locks, then rings.
	l.LockBase = (scratch + 63) &^ 63
	l.NumRings = RingApp0 + numAppRings
	l.RingSlots = 128
	l.RingBytes = uint32(8 + 4*l.RingSlots)
	l.RingBase0 = l.LockBase + uint32(4*numLocks)
	l.RingBase0 = (l.RingBase0 + 63) &^ 63

	// Local memory: software cache lines, local globals, stacks.
	l.SWCLineBase = 0
	l.LocalGlobal0 = swcRegionBytes // after 16 cache lines of 32 bytes
	l.StackBase = (local + 15) &^ 15
	l.StackSize = 192 // 48 words per thread (§5.4)
	return l
}

// RingBase returns the scratch byte address of ring i's control block.
func (l *Layout) RingBase(i int) uint32 { return l.RingBase0 + uint32(i)*l.RingBytes }

// BufAddr returns the DRAM byte address of packet buffer id's first
// headroom byte.
func (l *Layout) BufAddr(id uint32) uint32 { return l.DRAMBufBase + id*l.BufSize }

// MetaAddr returns the SRAM byte address of packet id's metadata record.
func (l *Layout) MetaAddr(id uint32) uint32 { return l.MetaBase + id*l.MetaRecBytes }
