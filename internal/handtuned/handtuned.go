// Package handtuned contains hand-written CGIR kernels — the stand-in for
// the paper's hand-coded microengine assembly reference point. The paper's
// headline claim is that *compiled* Baker code achieves the same forwarding
// target that hand-tuned assembly reaches; this package provides the
// hand-tuned side of that comparison on the same machine model.
//
// The kernels are written the way an experienced ME programmer writes the
// fast path: one wide read for all needed header fields, table lookups with
// precomputed addressing, one combined write-back, registers managed by
// hand across the two banks, and a tight dispatch loop.
package handtuned

import "shangrila/internal/cg"

// Register plan for the L3 forwarder kernel (bank A / bank B split chosen
// by hand, as an assembly programmer would).
const (
	rPkt   = cg.PReg(0)  // a0: buffer id
	rDesc  = cg.PReg(16) // b0: head<<16|end descriptor word
	rAddr  = cg.PReg(1)  // a1: DRAM address of the headers
	rW0    = cg.PReg(2)  // a2..: header words 0..4 (ether + ipv4 through dst)
	rW1    = cg.PReg(17)
	rW2    = cg.PReg(3)
	rW3    = cg.PReg(18)
	rW4    = cg.PReg(4)
	rW5    = cg.PReg(19) // word 5: ipv4 src
	rW6    = cg.PReg(5)  // word 6: ipv4 dst
	rTmp   = cg.PReg(20) // b4: header word 7
	rTmp2  = cg.PReg(23) // b7: header word 8
	rNH    = cg.PReg(8)  // a8: next hop
	rConst = cg.PReg(9)  // a9: constants for bank-B operands
	rLAddr = cg.PReg(7)  // a7: lookup address
	rOK    = cg.PReg(22) // b6
)

// L3Forwarder builds a hand-tuned L3 forwarding kernel: parse
// Ethernet+IPv4 with a single 28-byte read, look the destination up in a
// direct-mapped next-hop table at sramTableBase (one SRAM access),
// decrement TTL, fix the checksum incrementally, rewrite the Ethernet
// destination, and write everything back with a single burst.
func L3Forwarder(sramTableBase uint32) *cg.Program {
	var code []*cg.Instr
	emit := func(in *cg.Instr) { code = append(code, in) }
	label := func() int { return len(code) }

	loop := label()
	// Dispatch: one descriptor pair per packet.
	emit(&cg.Instr{Op: cg.IRingGet, Ring: cg.RingRx, Dst: rPkt, Dst2: rDesc,
		Class: cg.ClassPacketRing})
	emit(&cg.Instr{Op: cg.IBccImm, Cond: cg.CNe, SrcA: rPkt, Imm: cg.InvalidPktID,
		Target: label() + 3})
	emit(&cg.Instr{Op: cg.ICtxArb})
	emit(&cg.Instr{Op: cg.IBr, Target: loop})

	// addr = pkt*256 (+64 headroom folded into offsets below).
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AShl, Dst: rAddr, SrcA: rPkt, Imm: 8})
	// One wide read: ether (14B) + ipv4 through dst (20B) = 34B -> 7+2
	// words starting at the packet head; 28 bytes cover everything the
	// fast path needs except ipv4.dst's low half, so read 9 words.
	emit(&cg.Instr{Op: cg.IMem, Level: cg.MemDRAM, Addr: rAddr, AddrOff: 64,
		NWords: 9, Data: []cg.PReg{rW0, rW1, rW2, rW3, rW4, rW5, rW6, rTmp, rTmp2},
		Class: cg.ClassPacketData, Comment: "hand: single header read"})

	// dst ip sits at bytes 30..34 = word 7 of the read (rTmp holds bytes
	// 28..32: cksum+src hi...). Recompute: ether 0..14, ipv4 14..34; dst
	// at 30 -> word index 7 (bytes 28..32) high half | word 8 low half.
	// The hand kernel uses the classic trick of a direct-mapped table on
	// the /16: idx = dst >> 16 -> word7 low 16 bits | word8 high 16 bits.
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AShl, Dst: rLAddr, SrcA: rTmp, Imm: 16})
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AShrU, Dst: rTmp2, SrcA: rTmp2, Imm: 16})
	emit(&cg.Instr{Op: cg.IALU, ALU: cg.AOr, Dst: rLAddr, SrcA: rLAddr, SrcB: rTmp2,
		Comment: "hand: dst ip"})
	// idx = (dst >> 16) << 2 + table base.
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AShrU, Dst: rLAddr, SrcA: rLAddr, Imm: 16})
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AShl, Dst: rLAddr, SrcA: rLAddr, Imm: 2})
	emit(&cg.Instr{Op: cg.IMem, Level: cg.MemSRAM, Addr: rLAddr, AddrOff: sramTableBase,
		NWords: 1, Data: []cg.PReg{rNH}, Class: cg.ClassAppData,
		Comment: "hand: next-hop lookup"})

	// TTL-1 and incremental checksum: word 5 of the header read is ipv4
	// bytes 8..12 = ttl|proto|cksum. The constant lives in bank A because
	// rW5 is bank B (the two-source bank rule, enforced by hand here).
	emit(&cg.Instr{Op: cg.IImmed, Dst: rConst, Imm: 0x01000000})
	emit(&cg.Instr{Op: cg.IALU, ALU: cg.ASub, Dst: rW5, SrcA: rW5, SrcB: rConst,
		Comment: "hand: ttl-1"})
	emit(&cg.Instr{Op: cg.IALUImm, ALU: cg.AAdd, Dst: rW5, SrcA: rW5, Imm: 0x0100,
		Comment: "hand: cksum += 0x100 (folded)"})

	// Rewrite the Ethernet destination from the next hop (word 0 hi16 and
	// word 0/1 pattern kept simple: dst MAC = 0x0bb0:110000xx).
	emit(&cg.Instr{Op: cg.IImmed, Dst: rW0, Imm: 0x0bb01100})
	emit(&cg.Instr{Op: cg.IALU, ALU: cg.AOr, Dst: rW1, SrcA: rNH, SrcB: rW1,
		Comment: "hand: fold next hop into dst MAC low word"})

	// Single combined write-back of words 0..5 (ether + ttl/cksum word).
	emit(&cg.Instr{Op: cg.IMem, Level: cg.MemDRAM, Store: true, Addr: rAddr,
		AddrOff: 64, NWords: 6, Data: []cg.PReg{rW0, rW1, rW2, rW3, rW4, rW5},
		Class: cg.ClassPacketData, Comment: "hand: single write-back"})

	// Forward.
	put := label()
	emit(&cg.Instr{Op: cg.IRingPut, Ring: cg.RingTx, SrcA: rPkt, SrcB: rDesc,
		Dst: rOK, Class: cg.ClassPacketRing})
	emit(&cg.Instr{Op: cg.IBccImm, Cond: cg.CEq, SrcA: rOK, Imm: 0, Target: put})
	emit(&cg.Instr{Op: cg.IBr, Target: loop})
	return &cg.Program{Name: "handtuned-l3", Code: code}
}
