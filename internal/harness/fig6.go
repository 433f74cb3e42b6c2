package harness

import (
	"fmt"
	"strings"

	"shangrila/internal/cg"
	"shangrila/internal/ixp"
)

// Figure 6 reproduces the paper's memory micro-experiment: all six
// programmable MEs run a tight loop that takes a packet descriptor,
// issues only memory accesses (1..128 per packet, at one level and
// width), and forwards the descriptor. The resulting curves show each
// memory level's bandwidth ceiling and the fractional penalty of wider
// accesses — the budget rules (§5: ≈2 DRAM / 8 SRAM / 64 Scratch accesses
// per 64B packet at 2.5 Gbps) fall out of them.

// Fig6Point is one measurement.
type Fig6Point struct {
	Level    cg.MemLevel
	Bytes    int // access width in bytes
	Accesses int // memory accesses per packet
	Gbps     float64
}

// Fig6Counts is the paper's x axis.
var Fig6Counts = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Fig6Series enumerates the paper's six curves.
var Fig6Series = []struct {
	Level cg.MemLevel
	Bytes int
}{
	{cg.MemScratch, 4},
	{cg.MemScratch, 32},
	{cg.MemSRAM, 4},
	{cg.MemSRAM, 32},
	{cg.MemDRAM, 8},
	{cg.MemDRAM, 64},
}

// Figure6Kernel hand-builds the CGIR for the micro-benchmark loop: get a
// descriptor, issue `accesses` reads of `words` words at `level`, put the
// descriptor to Tx. (This doubles as the repository's stand-in for the
// hand-coded-assembly comparison point: it is exactly the kind of program
// an ME programmer writes by hand.)
func Figure6Kernel(level cg.MemLevel, words, accesses int) *cg.Program {
	var code []*cg.Instr
	const (
		rPkt  = cg.PReg(0)  // a0
		rDesc = cg.PReg(16) // b0
		rAddr = cg.PReg(1)  // a1
		rOK   = cg.PReg(17) // b1
	)
	data := make([]cg.PReg, words)
	for i := range data {
		if i%2 == 0 {
			data[i] = cg.PReg(2 + i/2) // a2..
		} else {
			data[i] = cg.PReg(18 + i/2) // b2..
		}
	}
	loop := len(code)
	code = append(code, &cg.Instr{Op: cg.IRingGet, Ring: cg.RingRx,
		Dst: rPkt, Dst2: rDesc, Class: cg.ClassPacketRing})
	// Empty: yield and retry.
	code = append(code, &cg.Instr{Op: cg.IBccImm, Cond: cg.CNe, SrcA: rPkt,
		Imm: cg.InvalidPktID, Target: len(code) + 3})
	code = append(code, &cg.Instr{Op: cg.ICtxArb})
	code = append(code, &cg.Instr{Op: cg.IBr, Target: loop})
	// Address: spread accesses across the level to mimic table traffic,
	// masked into the smallest level's range (scratch is 16 KiB).
	code = append(code, &cg.Instr{Op: cg.IALUImm, ALU: cg.AAnd, Dst: rAddr,
		SrcA: rPkt, Imm: 31})
	code = append(code, &cg.Instr{Op: cg.IALUImm, ALU: cg.AShl, Dst: rAddr,
		SrcA: rAddr, Imm: 6})
	for i := 0; i < accesses; i++ {
		code = append(code, &cg.Instr{Op: cg.IMem, Level: level,
			Addr: rAddr, AddrOff: uint32(i * words * 4), NWords: words,
			Data: append([]cg.PReg(nil), data...), Class: cg.ClassAppData})
	}
	// Forward.
	put := len(code)
	code = append(code, &cg.Instr{Op: cg.IRingPut, Ring: cg.RingTx,
		SrcA: rPkt, SrcB: rDesc, Dst: rOK, Class: cg.ClassPacketRing})
	code = append(code, &cg.Instr{Op: cg.IBccImm, Cond: cg.CEq, SrcA: rOK,
		Imm: 0, Target: put})
	code = append(code, &cg.Instr{Op: cg.IBr, Target: loop})
	return &cg.Program{Name: fmt.Sprintf("fig6_%v_%dB_x%d", level, words*4, accesses), Code: code}
}

// RunKernel runs a raw CGIR kernel on numMEs engines with a synthetic
// descriptor source and returns the measured forwarding rate.
func RunKernel(prog *cg.Program, numMEs int, warmup, measure int64) (float64, error) {
	cfg := ixp.DefaultConfig()
	cfg.RingSlots = 256
	m, err := ixp.New(cfg, ixp.WithMedia(&ixp.FixedDescMedia{}))
	if err != nil {
		return 0, err
	}
	m.GrowRing(cg.RingFree, 600)
	for id := 0; id < 512; id++ {
		m.Rings[cg.RingFree].Put(uint32(id), 64<<16|128)
	}
	for me := 0; me < numMEs; me++ {
		if err := m.LoadProgram(me, prog); err != nil {
			return 0, err
		}
	}
	if err := m.Run(warmup); err != nil {
		return 0, err
	}
	m.ResetStats()
	if err := m.Run(measure); err != nil {
		return 0, err
	}
	return m.Snapshot().Gbps(cfg.ClockMHz), nil
}

// Figure6 sweeps all six curves over the access counts with six MEs (two
// of the eight are Rx and Tx, as on the evaluation board).
func Figure6(warmup, measure int64) ([]Fig6Point, error) {
	var out []Fig6Point
	for _, s := range Fig6Series {
		for _, n := range Fig6Counts {
			prog := Figure6Kernel(s.Level, s.Bytes/4, n)
			g, err := RunKernel(prog, 6, warmup, measure)
			if err != nil {
				return nil, fmt.Errorf("fig6 %v %dB x%d: %w", s.Level, s.Bytes, n, err)
			}
			out = append(out, Fig6Point{Level: s.Level, Bytes: s.Bytes, Accesses: n, Gbps: g})
		}
	}
	return out, nil
}

// FormatFigure6 renders the sweep as the paper's figure data.
func FormatFigure6(points []Fig6Point) string {
	var b strings.Builder
	b.WriteString("Figure 6 — forwarding rate (Gbps) vs memory accesses per 64B packet, 6 MEs\n")
	fmt.Fprintf(&b, "%-14s", "accesses:")
	for _, n := range Fig6Counts {
		fmt.Fprintf(&b, " %6d", n)
	}
	fmt.Fprintln(&b)
	for _, s := range Fig6Series {
		fmt.Fprintf(&b, "%-8s(%2dB):", s.Level, s.Bytes)
		for _, n := range Fig6Counts {
			for _, p := range points {
				if p.Level == s.Level && p.Bytes == s.Bytes && p.Accesses == n {
					fmt.Fprintf(&b, " %6.2f", p.Gbps)
				}
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
