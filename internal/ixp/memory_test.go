package ixp

import (
	"runtime"
	"testing"

	"shangrila/internal/cg"
)

// memProbe loads a word never written, stores a marker in the last word
// of the level and loads it back: the contract a demand-grown level must
// share with an eagerly zeroed one.
func memProbe(level cg.MemLevel, size int) *cg.Program {
	last := uint32(size - 4)
	return &cg.Program{Name: "probe", Code: []*cg.Instr{
		{Op: cg.IImmed, Dst: 2, Imm: 0xdead},
		{Op: cg.IMem, Level: level, Addr: cg.NoPReg, AddrOff: uint32(size / 2),
			NWords: 1, Data: []cg.PReg{2}, Class: cg.ClassAppData},
		{Op: cg.IImmed, Dst: 3, Imm: 0xfeedface},
		{Op: cg.IMem, Level: level, Store: true, Addr: cg.NoPReg, AddrOff: last,
			NWords: 1, Data: []cg.PReg{3}, Class: cg.ClassAppData},
		{Op: cg.IMem, Level: level, Addr: cg.NoPReg, AddrOff: last,
			NWords: 1, Data: []cg.PReg{4}, Class: cg.ClassAppData},
		{Op: cg.IHalt},
	}}
}

// TestMemoryDemandGrown pins the logical view of SRAM and DRAM: an
// in-range address nobody wrote reads zero, the last word of the
// configured size round-trips, and the host-side window sees what the ME
// stored.
func TestMemoryDemandGrown(t *testing.T) {
	cfg := DefaultConfig()
	for _, lv := range []struct {
		level cg.MemLevel
		size  int
	}{{cg.MemSRAM, cfg.SRAMBytes}, {cg.MemDRAM, cfg.DRAMBytes}} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(m.memory(lv.level, 0)); n != 0 {
			t.Errorf("%v: fresh machine already backs %d bytes", lv.level, n)
		}
		m.LoadProgram(0, memProbe(lv.level, lv.size))
		if err := m.Run(10_000); err != nil {
			t.Fatalf("%v: %v", lv.level, err)
		}
		th := m.MEs[0].threads[0]
		if got := th.Reg(2); got != 0 {
			t.Errorf("%v: never-written word read %#x, want 0", lv.level, got)
		}
		if got := th.Reg(4); got != 0xfeedface {
			t.Errorf("%v: last word read back %#x, want 0xfeedface", lv.level, got)
		}
		if got := beWord(m.Window(lv.level, uint32(lv.size-4), 4)); got != 0xfeedface {
			t.Errorf("%v: window sees %#x in the last word, want 0xfeedface", lv.level, got)
		}
		if w := m.Window(lv.level, 64, 8); len(w) != 8 || cap(w) != 8 {
			t.Errorf("%v: window len/cap = %d/%d, want 8/8", lv.level, len(w), cap(w))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: window straddling the logical end did not panic", lv.level)
				}
			}()
			m.Window(lv.level, uint32(lv.size-4), 8)
		}()
	}
}

// TestMemoryLogicalEndFaults checks that the fault boundary is the
// configured size, not the backing's: a two-word access straddling the
// end of SRAM or DRAM raises the same machine check, byte for byte,
// whether the backing is still empty or already grown.
func TestMemoryLogicalEndFaults(t *testing.T) {
	cfg := DefaultConfig()
	for _, lv := range []struct {
		level cg.MemLevel
		size  int
		want  string
	}{
		{cg.MemSRAM, cfg.SRAMBytes, "ixp: ME0: mem access at 8388604+8 out of range (level sram)"},
		{cg.MemDRAM, cfg.DRAMBytes, "ixp: ME0: mem access at 8388604+8 out of range (level dram)"},
	} {
		for _, grown := range []bool{false, true} {
			var code []*cg.Instr
			if grown {
				code = append(code, &cg.Instr{Op: cg.IMem, Level: lv.level, Store: true,
					Addr: cg.NoPReg, AddrOff: 4096, NWords: 1, Data: []cg.PReg{1}, Class: cg.ClassAppData})
			}
			code = append(code,
				&cg.Instr{Op: cg.IMem, Level: lv.level, Addr: cg.NoPReg, AddrOff: uint32(lv.size - 4),
					NWords: 2, Data: []cg.PReg{2, 3}, Class: cg.ClassAppData},
				&cg.Instr{Op: cg.IHalt})
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.LoadProgram(0, &cg.Program{Name: "straddle", Code: code})
			err = m.Run(10_000)
			if err == nil || err.Error() != lv.want {
				t.Errorf("%v grown=%v: fault = %v, want %q", lv.level, grown, err, lv.want)
			}
		}
	}
}

// TestNewAllocatesLittle bounds what constructing a machine costs the
// host: a sweep builds one per point, so New must not allocate (or
// clear) the configured SRAM and DRAM sizes.
func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Errorf("ixp.New allocated %d bytes, want < 256 KiB", got)
	}
	runtime.KeepAlive(m)
}
