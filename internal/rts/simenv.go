package rts

import (
	"encoding/binary"
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/cg"
	"shangrila/internal/packet"
)

// pktCtx tracks the simulated-buffer identity of a host packet object
// while the XScale interpreter processes it.
type pktCtx struct {
	id      uint32
	origLen int    // bytes between entry head and end at materialization
	headBuf uint32 // buffer-relative offset the host packet's start maps to
}

// simEnv implements profiler.Env against the machine's simulated
// memories: the XScale's view of the world. Global loads/stores hit
// Scratch/SRAM directly; channel puts write packets back to DRAM and push
// ring descriptors.
type simEnv struct {
	rt    *Runtime
	pkts  map[*packet.Packet]*pktCtx
	words []uint32 // LoadWords result, valid until the next load
}

// track registers the buffer identity of a materialized packet.
func (e *simEnv) track(p *packet.Packet, id uint32, origLen int, headBuf uint32) {
	if e.pkts == nil {
		e.pkts = map[*packet.Packet]*pktCtx{}
	}
	e.pkts[p] = &pktCtx{id: id, origLen: origLen, headBuf: headBuf}
}

// window returns the simulated bytes of the n words of global g at byte
// offset off.
func (e *simEnv) window(g *types.Global, off uint32, n int) ([]byte, error) {
	base, ok := e.rt.Img.Layout.GlobalAddr[g.Name]
	if !ok {
		return nil, fmt.Errorf("rts: global %s has no address", g.Name)
	}
	m := e.rt.M
	level, size := cg.MemSRAM, m.Cfg.SRAMBytes
	switch g.Space {
	case types.SpaceScratch:
		level, size = cg.MemScratch, m.Cfg.ScratchBytes
	case types.SpaceLocal:
		return nil, fmt.Errorf("rts: XScale cannot access per-ME local global %s", g.Name)
	}
	if int(base+off)+4*n > size {
		return nil, fmt.Errorf("rts: global %s access out of range", g.Name)
	}
	return m.Window(level, base+off, 4*n), nil
}

func (e *simEnv) LoadWords(g *types.Global, off uint32, n int) ([]uint32, error) {
	b, err := e.window(g, off, n)
	if err != nil {
		return nil, err
	}
	e.words = e.words[:0]
	for i := 0; i < n; i++ {
		e.words = append(e.words, binary.BigEndian.Uint32(b[i*4:]))
	}
	return e.words, nil
}

func (e *simEnv) StoreWords(g *types.Global, off uint32, words []uint32) error {
	b, err := e.window(g, off, len(words))
	if err != nil {
		return err
	}
	for i, w := range words {
		binary.BigEndian.PutUint32(b[i*4:], w)
	}
	return nil
}

// ChannelPut writes the packet back to its simulated buffer and pushes a
// descriptor onto the channel's ring.
func (e *simEnv) ChannelPut(ch *types.Channel, p *packet.Packet, head int) error {
	ctx := e.pkts[p]
	if ctx == nil {
		return fmt.Errorf("rts: channel_put of untracked packet on %s", ch.Name)
	}
	ring, ok := e.rt.Img.RingOf[ch.Name]
	if !ok {
		return fmt.Errorf("rts: channel %s has no ring (internal channel on the XScale path?)", ch.Name)
	}
	lay := e.rt.Img.Layout
	m := e.rt.M
	grow := p.Len() - ctx.origLen
	newStart := int(ctx.headBuf) - grow
	if newStart < 0 {
		return fmt.Errorf("rts: packet outgrew buffer headroom")
	}
	newHead := uint32(newStart + head)
	newEnd := uint32(newStart + p.Len())
	copy(m.Window(cg.MemDRAM, lay.BufAddr(ctx.id)+uint32(newStart), p.Len()), p.Bytes())
	meta := m.Window(cg.MemSRAM, lay.MetaAddr(ctx.id), int(lay.MetaRecBytes))
	binary.BigEndian.PutUint32(meta[cg.MetaLenOff:], newEnd)
	binary.BigEndian.PutUint32(meta[cg.MetaHeadOff:], newHead)
	copy(meta[lay.MetaAppOff:], p.Meta)
	if !m.Rings[ring].Put(ctx.id, newHead<<16|newEnd) {
		// Downstream full: drop (the XScale does not spin).
		m.Rings[cg.RingFree].Put(ctx.id, 0)
		m.Observer().PacketFreed(ctx.id)
	}
	delete(e.pkts, p)
	return nil
}

func (e *simEnv) Drop(p *packet.Packet) {
	if ctx := e.pkts[p]; ctx != nil {
		e.rt.M.Rings[cg.RingFree].Put(ctx.id, 0)
		e.rt.M.Observer().PacketFreed(ctx.id)
		delete(e.pkts, p)
	}
}

func (e *simEnv) Lock(id int) {
	// The XScale acquires the same scratch lock word MEs use; the
	// interpreter runs to completion atomically within a tick, so the
	// acquisition is modeled as immediate.
	lay := e.rt.Img.Layout
	binary.BigEndian.PutUint32(e.rt.M.Scratch[lay.LockBase+uint32(id)*4:], 1)
}

func (e *simEnv) Unlock(id int) {
	lay := e.rt.Img.Layout
	binary.BigEndian.PutUint32(e.rt.M.Scratch[lay.LockBase+uint32(id)*4:], 0)
}

func (e *simEnv) NewPacket(proto *types.Protocol) *packet.Packet {
	size := proto.Size()
	p := packet.NewZero(size, int(e.rt.Img.Layout.MetaRecBytes-e.rt.Img.Layout.MetaAppOff))
	if id, _, ok := e.rt.M.Rings[cg.RingFree].Get(); ok {
		e.track(p, id, size, e.rt.Img.Layout.BufHeadroom)
	}
	return p
}
