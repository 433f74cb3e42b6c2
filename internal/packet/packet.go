package packet

import (
	"fmt"

	"shangrila/internal/baker/types"
)

// Headroom is the spare space reserved before a packet's first byte so
// encapsulation can prepend headers without reallocating (the runtime
// reserves the same headroom in simulated DRAM buffers).
const Headroom = 64

// Packet is a host-level packet: data bytes with headroom and a metadata
// record. The current-header offset (the paper's head_ptr, Figure 3) is
// NOT part of the packet: it belongs to each packet_handle, so a stale
// handle held across packet_decap still denotes its original header. The
// interpreter and runtime carry the head offset alongside the packet.
type Packet struct {
	buf    []byte
	start  int // first packet byte within buf
	length int // packet length in bytes
	Meta   []byte
	Port   uint32 // receive port (also mirrored into metadata by Rx)
}

// New builds a packet from raw wire bytes, reserving headroom and a
// metadata record of metaBytes.
func New(wire []byte, metaBytes int) *Packet {
	p := NewZero(len(wire), metaBytes)
	copy(p.Bytes(), wire)
	return p
}

// NewZero builds a packet of length zero bytes, to be filled in place
// through Bytes. Buffer and metadata share one allocation; the buffer's
// capacity ends where the metadata begins, so growing it reallocates.
func NewZero(length, metaBytes int) *Packet {
	p := carve(make([]byte, Headroom+length+metaBytes), length)
	return &p
}

// carve lays a packet of length bytes out over mem, which holds exactly its
// headroom, its bytes and its metadata record. Both slices are
// capacity-clipped, so growing either reallocates and never writes past mem.
func carve(mem []byte, length int) Packet {
	n := Headroom + length
	return Packet{buf: mem[:n:n], start: Headroom, length: length, Meta: mem[n:len(mem):len(mem)]}
}

// Arena carves packets from one byte slab and one []Packet, so a trace of n
// packets costs a few allocations instead of two per packet. Every packet's
// buffer and metadata are capacity-clipped to its own bytes, as NewZero's
// are: growing either reallocates it and never writes into a neighbour. A
// slab that runs out is replaced by a fresh one of the same size; the
// packets already carved keep theirs. An Arena is not safe for concurrent
// use.
type Arena struct {
	slabBytes, slabPackets int // the size of each fresh slab
	bytes                  []byte
	packets                []Packet
}

// NewArena returns an arena sized for n packets of length bytes, each with
// a metadata record of metaBytes. Nothing is allocated before the first
// packet.
func NewArena(n, length, metaBytes int) *Arena {
	return &Arena{slabBytes: n * (Headroom + length + metaBytes), slabPackets: max(n, 1)}
}

// NewZero is the package's NewZero, carved from the arena.
func (a *Arena) NewZero(length, metaBytes int) *Packet {
	need := Headroom + length + metaBytes
	if len(a.bytes) < need {
		a.bytes = make([]byte, max(need, a.slabBytes))
	}
	if len(a.packets) == 0 {
		a.packets = make([]Packet, a.slabPackets)
	}
	p := &a.packets[0]
	*p = carve(a.bytes[:need], length)
	a.bytes, a.packets = a.bytes[need:], a.packets[1:]
	return p
}

// Bytes returns the current packet contents from the packet start.
func (p *Packet) Bytes() []byte { return p.buf[p.start : p.start+p.length] }

// Len returns the packet length in bytes.
func (p *Packet) Len() int { return p.length }

// Clone deep-copies the packet (packet_copy).
func (p *Packet) Clone() *Packet {
	return &Packet{
		buf:    append([]byte(nil), p.buf...),
		start:  p.start,
		length: p.length,
		Meta:   append([]byte(nil), p.Meta...),
		Port:   p.Port,
	}
}

// CopyFrom makes p a deep copy of q (the same bytes, headroom, metadata and
// port), reusing p's storage wherever it is large enough: a packet rewritten
// over and over, as the profiler's scratch packet is, allocates only for a q
// larger than every packet copied into it before.
func (p *Packet) CopyFrom(q *Packet) {
	p.buf = append(p.buf[:0], q.buf...)
	p.Meta = append(p.Meta[:0], q.Meta...)
	p.start, p.length, p.Port = q.start, q.length, q.Port
}

// ReadField reads protocol field f of the header at byte offset head.
func (p *Packet) ReadField(head int, f *types.ProtoField) (uint32, error) {
	bitOff := (p.start+head)*8 + f.BitOff
	if bitOff < 0 || (bitOff+f.Bits+7)/8 > len(p.buf) {
		return 0, fmt.Errorf("packet: field %q read past end of %dB packet", f.Name, p.length)
	}
	return ReadBits(p.buf, bitOff, f.Bits), nil
}

// WriteField writes protocol field f of the header at byte offset head.
func (p *Packet) WriteField(head int, f *types.ProtoField, v uint32) error {
	bitOff := (p.start+head)*8 + f.BitOff
	if bitOff < 0 || (bitOff+f.Bits+7)/8 > len(p.buf) {
		return fmt.Errorf("packet: field %q write past end of %dB packet", f.Name, p.length)
	}
	WriteBits(p.buf, bitOff, f.Bits, v)
	return nil
}

// ReadRaw returns the width bytes at byte offset off from the header at
// head, aliased into the packet buffer (writes through it modify the
// packet). A negative width is an error, as is a range outside the buffer.
func (p *Packet) ReadRaw(head, off, width int) ([]byte, error) {
	lo := p.start + head + off
	if lo < 0 || width < 0 || lo+width > len(p.buf) {
		return nil, fmt.Errorf("packet: raw access [%d,%d) out of bounds", off, off+width)
	}
	return p.buf[lo : lo+width], nil
}

// MetaField reads a metadata field.
func (p *Packet) MetaField(f *types.ProtoField) uint32 {
	return ReadBits(p.Meta, f.BitOff, f.Bits)
}

// SetMetaField writes a metadata field.
func (p *Packet) SetMetaField(f *types.ProtoField, v uint32) {
	WriteBits(p.Meta, f.BitOff, f.Bits, v)
}

// HeaderSize evaluates proto's demux against the header at head, yielding
// the header size in bytes.
func (p *Packet) HeaderSize(head int, proto *types.Protocol) (int, error) {
	if proto.Demux == nil {
		return proto.FixedSize, nil
	}
	v, err := proto.Demux.Eval(func(f *types.ProtoField) (uint32, error) { return p.ReadField(head, f) })
	if err != nil {
		return 0, err
	}
	if v > uint32(p.length) {
		return 0, fmt.Errorf("packet: %s demux %d exceeds packet length %d", proto.Name, v, p.length)
	}
	return int(v), nil
}

// Decap returns the header offset just past proto's header at head
// (packet_decap).
func (p *Packet) Decap(head int, proto *types.Protocol) (int, error) {
	size, err := p.HeaderSize(head, proto)
	if err != nil {
		return 0, err
	}
	if head+size > p.length {
		return 0, fmt.Errorf("packet: decap of %s moves head past packet end", proto.Name)
	}
	return head + size, nil
}

// Encap returns the header offset of a new outer header placed before
// head, extending the packet front when head is too close to the packet
// start (packet_encap; MPLS label pushes use this to grow the stack).
// When the front grows, offsets held by other handles become stale — Baker
// programs release a handle when they encapsulate it, so this matches the
// language's immediate-release channel semantics.
func (p *Packet) Encap(head int, outer *types.Protocol) (int, error) {
	size := outer.Size()
	if head >= size {
		return head - size, nil
	}
	grow := size - head
	if grow > p.start {
		// The new buffer's front room covers this growth even when the
		// header is longer than the standard headroom.
		room := max(Headroom, grow)
		nbuf := make([]byte, room+len(p.buf)-p.start)
		copy(nbuf[room:], p.buf[p.start:])
		p.buf = nbuf
		p.start = room
	}
	p.start -= grow
	p.length += grow
	return 0, nil
}

// AddTail appends n zero bytes to the packet.
func (p *Packet) AddTail(n int) {
	need := p.start + p.length + n
	if need > len(p.buf) {
		p.buf = append(p.buf, make([]byte, need-len(p.buf))...)
	}
	for i := p.start + p.length; i < need; i++ {
		p.buf[i] = 0
	}
	p.length += n
}

// RemoveTail drops n bytes from the packet tail.
func (p *Packet) RemoveTail(n int) error {
	if n > p.length {
		return fmt.Errorf("packet: remove_tail %d exceeds packet length", n)
	}
	p.length -= n
	return nil
}
