package packet

import (
	"bytes"
	"fmt"
	"testing"

	"shangrila/internal/baker/types"
)

// FuzzPacketOps applies an op sequence to a packet made by New, NewZero or
// an Arena and to a plain byte-slice model of its buffer. After every op
// the packet's buffer, bytes and metadata equal the model's, every result
// an op returns equals the model's or both are an error, nothing panics,
// and the packets around it (its arena neighbours, and the originals it
// was cloned from) are unchanged.
//
// The input is three header bytes (constructor, length, metadata size)
// followed by four-byte ops; see applyOp for their encoding. The seed
// corpus is testdata/fuzz/FuzzPacketOps, and
//
//	go test -run '^$' -fuzz '^FuzzPacketOps$' -fuzztime 10s ./internal/packet
//
// searches beyond it.
func FuzzPacketOps(f *testing.F) {
	tp := protoEnv(f)
	protos := []*types.Protocol{
		tp.Protocols["ether"], tp.Protocols["ipv4"], tp.Protocols["mpls"],
		// Longer than a fresh packet's headroom.
		{Name: "big", FixedSize: Headroom + 4, HeaderMin: Headroom + 4},
	}
	f.Add([]byte{0, 64, 4, 0, 3, 0, 0})             // New, then the 68-byte header at head 0
	f.Add([]byte{2, 40, 8, 1, 0, 0, 0, 0, 3, 0, 0}) // arena: decap ether, encap big
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		length, metaBytes := int(in[1])%97, int(in[2])%9
		wire := make([]byte, length)
		for i := range wire {
			wire[i] = byte(i*7 + 1)
		}
		meta := make([]byte, metaBytes)
		for i := range meta {
			meta[i] = byte(0xa0 + i)
		}
		var p *Packet
		var others []*Packet // packets the ops must leave alone
		switch in[0] % 3 {
		case 0:
			p = New(wire, metaBytes)
		case 1:
			p = NewZero(length, metaBytes)
			copy(p.Bytes(), wire)
		case 2:
			a := NewArena(3, length, metaBytes)
			before := a.NewZero(length, metaBytes)
			p = a.NewZero(length, metaBytes)
			after := a.NewZero(length, metaBytes)
			for i, q := range []*Packet{before, after} {
				copy(q.Bytes(), wire)
				for j := range q.Meta {
					q.Meta[j] = byte(0x30 + i)
				}
				others = append(others, q)
			}
			copy(p.Bytes(), wire)
		}
		copy(p.Meta, meta)
		snap := make([]packetState, len(others))
		for i, q := range others {
			snap[i] = stateOf(q)
		}
		m := &model{buf: append(make([]byte, Headroom), wire...), start: Headroom, n: length}
		for ops := in[3:]; len(ops) >= 4; ops = ops[4:] {
			what, err := applyOp(p, m, protos, ops[:4])
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if what == "clone" {
				others = append(others, p)
				snap = append(snap, stateOf(p))
				p = p.Clone()
			}
			if !bytes.Equal(p.buf, m.buf) || p.start != m.start || p.Len() != m.n ||
				!bytes.Equal(p.Bytes(), m.buf[m.start:m.start+m.n]) {
				t.Fatalf("after %s: packet %s, model at %d + %d: % x", what, packetString(p), m.start, m.n, m.buf)
			}
			if !bytes.Equal(p.Meta, meta) {
				t.Fatalf("after %s: metadata % x, want % x", what, p.Meta, meta)
			}
			for i, q := range others {
				if !snap[i].equals(q) {
					t.Fatalf("after %s: another packet changed from %s to %s", what, snap[i], packetString(q))
				}
			}
		}
	})
}

// packetString renders a packet's whole state: where its bytes start and
// how many there are, its buffer, and its metadata.
func packetString(p *Packet) string {
	return packetState{p.start, p.length, p.buf, p.Meta}.String()
}

// packetState is a copy of a packet's whole state, which a check compares
// with bytes.Equal and renders only when it fails.
type packetState struct {
	start, length int
	buf, meta     []byte
}

func stateOf(p *Packet) packetState {
	return packetState{p.start, p.length, bytes.Clone(p.buf), bytes.Clone(p.Meta)}
}

func (s packetState) equals(p *Packet) bool {
	return s.start == p.start && s.length == p.length && bytes.Equal(s.buf, p.buf) && bytes.Equal(s.meta, p.Meta)
}

func (s packetState) String() string {
	return fmt.Sprintf("at %d + %d: % x | % x", s.start, s.length, s.buf, s.meta)
}

// model is a packet as a plain byte slice: buf is the whole buffer, the
// headroom, then the n packet bytes from start, then the bytes RemoveTail
// dropped, which stay readable until AddTail zeroes them. Field and raw
// accesses reach all of it. head is the offset from start of the handle
// the ops go through.
type model struct {
	buf            []byte
	start, n, head int
}

// inBits reports whether the bits [off, off+n) from the packet start lie
// in the buffer.
func (m *model) inBits(off, n int) bool {
	off += 8 * m.start
	return off >= 0 && n >= 0 && off+n <= 8*len(m.buf)
}

func (m *model) readBits(off, bits int) uint32 {
	var v uint32
	for i := 8*m.start + off; i < 8*m.start+off+bits; i++ {
		v = v<<1 | uint32(m.buf[i/8]>>(7-i%8)&1)
	}
	return v
}

func (m *model) writeBits(off, bits int, v uint32) {
	for i := 8*m.start + off + bits - 1; i >= 8*m.start+off; i-- {
		m.buf[i/8] = m.buf[i/8]&^(1<<(7-i%8)) | byte(v&1)<<(7-i%8)
		v >>= 1
	}
}

// applyOp runs one four-byte op [kind, a, b, c] on p and on m: kind picks
// Encap or Decap of protos[a], AddTail or RemoveTail of a bytes, ReadField
// or WriteField (value from c) of a b-bit field at bit a (signed) from the
// head, ReadRaw of b (signed) bytes at byte a/2 (signed) from the head with c
// written through the alias, or Clone, which the caller carries out. It
// names the op, and returns an error when p and m disagree.
func applyOp(p *Packet, m *model, protos []*types.Protocol, op []byte) (string, error) {
	a, b, c := op[1], op[2], op[3]
	head := m.head
	switch op[0] % 8 {
	case 0:
		proto := protos[int(a)%len(protos)]
		what := fmt.Sprintf("encap %s at %d", proto.Name, head)
		size := proto.FixedSize
		if size < 0 {
			size = proto.HeaderMin
		}
		if head < size {
			// The front grows into the headroom, or into a new buffer
			// whose front room is the headroom or the growth, the larger.
			grow := size - head
			if grow > m.start {
				room := max(Headroom, grow)
				m.buf = append(make([]byte, room), m.buf[m.start:]...)
				m.start = room
			}
			m.start -= grow
			m.n += grow
			m.head += grow
		}
		m.head -= size
		got, err := p.Encap(head, proto)
		if err != nil || got != m.head {
			return what, fmt.Errorf("got head %d, %v; want %d", got, err, m.head)
		}
		return what, nil
	case 1:
		proto := protos[int(a)%len(protos)]
		what := fmt.Sprintf("decap %s at %d", proto.Name, head)
		size, ok := proto.FixedSize, true
		if size < 0 { // ipv4, the one dynamic protocol: hlen << 2
			hlen := proto.Field("hlen")
			off := head*8 + hlen.BitOff
			if ok = m.inBits(off, hlen.Bits); ok {
				size = int(m.readBits(off, hlen.Bits)) << 2
			}
		}
		ok = ok && head+size <= m.n
		got, err := p.Decap(head, proto)
		if !ok {
			return what, wantErr(err)
		}
		if err != nil || got != head+size {
			return what, fmt.Errorf("got head %d, %v; want %d", got, err, head+size)
		}
		m.head = got
		return what, nil
	case 2:
		k := int(a) % 80
		p.AddTail(k)
		end := m.start + m.n
		if end+k > len(m.buf) {
			m.buf = append(m.buf, make([]byte, end+k-len(m.buf))...)
		}
		clear(m.buf[end : end+k])
		m.n += k
		return fmt.Sprintf("add_tail %d", k), nil
	case 3:
		k := int(a) % 100
		what := fmt.Sprintf("remove_tail %d of %d", k, m.n)
		err := p.RemoveTail(k)
		if k > m.n {
			return what, wantErr(err)
		}
		m.n -= k
		return what, err
	case 4, 5:
		bits := 1 + int(b)%types.MaxFieldBits
		f := &types.ProtoField{Name: "f", BitOff: int(int8(a)), Bits: bits}
		off := head*8 + f.BitOff
		ok := m.inBits(off, bits)
		if op[0]%8 == 4 {
			what := fmt.Sprintf("read %d bits at bit %d", bits, off)
			got, err := p.ReadField(head, f)
			if !ok {
				return what, wantErr(err)
			}
			if want := m.readBits(off, bits); err != nil || got != want {
				return what, fmt.Errorf("got %#x, %v; want %#x", got, err, want)
			}
			return what, nil
		}
		v := uint32(c) * 0x9e3779b1
		what := fmt.Sprintf("write %#x to %d bits at bit %d", v, bits, off)
		err := p.WriteField(head, f, v)
		if !ok {
			return what, wantErr(err)
		}
		m.writeBits(off, bits, v)
		return what, err
	case 6:
		off, width := int(int8(a))/2, int(int8(b))%24
		lo := head + off
		what := fmt.Sprintf("raw [%d,%d)", lo, lo+width)
		raw, err := p.ReadRaw(head, off, width)
		if !m.inBits(8*lo, 8*width) {
			return what, wantErr(err)
		}
		want := m.buf[m.start+lo : m.start+lo+width]
		if err != nil || !bytes.Equal(raw, want) {
			return what, fmt.Errorf("got % x, %v; want % x", raw, err, want)
		}
		for i := range raw {
			raw[i] ^= c
			want[i] ^= c
		}
		return what, nil
	}
	return "clone", nil
}

// wantErr is the verdict on an op the model refuses: it must fail.
func wantErr(err error) error {
	if err == nil {
		return fmt.Errorf("succeeded, want an error")
	}
	return nil
}
