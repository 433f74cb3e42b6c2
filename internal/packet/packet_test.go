package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
)

func TestReadWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		bitOff, bits int
		val          uint32
	}{
		{0, 8, 0xab},
		{0, 32, 0xdeadbeef},
		{4, 4, 0x5},
		{12, 3, 0x7},
		{7, 16, 0x1234},
		{31, 2, 0x3},
		{96, 16, 0x0800},
		{0, 1, 1},
	}
	for _, c := range cases {
		data := make([]byte, 32)
		WriteBits(data, c.bitOff, c.bits, c.val)
		if got := ReadBits(data, c.bitOff, c.bits); got != c.val {
			t.Errorf("off=%d bits=%d: wrote %#x read %#x", c.bitOff, c.bits, c.val, got)
		}
	}
}

func TestWriteBitsPreservesNeighbors(t *testing.T) {
	data := make([]byte, 8)
	for i := range data {
		data[i] = 0xff
	}
	WriteBits(data, 12, 8, 0)
	if ReadBits(data, 0, 12) != 0xfff {
		t.Errorf("prefix disturbed: %x", data)
	}
	if ReadBits(data, 20, 12) != 0xfff {
		t.Errorf("suffix disturbed: %x", data)
	}
	if ReadBits(data, 12, 8) != 0 {
		t.Errorf("field not cleared: %x", data)
	}
}

func TestBitsBigEndian(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78}
	if got := ReadBits(data, 0, 16); got != 0x1234 {
		t.Errorf("first 16 bits = %#x, want 0x1234", got)
	}
	if got := ReadBits(data, 8, 16); got != 0x3456 {
		t.Errorf("mid 16 bits = %#x, want 0x3456", got)
	}
}

func TestQuickBitsRoundTrip(t *testing.T) {
	f := func(off8 uint8, width8 uint8, val uint32) bool {
		bitOff := int(off8) % 200
		bits := 1 + int(width8)%32
		data := make([]byte, 32)
		masked := val
		if bits < 32 {
			masked &= (1 << uint(bits)) - 1
		}
		WriteBits(data, bitOff, bits, val)
		return ReadBits(data, bitOff, bits) == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func protoEnv(t testing.TB) *types.Program {
	t.Helper()
	src := `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
protocol mpls { label:20; exp:3; s:1; ttl:8; demux { 4 }; }
metadata { rx_port:16; next_hop:16; }
module m { ppf f(ether ph){ packet_drop(ph); } wiring { rx -> f; } }
`
	prog, err := parser.Parse("t", src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestFieldAccessAndDecap(t *testing.T) {
	tp := protoEnv(t)
	eth := tp.Protocols["ether"]
	ip := tp.Protocols["ipv4"]

	wire := make([]byte, 64)
	p := New(wire, tp.Metadata.Bytes)
	if err := p.WriteField(0, eth.Field("type"), 0x0800); err != nil {
		t.Fatal(err)
	}
	v, err := p.ReadField(0, eth.Field("type"))
	if err != nil || v != 0x0800 {
		t.Fatalf("type = %#x err=%v", v, err)
	}

	head, err := p.Decap(0, eth)
	if err != nil {
		t.Fatal(err)
	}
	if head != 14 {
		t.Fatalf("head after ether decap = %d, want 14", head)
	}
	// Set IPv4 ver/hlen at the new header and decap dynamically.
	if err := p.WriteField(head, ip.Field("ver"), 4); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteField(head, ip.Field("hlen"), 5); err != nil {
		t.Fatal(err)
	}
	size, err := p.HeaderSize(head, ip)
	if err != nil || size != 20 {
		t.Fatalf("ipv4 header size = %d err=%v, want 20", size, err)
	}
	head, err = p.Decap(head, ip)
	if err != nil {
		t.Fatal(err)
	}
	if head != 34 {
		t.Fatalf("head = %d, want 34", head)
	}
}

func TestEncapRestoresAndGrows(t *testing.T) {
	tp := protoEnv(t)
	eth := tp.Protocols["ether"]
	mpls := tp.Protocols["mpls"]

	p := New(make([]byte, 64), 4)
	head, err := p.Decap(0, eth)
	if err != nil {
		t.Fatal(err)
	}
	head, err = p.Encap(head, eth)
	if err != nil {
		t.Fatal(err)
	}
	if head != 0 || p.Len() != 64 {
		t.Fatalf("after decap+encap: head=%d len=%d", head, p.Len())
	}
	// Encap at head 0 grows the packet front (an MPLS label push).
	head, err = p.Encap(head, mpls)
	if err != nil {
		t.Fatal(err)
	}
	if head != 0 || p.Len() != 68 {
		t.Fatalf("after mpls push: head=%d len=%d, want 0, 68", head, p.Len())
	}
	if err := p.WriteField(head, mpls.Field("label"), 12345); err != nil {
		t.Fatal(err)
	}
	v, _ := p.ReadField(head, mpls.Field("label"))
	if v != 12345 {
		t.Fatalf("label = %d", v)
	}
}

// TestEncapGrowsPastHeadroom: a header longer than the buffer's front
// room (here 68 bytes in front of a fresh packet's 64-byte headroom) still
// lands in front of the packet's bytes, which keep their values.
func TestEncapGrowsPastHeadroom(t *testing.T) {
	wire := make([]byte, 64)
	for i := range wire {
		wire[i] = byte(i + 1)
	}
	p := New(wire, 8)
	head, err := p.Encap(0, &types.Protocol{FixedSize: Headroom + 4})
	if err != nil || head != 0 {
		t.Fatalf("Encap = %d, %v; want 0, nil", head, err)
	}
	b := p.Bytes()
	if len(b) != 64+Headroom+4 {
		t.Fatalf("len = %d, want %d", len(b), 64+Headroom+4)
	}
	if !bytes.Equal(b[Headroom+4:], wire) {
		t.Errorf("packet bytes moved: % x", b[Headroom+4:])
	}
}

func TestMetadata(t *testing.T) {
	tp := protoEnv(t)
	p := New(make([]byte, 64), tp.Metadata.Bytes)
	nh := tp.Metadata.Field("next_hop")
	rx := tp.Metadata.Field("rx_port")
	p.SetMetaField(nh, 0xbeef)
	p.SetMetaField(rx, 7)
	if p.MetaField(nh) != 0xbeef || p.MetaField(rx) != 7 {
		t.Fatalf("meta = %d,%d", p.MetaField(nh), p.MetaField(rx))
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := protoEnv(t)
	eth := tp.Protocols["ether"]
	p := New(make([]byte, 64), 4)
	q := p.Clone()
	if err := q.WriteField(0, eth.Field("type"), 0x86dd); err != nil {
		t.Fatal(err)
	}
	v, _ := p.ReadField(0, eth.Field("type"))
	if v != 0 {
		t.Fatal("clone shares storage with original")
	}
}

// TestCopyFromReusesStorage: CopyFrom reproduces a packet exactly — headroom
// included, so an encapsulation that grows the front behaves as on the
// original — shares nothing with it, and reuses the copy's storage once it
// has grown.
func TestCopyFromReusesStorage(t *testing.T) {
	tp := protoEnv(t)
	eth := tp.Protocols["ether"]
	long := New(make([]byte, 96), 4)
	long.Port = 3
	if err := long.WriteField(0, eth.Field("type"), 0x0800); err != nil {
		t.Fatal(err)
	}
	var p Packet
	p.CopyFrom(long)
	if !bytes.Equal(p.Bytes(), long.Bytes()) || !bytes.Equal(p.Meta, long.Meta) || p.Port != 3 ||
		len(p.buf) != len(long.buf) || p.start != long.start {
		t.Fatalf("copy %+v differs from %+v", p, long)
	}
	if err := p.WriteField(0, eth.Field("type"), 0x86dd); err != nil {
		t.Fatal(err)
	}
	if v, _ := long.ReadField(0, eth.Field("type")); v != 0x0800 {
		t.Fatal("the copy shares storage with the original")
	}
	short := New(make([]byte, 64), 4)
	if n := testing.AllocsPerRun(10, func() { p.CopyFrom(short); p.CopyFrom(long) }); n != 0 {
		t.Errorf("copying into grown storage allocates %v times", n)
	}
	p.CopyFrom(short)
	if !bytes.Equal(p.Bytes(), short.Bytes()) || len(p.buf) != len(short.buf) {
		t.Fatal("a shorter packet copied over a longer one kept its length")
	}
}

func TestAddRemoveTail(t *testing.T) {
	p := New(make([]byte, 64), 4)
	p.AddTail(16)
	if p.Len() != 80 {
		t.Fatalf("len = %d, want 80", p.Len())
	}
	if err := p.RemoveTail(30); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 50 {
		t.Fatalf("len = %d, want 50", p.Len())
	}
	if err := p.RemoveTail(1000); err == nil {
		t.Fatal("expected error removing more than payload")
	}
}

// TestArenaCarvesLikeNewZero: an arena packet has NewZero's shape — zeroed,
// its buffer and metadata capacity-clipped to their own bytes — including
// the packets carved after the first slab and []Packet run out and one
// larger than a whole slab.
func TestArenaCarvesLikeNewZero(t *testing.T) {
	a := NewArena(2, 8, 4)
	var got []*Packet
	for _, n := range []int{8, 8, 8, 100, 8} {
		p := a.NewZero(n, 4)
		if p.Len() != n || len(p.buf) != Headroom+n || cap(p.buf) != len(p.buf) ||
			len(p.Meta) != 4 || cap(p.Meta) != 4 || p.start != Headroom {
			t.Fatalf("packet of %d bytes: len %d, buf %d/%d, meta %d/%d, start %d",
				n, p.Len(), len(p.buf), cap(p.buf), len(p.Meta), cap(p.Meta), p.start)
		}
		for _, q := range got {
			for i := range q.buf {
				q.buf[i] = 0xff
			}
			for i := range q.Meta {
				q.Meta[i] = 0xff
			}
		}
		if bytes.Count(p.buf, []byte{0}) != len(p.buf) || bytes.Count(p.Meta, []byte{0}) != len(p.Meta) {
			t.Fatalf("packet of %d bytes shares storage with an earlier one", n)
		}
		got = append(got, p)
	}
}
