package trace

import (
	"errors"
	"strings"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
)

func env(t *testing.T) *types.Program {
	t.Helper()
	src := `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4 { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                ttl:8; proto:8; cksum:16; src:32; dst:32; demux { hlen << 2 }; }
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

func TestBuildLayers(t *testing.T) {
	tp := env(t)
	eth := tp.Protocols["ether"]
	ip := tp.Protocols["ipv4"]
	p, err := Build([]Layer{
		{Proto: eth, Fields: []Field{{Name: "type", Value: 0x0800}}},
		{Proto: ip, Fields: []Field{{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 64}, {Name: "dst", Value: 0x0a000001}}, Size: 20},
	}, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 64 {
		t.Fatalf("len = %d, want 64", p.Len())
	}
	v, err := p.ReadField(0, eth.Field("type"))
	if err != nil || v != 0x0800 {
		t.Fatalf("type = %#x, err %v", v, err)
	}
	head, err := p.Decap(0, eth)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := p.ReadField(head, ip.Field("dst"))
	if dst != 0x0a000001 {
		t.Fatalf("dst = %#x", dst)
	}
	hs, err := p.HeaderSize(head, ip)
	if err != nil || hs != 20 {
		t.Fatalf("hlen propagated wrong: %d %v", hs, err)
	}
}

func TestBuildErrors(t *testing.T) {
	tp := env(t)
	ip := tp.Protocols["ipv4"]
	if _, err := Build([]Layer{{Proto: ip}}, 64, 4); err == nil {
		t.Fatal("dynamic layer without Size must error")
	}
	eth := tp.Protocols["ether"]
	if _, err := Build([]Layer{{Proto: eth, Fields: []Field{{Name: "bogus", Value: 1}}}}, 64, 4); err == nil {
		t.Fatal("unknown field must error")
	}
}

// TestShapeResolve: a resolved shape writes the same bytes as Build given
// the same fields, its size follows the protocol (Size only for a dynamic
// demux), and an unknown field or protocol is an error naming it.
func TestShapeResolve(t *testing.T) {
	tp := env(t)
	eth := &Shape{Proto: "ether", Size: 99, Fields: []string{"dst_lo", "type"}}
	ip := &Shape{Proto: "ipv4", Size: 20, Fields: []string{"ver", "hlen", "dst"}}
	he, err := eth.Resolve(tp)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ip.Resolve(tp)
	if err != nil {
		t.Fatal(err)
	}
	if he.Size != 14 || hi.Size != 20 {
		t.Fatalf("sizes %d, %d; want 14 (fixed), 20 (Size)", he.Size, hi.Size)
	}
	want, err := Build([]Layer{
		{Proto: tp.Protocols["ether"], Fields: []Field{{Name: "dst_lo", Value: 7}, {Name: "type", Value: 0x0800}}},
		{Proto: tp.Protocols["ipv4"], Fields: []Field{{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "dst", Value: 0x0a000001}}, Size: 20},
	}, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	he.Put(got, 0, 7, 0x0800)
	hi.Put(got, he.Size, 4, 5, 0x0a000001)
	if string(got) != string(want.Bytes()) {
		t.Fatalf("Put wrote %x, Build %x", got, want.Bytes())
	}

	var fe *FieldError
	_, err = (&Shape{Proto: "ether", Fields: []string{"type", "bogus"}}).Resolve(tp)
	if !errors.As(err, &fe) || fe.Proto != "ether" || fe.Field != "bogus" {
		t.Errorf("unknown field: %v, want a *FieldError naming ether.bogus", err)
	}
	_, err = Build([]Layer{{Proto: tp.Protocols["ether"], Fields: []Field{{Name: "bogus"}}}}, 64, 4)
	if !errors.As(err, &fe) || fe.Field != "bogus" {
		t.Errorf("Build with an unknown field: %v, want a *FieldError", err)
	}
	if _, err := (&Shape{Proto: "nosuch"}).Resolve(tp); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown protocol: %v, want an error naming it", err)
	}
	if _, err := (&Shape{Proto: "ipv4"}).Resolve(tp); err == nil {
		t.Error("dynamic header without Size resolved")
	}
}

func TestPrefixMatch(t *testing.T) {
	pf := Prefix{Addr: 0x0a010000, Len: 16, NextHop: 1}
	if !pf.Match(0x0a01ffff) || !pf.Match(0x0a010000) {
		t.Error("address inside the prefix did not match")
	}
	if pf.Match(0x0a020000) {
		t.Error("address outside the prefix matched")
	}
	if !(Prefix{Len: 0}).Match(0xdeadbeef) {
		t.Error("default route must match everything")
	}
}
