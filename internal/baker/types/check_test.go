package types

import (
	"strings"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/token"
)

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := parser.Parse("test.baker", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tp, err := Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return tp
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	prog, err := parser.Parse("test.baker", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(prog)
	if err == nil {
		t.Fatalf("expected check error containing %q, got none", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSub)
	}
}

const header = `
protocol ether {
    dst_hi : 16; dst_lo : 32;
    src_hi : 16; src_lo : 32;
    type : 16;
    demux { 14 };
}
protocol ipv4 {
    ver : 4; hlen : 4; tos : 8; length : 16;
    id : 16; flags : 3; frag : 13;
    ttl : 8; proto : 8; cksum : 16;
    src : 32; dst : 32;
    demux { hlen << 2 };
}
metadata { rx_port : 16; next_hop : 16; }
const ETH_IP = 0x0800;
`

func TestProtocolLayout(t *testing.T) {
	p := mustCheck(t, header+`module m { ppf f(ether ph){ packet_drop(ph); } wiring { rx -> f; } }`)
	eth := p.Protocols["ether"]
	if eth == nil {
		t.Fatal("no ether protocol")
	}
	if eth.FixedSize != 14 {
		t.Errorf("ether size = %d, want 14", eth.FixedSize)
	}
	f := eth.Field("type")
	if f == nil || f.BitOff != 96 || f.Bits != 16 {
		t.Errorf("type field = %+v, want off 96 bits 16", f)
	}
	ip := p.Protocols["ipv4"]
	if ip.FixedSize != -1 {
		t.Errorf("ipv4 should be dynamic, got %d", ip.FixedSize)
	}
	if ip.HeaderMin != 20 {
		t.Errorf("ipv4 min header = %d, want 20", ip.HeaderMin)
	}
	if d := ip.Field("dst"); d == nil || d.BitOff != 128 {
		t.Errorf("ipv4 dst = %+v, want bitoff 128", d)
	}
	lo, hi := ip.Field("flags").ByteSpan()
	if lo != 6 || hi != 7 {
		t.Errorf("flags span = [%d,%d), want [6,7)", lo, hi)
	}
}

func TestMetadataLayout(t *testing.T) {
	p := mustCheck(t, header+`module m { ppf f(ether ph){ packet_drop(ph); } wiring { rx -> f; } }`)
	md := p.Metadata
	if md.Bytes != 4 {
		t.Errorf("metadata bytes = %d, want 4", md.Bytes)
	}
	if f := md.Field("next_hop"); f == nil || f.BitOff != 16 {
		t.Errorf("next_hop = %+v", f)
	}
}

func TestStructLayout(t *testing.T) {
	p := mustCheck(t, header+`module m {
		struct Node { a : uint; b : int; c : uint; }
		Node nodes[8];
		ppf f(ether ph){ nodes[0].b = 1; packet_drop(ph); }
		wiring { rx -> f; }
	}`)
	s := p.Structs["Node"]
	if s.Size != 12 {
		t.Errorf("Node size = %d, want 12", s.Size)
	}
	if f := s.Field("c"); f == nil || f.Offset != 8 {
		t.Errorf("c offset = %+v, want 8", f)
	}
	g := p.Globals["m.nodes"]
	if g == nil || g.Type.SizeBytes() != 96 {
		t.Errorf("nodes global = %+v", g)
	}
}

func TestConstEval(t *testing.T) {
	p := mustCheck(t, `
const A = 4;
const B = A * 2 + 1;
const C = (B << 4) | 0xf;
protocol p { x : 32; demux { 4 }; }
module m { uint t[B]; ppf f(p ph){ packet_drop(ph); } wiring { rx -> f; } }`)
	if p.Consts["B"] != 9 {
		t.Errorf("B = %d, want 9", p.Consts["B"])
	}
	if p.Consts["C"] != (9<<4)|0xf {
		t.Errorf("C = %d", p.Consts["C"])
	}
	if arr := p.Globals["m.t"].Type.(*Array); arr.Len != 9 {
		t.Errorf("t len = %d, want 9", arr.Len)
	}
}

func TestHandleInference(t *testing.T) {
	p := mustCheck(t, header+`module m {
		channel out : ipv4;
		ppf f(ether ph) {
			if (ph->type == ETH_IP) {
				ipv4 iph = packet_decap(ph);
				channel_put(out, iph);
			} else { packet_drop(ph); }
		}
		ppf g(ipv4 ph) {
			ether eph = packet_encap(ph);
			packet_drop(eph);
		}
		wiring { rx -> f; out -> g; }
	}`)
	// HandleProto must record both decap->ipv4 and encap->ether.
	protos := map[string]bool{}
	for _, pr := range p.Info.HandleProto {
		protos[pr.Name] = true
	}
	if !protos["ipv4"] || !protos["ether"] {
		t.Errorf("HandleProto = %v, want ipv4 and ether", protos)
	}
}

func TestEntryAndWiring(t *testing.T) {
	p := mustCheck(t, header+`module m {
		channel c1 : ipv4;
		channel c2 : ether;
		ppf a(ether ph) { ipv4 x = packet_decap(ph); channel_put(c1, x); }
		ppf b(ipv4 ph) { ether e = packet_encap(ph); channel_put(c2, e); }
		wiring { rx -> a; c1 -> b; c2 -> tx; }
	}`)
	if p.Entry == nil || p.Entry.Name != "m.a" {
		t.Fatalf("entry = %v, want m.a", p.Entry)
	}
	if p.Channels["m.c1"].Consumer != "m.b" {
		t.Errorf("c1 consumer = %q", p.Channels["m.c1"].Consumer)
	}
	if p.Channels["m.c2"].Consumer != "tx" {
		t.Errorf("c2 consumer = %q", p.Channels["m.c2"].Consumer)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{header + `module m { ppf f(ether ph){ uint x = ph->nosuch; packet_drop(ph);} wiring { rx -> f; } }`,
			"no field"},
		{header + `module m { ppf f(ether ph){ uint x = ph->meta.bogus; packet_drop(ph);} wiring { rx -> f; } }`,
			"metadata field"},
		{header + `module m { ppf f(ether ph){ packet_drop(ph); } }`, "no rx wiring"},
		{header + `module m { channel c : ipv4; ppf f(ether ph){ packet_drop(ph); } wiring { rx -> f; } }`,
			"no consumer"},
		{header + `module m { channel c : ipv4; ppf f(ether ph){ channel_put(c, ph); } wiring { rx -> f; c -> tx; } }`,
			"carries"},
		{header + `module m { func a() { b(); } func b() { a(); } ppf f(ether ph){ packet_drop(ph);} wiring { rx -> f; } }`,
			"recursion"},
		{header + `module m { ppf f(ether ph){ uint x = packet_decap(ph); } wiring { rx -> f; } }`,
			"inferred"},
		{header + `module m { ppf f(ether ph, uint x){ packet_drop(ph); } wiring { rx -> f; } }`,
			"exactly one"},
		{header + `module m { ppf f(ether ph){ undefined_fn(ph); } wiring { rx -> f; } }`,
			"undefined function"},
		{header + `module m { ppf f(ether ph){ uint y = z; packet_drop(ph); } wiring { rx -> f; } }`,
			"undefined"},
		{`protocol wide { big : 48; demux { 6 }; }
		  module m { ppf f(wide ph){ uint x = ph->big; packet_drop(ph); } wiring { rx -> f; } }`,
			"direct access is limited"},
		{header + `module m { ether keep; ppf f(ether ph){ packet_drop(ph); } wiring { rx -> f; } }`,
			"cannot be stored"},
		{header + `module m { ppf f(ether ph){ 3 = 4; packet_drop(ph); } wiring { rx -> f; } }`,
			"not assignable"},
	}
	for i, tc := range cases {
		t.Run(tc.want, func(t *testing.T) {
			checkErr(t, tc.src, tc.want)
			_ = i
		})
	}
}

func TestRecursionSelfCall(t *testing.T) {
	checkErr(t, header+`module m {
		func fact(uint n) uint { if (n == 0) { return 1; } return n * fact(n - 1); }
		ppf f(ether ph){ uint x = fact(3); packet_drop(ph); }
		wiring { rx -> f; }
	}`, "recursion")
}

func TestWideFieldDeclaredButNotAccessedOK(t *testing.T) {
	mustCheck(t, `
protocol tunnel { hdr : 64; small : 16; demux { 10 }; }
module m { ppf f(tunnel ph){ uint x = ph->small; packet_drop(ph); } wiring { rx -> f; } }`)
}

func TestPPFsOrder(t *testing.T) {
	p := mustCheck(t, header+`module m {
		channel c : ipv4;
		ppf z(ether ph) { ipv4 x = packet_decap(ph); channel_put(c, x); }
		ppf a(ipv4 ph) { packet_drop(ph); }
		wiring { rx -> z; c -> a; }
	}`)
	ppfs := p.PPFs()
	if len(ppfs) != 2 || ppfs[0].Name != "m.z" || ppfs[1].Name != "m.a" {
		t.Errorf("PPFs order: %v", ppfs)
	}
	if ppfs[1].InProto.Name != "ipv4" {
		t.Errorf("a input proto = %v", ppfs[1].InProto)
	}
}

// TestDemuxResolved: the checker resolves a demux that reads a field into
// a Demux tree (fields bound to the protocol's ProtoField, named constants
// to their values) with FixedSize -1, folds one that reads none into
// FixedSize, and refuses what no layer could compute alike, at its
// position.
func TestDemuxResolved(t *testing.T) {
	const body = `module m { ppf f(p ph){ packet_drop(ph); } wiring { rx -> f; } }`
	tp := mustCheck(t, `const SHIFT = 2;
protocol p { hl : 8; rest : 24; demux { (hl << SHIFT) - ~0xff }; }
`+body)
	p := tp.Protocols["p"]
	d := p.Demux
	if p.FixedSize != -1 || d == nil || d.Op != token.SUB ||
		d.X.Op != token.SHL || d.X.X.Field != p.Field("hl") || d.X.Y.X != nil || d.X.Y.Value != 2 ||
		d.Y.Op != token.NOT || d.Y.X.Value != 0xff || d.Y.Y != nil {
		t.Fatalf("resolved demux %+v, FixedSize %d", d, p.FixedSize)
	}
	hl := uint32(5)
	if v, err := d.Eval(func(*ProtoField) (uint32, error) { return hl, nil }); err != nil || v != hl<<2-^uint32(0xff) {
		t.Errorf("Eval = %d, %v", v, err)
	}
	if d.Span() != 1 || p.Size() != p.HeaderMin {
		t.Errorf("Span %d, Size %d; want 1 and the minimum %d", d.Span(), p.Size(), p.HeaderMin)
	}

	tp = mustCheck(t, `const W = 3; protocol p { x : 32; demux { W * 2 - 2 }; }
`+body)
	if p := tp.Protocols["p"]; p.FixedSize != 4 || p.Demux != nil || p.Size() != 4 {
		t.Errorf("constant demux: FixedSize %d, Demux %v", p.FixedSize, p.Demux)
	}

	for _, tc := range []struct{ demux, want string }{
		{"x % 4", `test.baker:1:32: protocol "p" demux operator % is not allowed`},
		{"-(!x)", `test.baker:1:32: protocol "p" demux operator ! is not allowed`},
		{"16 / 4", `test.baker:1:33: protocol "p" demux operator / is not allowed`},
		{"x + y", `test.baker:1:34: protocol "p" demux must use only constants and fields`},
		{"4294967296", `test.baker:1:30: protocol "p" demux constant 4294967296 exceeds 32 bits`},
		{"2", `protocol "p" demux size 2 is smaller than its 4 bytes of fields`},
	} {
		checkErr(t, `protocol p { x : 32; demux { `+tc.demux+` }; }
`+body, tc.want)
	}
}

// TestConstantDivisionByZero: a constant / or % by zero is refused by a
// language rule, at its operator, though the word ops give 0 for it.
func TestConstantDivisionByZero(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`const X = 4 / 0;`, `x.baker:1:13: division by zero in constant expression`},
		{`module m { uint a[4 % 0]; }`, `x.baker:1:21: division by zero in constant expression`},
	} {
		prog, err := parser.Parse("x.baker", tc.src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Check(prog); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.src, err, tc.want)
		}
	}
}
