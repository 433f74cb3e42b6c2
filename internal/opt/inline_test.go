package opt_test

import (
	"fmt"
	"testing"

	"shangrila/internal/ir"
	"shangrila/internal/opt"
	"shangrila/internal/testutil"
)

// inlineShell wraps one module body: a PPF named "p" over an Ethernet
// header, with a counter global helpers may write.
const inlineShell = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
module m {
    uint drops;
    channel out_cc : ether;
%s
    wiring { rx -> p; out_cc -> tx; }
}
`

// TestInlineShapes pins what InlineAll makes of each kind of call: the
// printed PPF after inlining, captured before the inliner copied callee
// bodies through ir.Func.AppendBody and unchanged since.
func TestInlineShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		// perturb, when set, runs on the lowered program before inlining.
		perturb func(*ir.Program)
		want    string
	}{
		{name: "two value returns with a destination", body: `
    func pick(uint x) uint {
        if (x > 3) { return x + 1; }
        return 7;
    }
    ppf p(ether ph) {
        uint y = pick(ph->type);
        drops += y;
        channel_put(out_cc, ph);
    }`,
			want: `ppf m.p(%v0) {
b0:
	%v2 = pktload <ether> .type %v0 !off=?
	%v6 = mov %v2
	br b1
b1:
	%v7 = const 3
	%v8 = ltu %v7 %v6
	condbr %v8 b2 b3
b2:
	%v9 = const 1
	%v10 = add %v6 %v9
	%v3 = mov %v10
	br b4
b3:
	%v11 = const 7
	%v3 = mov %v11
	br b4
b4:
	%v1 = mov %v3
	%v4 = load @m.drops+0 _
	%v5 = add %v4 %v1
	store @m.drops+0 _ %v5
	chanput ->m.out_cc %v0
	ret
}
`},
		{name: "value return without a destination", body: `
    func pick(uint x) uint {
        if (x > 3) { return x + 1; }
        return 7;
    }
    ppf p(ether ph) {
        pick(ph->type);
        channel_put(out_cc, ph);
    }`,
			perturb: dropCallDst("m.p"),
			want: `ppf m.p(%v0) {
b0:
	%v1 = pktload <ether> .type %v0 !off=?
	%v3 = mov %v1
	br b1
b1:
	%v4 = const 3
	%v5 = ltu %v4 %v3
	condbr %v5 b2 b3
b2:
	%v6 = const 1
	%v7 = add %v3 %v6
	br b4
b3:
	%v8 = const 7
	br b4
b4:
	chanput ->m.out_cc %v0
	ret
}
`},
		{name: "void helper", body: `
    func bump(uint x) {
        if (x == 0) { return; }
        drops += x;
    }
    ppf p(ether ph) {
        bump(ph->type);
        channel_put(out_cc, ph);
    }`,
			want: `ppf m.p(%v0) {
b0:
	%v1 = pktload <ether> .type %v0 !off=?
	%v2 = mov %v1
	br b1
b1:
	%v3 = const 0
	%v4 = eq %v2 %v3
	condbr %v4 b2 b3
b2:
	br b4
b3:
	%v5 = load @m.drops+0 _
	%v6 = add %v5 %v2
	store @m.drops+0 _ %v6
	br b4
b4:
	chanput ->m.out_cc %v0
	ret
}
`},
		{name: "three parameters", body: `
    func mix(uint a, uint b, uint c) uint {
        return a + b * c;
    }
    ppf p(ether ph) {
        drops = mix(ph->type, ph->dst_hi, 5);
        channel_put(out_cc, ph);
    }`,
			want: `ppf m.p(%v0) {
b0:
	%v1 = pktload <ether> .type %v0 !off=?
	%v2 = pktload <ether> .dst_hi %v0 !off=?
	%v3 = const 5
	%v5 = mov %v1
	%v6 = mov %v2
	%v7 = mov %v3
	br b1
b1:
	%v8 = mul %v6 %v7
	%v9 = add %v5 %v8
	%v4 = mov %v9
	br b2
b2:
	store @m.drops+0 _ %v4
	chanput ->m.out_cc %v0
	ret
}
`},
		{name: "helper calling a helper", body: `
    func inner(uint x) uint {
        return x * 3;
    }
    func outer(uint x) uint {
        return inner(x) + inner(x + 1);
    }
    ppf p(ether ph) {
        drops = outer(ph->type);
        channel_put(out_cc, ph);
    }`,
			want: `ppf m.p(%v0) {
b0:
	%v1 = pktload <ether> .type %v0 !off=?
	%v3 = mov %v1
	br b1
b1:
	%v9 = mov %v3
	br b2
b2:
	%v10 = const 3
	%v11 = mul %v9 %v10
	%v4 = mov %v11
	br b3
b3:
	%v5 = const 1
	%v6 = add %v3 %v5
	%v12 = mov %v6
	br b4
b4:
	%v13 = const 3
	%v14 = mul %v12 %v13
	%v7 = mov %v14
	br b5
b5:
	%v8 = add %v4 %v7
	%v2 = mov %v8
	br b6
b6:
	store @m.drops+0 _ %v2
	chanput ->m.out_cc %v0
	ret
}
`},
		{name: "callee block IDs not positions", body: `
    func pick(uint x) uint {
        if (x > 3) { return x + 1; }
        return 7;
    }
    ppf p(ether ph) {
        uint y = pick(ph->type);
        drops += y;
        channel_put(out_cc, ph);
    }`,
			perturb: shiftBlocks("m.pick"),
			want: `ppf m.p(%v0) {
b0:
	%v2 = pktload <ether> .type %v0 !off=?
	%v6 = mov %v2
	br b1
b1:
	%v7 = const 3
	%v8 = ltu %v7 %v6
	condbr %v8 b2 b3
b2:
	%v9 = const 1
	%v10 = add %v6 %v9
	%v3 = mov %v10
	br b4
b3:
	%v11 = const 7
	%v3 = mov %v11
	br b4
b4:
	%v1 = mov %v3
	%v4 = load @m.drops+0 _
	%v5 = add %v4 %v1
	store @m.drops+0 _ %v5
	chanput ->m.out_cc %v0
	ret
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testutil.BuildIR(t, fmt.Sprintf(inlineShell, tc.body))
			if tc.perturb != nil {
				tc.perturb(p)
			}
			opt.InlineAll(p)
			if err := ir.Verify(p); err != nil {
				t.Fatal(err)
			}
			if got := p.Func("m.p").String(); got != tc.want {
				t.Errorf("inlined PPF:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// shiftBlocks puts an unreachable block in front of the named function's
// blocks, so that none of the original blocks sits at the position its ID
// names.
func shiftBlocks(name string) func(*ir.Program) {
	return func(p *ir.Program) {
		f := p.Func(name)
		dead := &ir.Block{ID: 0, Instrs: []*ir.Instr{{Op: ir.OpRet, Args: []ir.Reg{f.Params[0]}}}}
		f.Blocks = append([]*ir.Block{dead}, f.Blocks...)
	}
}

// dropCallDst takes the destination off every call in the named function,
// as when a call's value is never read.
func dropCallDst(name string) func(*ir.Program) {
	return func(p *ir.Program) {
		for _, b := range p.Func(name).Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					in.Dst = nil
				}
			}
		}
	}
}
