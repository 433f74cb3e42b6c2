package bakergen

import (
	"fmt"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// module is the generated module name; control-plane calls are qualified
// with it ("fz.set_tbl").
const module = "fz"

// Source renders the spec as Baker program text. For valid specs the
// result must compile at every optimization level — the generator
// validity tests pin that; a non-empty Invalid class plants exactly one
// frontend defect of that class instead.
func (s *Spec) Source() string {
	var b strings.Builder
	emitProto(&b, &s.Base, s.Invalid == "dup-field")
	if s.Mid != nil {
		emitProto(&b, s.Mid, false)
	}
	if s.Stack != nil {
		emitProto(&b, &s.Stack.Shim, false)
	}
	for i := range s.Stages {
		if p := s.Stages[i].Push; p != nil {
			emitProto(&b, p, false)
		}
	}
	emitProto(&b, &s.Inner, false)
	b.WriteString("metadata {\n    rx_port  : 8;\n    tx_port  : 8;\n    next_hop : 16;\n    flow_id  : 16;\n}\n\n")

	views := s.views()
	sink := views[len(views)-1]
	fmt.Fprintf(&b, "module %s {\n", module)
	fmt.Fprintf(&b, "    uint tbl[%d];\n    uint drops;\n", len(s.Table))
	for i := range s.Stages {
		fmt.Fprintf(&b, "    uint k%d;\n", i)
	}
	// Channels, in pipeline order.
	if s.Mid != nil {
		fmt.Fprintf(&b, "    channel m_cc : %s;\n", s.Mid.Name)
	}
	if s.Stack != nil {
		fmt.Fprintf(&b, "    channel sk_cc : %s;\n", s.Stack.Shim.Name)
	}
	for i, v := range views[:len(views)-1] {
		fmt.Fprintf(&b, "    channel w%d_cc : %s;\n", i, v.Name)
	}
	fmt.Fprintf(&b, "    channel z_cc : %s;\n", sink.Name)
	outProto := sink.Name
	if s.Invalid == "chan-type" {
		outProto = s.Base.Name
	}
	fmt.Fprintf(&b, "    channel out_cc : %s;\n\n", outProto)

	s.emitClassify(&b)
	if s.Mid != nil {
		s.emitPopMid(&b)
	}
	if s.Stack != nil {
		s.emitPopper(&b)
	}
	for i := range s.Stages {
		s.emitStage(&b, i, &views[i])
	}
	s.emitSink(&b, &sink)

	tblGlobal := "tbl"
	if s.Invalid == "control-global" {
		tblGlobal = "zz_missing"
	}
	fmt.Fprintf(&b, "    control func set_tbl(uint i, uint v) {\n        %s[i & %d] = v;\n    }\n\n",
		tblGlobal, len(s.Table)-1)

	b.WriteString("    wiring {\n        rx -> classify;\n")
	if s.Mid != nil {
		b.WriteString("        m_cc -> popmid;\n")
	}
	if s.Stack != nil {
		b.WriteString("        sk_cc -> popper;\n")
	}
	for i := range s.Stages {
		fmt.Fprintf(&b, "        w%d_cc -> %s;\n", i, s.Stages[i].Name)
	}
	b.WriteString("        z_cc -> sink;\n")
	if s.Invalid == "wiring" {
		b.WriteString("        bogus_cc -> sink;\n")
	}
	b.WriteString("        out_cc -> tx;\n    }\n")
	if s.Invalid != "syntax" {
		b.WriteString("}\n")
	}
	return b.String()
}

func emitProto(b *strings.Builder, p *Proto, dupField bool) {
	fmt.Fprintf(b, "protocol %s {\n", p.Name)
	for i, f := range p.Fields {
		name := f.Name
		if dupField && i == 1 {
			name = p.Fields[0].Name
		}
		fmt.Fprintf(b, "    %s : %d;\n", name, f.Bits)
	}
	if p.DynDemux {
		b.WriteString("    demux { hl << 2 };\n")
	} else {
		fmt.Fprintf(b, "    demux { %d };\n", p.SizeBytes())
	}
	b.WriteString("}\n\n")
}

// decapTarget returns the layer under Base and the channel carrying it.
func (s *Spec) decapTarget() (proto, chan_ string) {
	switch {
	case s.Mid != nil:
		return s.Mid.Name, "m_cc"
	case s.Stack != nil:
		return s.Stack.Shim.Name, "sk_cc"
	default:
		return s.Inner.Name, "w0_cc"
	}
}

// innerChan is the channel feeding the first stage (or the sink when the
// minimizer removed every stage).
func (s *Spec) innerChan() string {
	if len(s.Stages) > 0 {
		return "w0_cc"
	}
	return "z_cc"
}

func (s *Spec) emitClassify(b *strings.Builder) {
	proto, cc := s.decapTarget()
	if proto == s.Inner.Name {
		cc = s.innerChan()
	}
	fmt.Fprintf(b, "    ppf classify(%s ph) {\n", s.Base.Name)
	// Metadata hand-off from the outermost header: the low bits of seq
	// ride the per-packet flow_id down the pipeline.
	b.WriteString("        ph->meta.flow_id = ph->seq & 0xffff;\n")
	fmt.Fprintf(b, "        %s nh = packet_decap(ph);\n        channel_put(%s, nh);\n    }\n\n", proto, cc)
}

func (s *Spec) emitPopMid(b *strings.Builder) {
	proto, cc := s.Inner.Name, s.innerChan()
	if s.Stack != nil {
		proto, cc = s.Stack.Shim.Name, "sk_cc"
	}
	fmt.Fprintf(b, "    ppf popmid(%s ph) {\n", s.Mid.Name)
	fmt.Fprintf(b, "        %s nh = packet_decap(ph);\n        channel_put(%s, nh);\n    }\n\n", proto, cc)
}

// emitPopper emits the self-looping stack pop: offsets differ per loop
// iteration, so the join over sk_cc's producers drives SOAR to bottom.
func (s *Spec) emitPopper(b *strings.Builder) {
	shim := s.Stack.Shim.Name
	fmt.Fprintf(b, "    ppf popper(%s ph) {\n", shim)
	fmt.Fprintf(b, "        if (ph->s == 1) {\n")
	fmt.Fprintf(b, "            %s ih = packet_decap(ph);\n            channel_put(%s, ih);\n", s.Inner.Name, s.innerChan())
	fmt.Fprintf(b, "        } else {\n")
	fmt.Fprintf(b, "            %s nh = packet_decap(ph);\n            channel_put(sk_cc, nh);\n", shim)
	fmt.Fprintf(b, "        }\n    }\n\n")
}

// nextChan names the channel a stage forwards into.
func (s *Spec) nextChan(i int) string {
	if i+1 < len(s.Stages) {
		return fmt.Sprintf("w%d_cc", i+1)
	}
	return "z_cc"
}

func (s *Spec) emitStage(b *strings.Builder, i int, view *Proto) {
	st := &s.Stages[i]
	fmt.Fprintf(b, "    ppf %s(%s ph) {\n", st.Name, view.Name)
	if st.Push != nil {
		s.emitPushBody(b, i, st, view)
	} else {
		s.emitWorkBody(b, i, st, view)
	}
	b.WriteString("    }\n\n")
}

func (s *Spec) emitWorkBody(b *strings.Builder, i int, st *Stage, view *Proto) {
	indent := "        "
	ops := st.Ops
	if len(ops) > 0 && ops[0].Kind == "dropif" {
		imm := maskImm(ops[0].Imm, view.Field(ops[0].Field))
		fmt.Fprintf(b, "%sif ((ph->%s & %d) == %d) {\n", indent, ops[0].Field, imm, imm)
		fmt.Fprintf(b, "%s    drops += 1;\n%s    packet_drop(ph);\n%s} else {\n", indent, indent, indent)
		defer fmt.Fprintf(b, "%s}\n", indent)
		indent += "    "
		ops = ops[1:]
	}
	for _, op := range ops {
		switch op.Kind {
		case "counter":
			fmt.Fprintf(b, "%sk%d += 1;\n", indent, i)
		case "rewrite":
			fmt.Fprintf(b, "%sph->%s = ph->%s + %d;\n", indent, op.Field, op.Src, op.Imm)
		case "table":
			fmt.Fprintf(b, "%sph->meta.next_hop = tbl[ph->%s & %d];\n", indent, op.Src, len(s.Table)-1)
		case "metaput":
			fmt.Fprintf(b, "%sph->meta.flow_id = ph->%s;\n", indent, op.Src)
		case "metaget":
			fmt.Fprintf(b, "%sph->%s = ph->meta.flow_id;\n", indent, op.Field)
		}
	}
	fmt.Fprintf(b, "%schannel_put(%s, ph);\n", indent, s.nextChan(i))
}

// emitPushBody captures pre-encap source values into locals, encapsulates
// (releasing ph), then writes the pushed header — the ler_impose shape
// whose combined post-encap stores exercise PAC and SOAR front growth.
func (s *Spec) emitPushBody(b *strings.Builder, i int, st *Stage, view *Proto) {
	locals := map[string]string{} // src field -> local name
	for _, op := range st.Ops {
		if op.Src != "" {
			if _, ok := locals[op.Src]; !ok {
				l := fmt.Sprintf("x%d", len(locals))
				locals[op.Src] = l
				fmt.Fprintf(b, "        uint %s = ph->%s;\n", l, op.Src)
			}
		}
	}
	fmt.Fprintf(b, "        k%d += 1;\n", i)
	fmt.Fprintf(b, "        %s sh = packet_encap(ph);\n", st.Push.Name)
	for _, op := range st.Ops {
		if op.Src != "" {
			fmt.Fprintf(b, "        sh->%s = %s + %d;\n", op.Field, locals[op.Src], op.Imm)
		} else {
			fmt.Fprintf(b, "        sh->%s = %d;\n", op.Field, op.Imm)
		}
	}
	fmt.Fprintf(b, "        channel_put(%s, sh);\n", s.nextChan(i))
}

func (s *Spec) emitSink(b *strings.Builder, view *Proto) {
	fmt.Fprintf(b, "    ppf sink(%s ph) {\n", view.Name)
	if s.Invalid == "unknown-field" {
		b.WriteString("        ph->meta.flow_id = ph->zz_missing;\n")
	}
	fmt.Fprintf(b, "        ph->meta.tx_port = tbl[ph->%s & %d] & 3;\n",
		view.Fields[0].Name, len(s.Table)-1)
	b.WriteString("        channel_put(out_cc, ph);\n    }\n\n")
}

// maskImm clamps an immediate into the field's width so dropif guards
// stay satisfiable; a masked-to-zero guard would never drop, so keep at
// least one bit.
func maskImm(imm uint32, f *Field) uint32 {
	if f == nil || f.Bits >= 32 {
		return imm
	}
	m := imm & (1<<uint(f.Bits) - 1)
	if m == 0 {
		m = 1
	}
	return m
}

// Build renders the spec into a first-class application: source, the
// control-plane calls populating its table, and the traffic generator.
// Invalid specs still build (their defect surfaces as a compile error).
func (s *Spec) Build() *apps.App {
	controls := make([]profiler.Control, len(s.Table))
	for i, v := range s.Table {
		controls[i] = profiler.Control{Name: module + ".set_tbl", Args: []uint32{uint32(i), v}}
	}
	return &apps.App{
		Name:     fmt.Sprintf("fuzz-%d", s.Seed),
		Source:   s.Source(),
		Controls: controls,
		Traffic:  s.traceSpec(),
	}
}

// traceSpec builds the single-case traffic generator: every packet is the
// spec's layer stack with random field values, a unique seq, and (when a
// stack is present) a varying shim depth.
func (s *Spec) traceSpec() apps.TraceSpec {
	spec := s.Clone() // detach from later mutation by the minimizer
	base, inner := spec.Base.shape(), spec.Inner.shape()
	var mid, shim *trace.Shape
	if spec.Mid != nil {
		mid = spec.Mid.shape()
	}
	if spec.Stack != nil {
		shim = spec.Stack.Shim.shape()
	}
	return apps.TraceSpec{Cases: []apps.TraceCase{{
		Name: "fuzz", Weight: 1,
		Build: func(g *apps.Gen, r *workload.Source, i int) *packet.Packet {
			// The packet's length depends on the stack depth, drawn after
			// the outer headers' values, so every header's values are drawn
			// first and wait in vals, in header order.
			var valBuf [64]uint32
			var layerBuf [8]*trace.Shape
			seq := uint32(i)
			vals := spec.Base.draw(valBuf[:0], r, "seq", seq)
			layers := append(layerBuf[:0], base)
			if spec.Mid != nil {
				vals = spec.Mid.draw(vals, r, "hl", uint32(spec.Mid.SizeBytes()/4))
				layers = append(layers, mid)
			}
			if spec.Stack != nil {
				depth := 1 + r.Intn(spec.Stack.MaxDepth)
				for d := 0; d < depth; d++ {
					bos := uint32(0)
					if d == depth-1 {
						bos = 1
					}
					vals = spec.Stack.Shim.draw(vals, r, "s", bos)
					layers = append(layers, shim)
				}
			}
			vals = spec.Inner.draw(vals, r, "seq", seq)
			layers = append(layers, inner)
			hdr := 0
			for _, l := range layers {
				hdr += g.Header(l).Size
			}
			p := g.Packet(hdr + spec.Payload)
			w := p.Bytes()
			at := 0
			for _, l := range layers {
				h := g.Header(l)
				h.Put(w, at, vals[:len(l.Fields)]...)
				vals = vals[len(l.Fields):]
				at += h.Size
			}
			for b := hdr; b < hdr+spec.Payload; b++ {
				w[b] = byte(r.Uint32())
			}
			p.Port = uint32(r.Intn(3))
			return p
		},
	}}}
}

// shape is the header shape of p that its trace writes: every field, in
// p.Fields order.
func (p *Proto) shape() *trace.Shape {
	names := make([]string, len(p.Fields))
	for i, f := range p.Fields {
		names[i] = f.Name
	}
	return &trace.Shape{Proto: p.Name, Size: p.SizeBytes(), Fields: names}
}

// draw appends the values of one header to vals in p.Fields order, which
// is also the order of its draws: the forced field as given, every other
// field uniformly random in its width.
func (p *Proto) draw(vals []uint32, r *workload.Source, forced string, v uint32) []uint32 {
	for _, f := range p.Fields {
		if f.Name == forced {
			vals = append(vals, v)
			continue
		}
		mask := uint32(1)<<uint(f.Bits) - 1
		if f.Bits >= 32 {
			mask = ^uint32(0)
		}
		vals = append(vals, r.Uint32()&mask)
	}
	return vals
}
