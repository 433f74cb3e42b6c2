// Package bakergen generates random-but-valid Baker programs for
// metamorphic compiler fuzzing. A seeded generator (NewSpec) draws a
// JSON-serializable program Spec — protocol layouts, a PPF pipeline with
// channel wiring, metadata hand-off, table-driven control functions,
// optional dynamic-demux layers, MPLS-style label-stack loops that drive
// SOAR to lattice bottom, and header pushes that grow the packet front —
// and Build renders it into a first-class apps.App: Baker source, the
// control-plane calls that populate its table, and a TraceSpec producing
// packets the program can parse.
//
// The fuzzing oracle is differential: a generated program has no
// hand-written expected output; instead the harness requires every
// optimization level to transmit exactly the frames the host reference
// interpreter produces (harness.DifferentialWith). To make that comparison
// sound under out-of-order ME completion, generated programs are
// engineered so per-packet output is independent of cross-packet state:
// every injected packet carries a unique 32-bit seq field (so frames are
// pairwise distinct) and module globals are either runtime-read-only
// tables or write-only counters that never feed back into packet bytes.
//
// Specs survive JSON round trips, which is what the checked-in
// fuzz-corpus regression files, the delta-debugging minimizer and the
// fuzz report all rely on.
package bakergen

import "encoding/json"

// Field is one bit field of a generated protocol.
type Field struct {
	Name string `json:"name"`
	Bits int    `json:"bits"`
}

// Proto is a generated protocol header: named bit fields whose widths sum
// to whole 32-bit words. With DynDemux the header carries its size in its
// leading 8-bit "hl" field and declares `demux { hl << 2 }` (the IPv4
// idiom), exercising the compiler's dynamic-demux path; otherwise the
// demux is the constant byte size.
type Proto struct {
	Name     string  `json:"name"`
	Fields   []Field `json:"fields"`
	DynDemux bool    `json:"dyn_demux,omitempty"`
}

// SizeBytes returns the header size implied by the field widths.
func (p *Proto) SizeBytes() int {
	bits := 0
	for _, f := range p.Fields {
		bits += f.Bits
	}
	return bits / 8
}

// Field returns the named field, or nil.
func (p *Proto) Field(name string) *Field {
	for i := range p.Fields {
		if p.Fields[i].Name == name {
			return &p.Fields[i]
		}
	}
	return nil
}

// StackSpec adds an MPLS-style header stack: packets carry 1..MaxDepth
// shim headers (the last with its trailing "s" byte set), popped by a
// self-looping PPF — the channel join across loop iterations is exactly
// what drives SOAR's offset lattice to bottom.
type StackSpec struct {
	Shim     Proto `json:"shim"`
	MaxDepth int   `json:"max_depth"`
}

// Op is one statement of a generated stage body.
//
// Work-stage kinds:
//
//	counter  — increment the stage's write-only global counter
//	rewrite  — ph->Field = ph->Src + Imm
//	table    — ph->meta.next_hop = tbl[ph->Src & mask]
//	metaput  — ph->meta.flow_id = ph->Src
//	metaget  — ph->Field = ph->meta.flow_id
//	dropif   — guard: if ((ph->Field & Imm) == Imm) drop, else run the
//	           rest of the stage (at most one per stage, always first)
//
// Push-stage kind:
//
//	pushwrite — write the pushed header's Field from Imm, plus the
//	            pre-encap value of Src when Src is set (the value is
//	            captured into a local before packet_encap releases the
//	            inner handle)
type Op struct {
	Kind  string `json:"kind"`
	Field string `json:"field,omitempty"`
	Src   string `json:"src,omitempty"`
	Imm   uint32 `json:"imm,omitempty"`
}

// Stage is one pipeline PPF. A nil Push is a work stage operating on the
// current packet view; a non-nil Push encapsulates that protocol (moving
// the packet head toward — possibly past — the packet front) and hands
// the new view downstream.
type Stage struct {
	Name string `json:"name"`
	Push *Proto `json:"push,omitempty"`
	Ops  []Op   `json:"ops"`
}

// Spec is a complete generated program description. The packet layout it
// implies, outermost first: Base, then Mid (when present), then 1..
// Stack.MaxDepth shims (when present), then Inner, then Payload bytes.
// The pipeline classifies/pops down to the Inner view, runs Stages in
// order, and a sink sets tx_port and transmits.
type Spec struct {
	Seed    uint64     `json:"seed"`
	Base    Proto      `json:"base"`
	Mid     *Proto     `json:"mid,omitempty"`
	Stack   *StackSpec `json:"stack,omitempty"`
	Inner   Proto      `json:"inner"`
	Stages  []Stage    `json:"stages"`
	Table   []uint32   `json:"table"`
	Payload int        `json:"payload"`
	// Invalid, when non-empty, makes Source emit a program with one
	// deliberate defect of the named class (see InvalidClasses) for
	// negative frontend testing.
	Invalid string `json:"invalid,omitempty"`
}

// Clone returns a deep copy (specs are plain data; the JSON round trip is
// the simplest faithful copy).
func (s *Spec) Clone() *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic("bakergen: spec not serializable: " + err.Error())
	}
	var c Spec
	if err := json.Unmarshal(b, &c); err != nil {
		panic("bakergen: spec round trip: " + err.Error())
	}
	return &c
}

// views returns the pipeline view chain: views[i] is the protocol stage i
// operates on, and the final element is the sink's view.
func (s *Spec) views() []Proto {
	out := make([]Proto, 0, len(s.Stages)+1)
	cur := s.Inner
	for _, st := range s.Stages {
		out = append(out, cur)
		if st.Push != nil {
			cur = *st.Push
		}
	}
	return append(out, cur)
}

// Features returns the spec's feature-coverage contribution: structural
// features and op kinds, the histogram fuzz campaigns aggregate to show
// what the generated population actually exercised.
func (s *Spec) Features() map[string]int {
	f := map[string]int{"program": 1}
	if s.Mid != nil {
		f["mid-dyndemux"]++
	}
	decapMin := s.Base.SizeBytes()
	if s.Mid != nil {
		decapMin += s.Mid.SizeBytes()
	}
	if s.Stack != nil {
		f["stack"]++
		f["stack-depth-max"] += s.Stack.MaxDepth
		decapMin += s.Stack.Shim.SizeBytes()
	}
	pushBytes := 0
	for _, st := range s.Stages {
		if st.Push != nil {
			f["push"]++
			pushBytes += st.Push.SizeBytes()
		} else {
			f["work"]++
		}
		for _, op := range st.Ops {
			f["op-"+op.Kind]++
		}
	}
	// A push chain deeper than the already-popped headers moves the head
	// in front of the original packet start — the negative-offset regime
	// for PAC clustering and SOAR's encap transfer.
	if pushBytes > decapMin {
		f["front-growth"]++
	}
	return f
}
