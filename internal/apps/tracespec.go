package apps

import (
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/packet"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// TraceSpec is the declarative traffic-mix description shared by the
// hand-written benchmark apps and generated (bakergen) programs: a list
// of cases, each able to construct one packet, selected per packet index
// by either a modulo rule or a weighted roll. Hand-written and generated
// apps alike supply source, controls, churn policy and input traffic
// through the same App struct, so a generated program is a first-class
// *App value usable by every experiment.
//
// Selection semantics (chosen to reproduce the historical per-app trace
// builders call-for-call, so the engine golden snapshots — which pin the
// PRNG sequence — stay byte-identical):
//
//  1. Modulo cases (Every > 0) are checked first, in declaration order;
//     the first with i%Every == Offset wins and consumes no randomness.
//  2. Otherwise a weighted case is chosen. If exactly one weighted case
//     exists it wins without drawing from the PRNG; with several, a
//     single r.Intn(sum of weights) roll selects by cumulative weight.
type TraceSpec struct {
	Cases []TraceCase
}

// TraceCase is one branch of a TraceSpec.
type TraceCase struct {
	// Name labels the case for feature-coverage accounting (fuzz
	// campaigns histogram which cases actually fired).
	Name string
	// Every/Offset select this case for packet indices i with
	// i%Every == Offset (modulo case). Zero Every means the case is
	// weighted instead.
	Every  int
	Offset int
	// Weight is the selection weight among the weighted cases.
	Weight int
	// Build constructs the packet for index i through g. It may draw from
	// r; the sequence of draws is part of the app's deterministic identity.
	Build func(g *Gen, r *workload.Source, i int) *packet.Packet
}

// Gen is one trace's generation context: the program's types, the headers
// the cases write, each resolved on first use, and the arena every packet
// is carved from. GenerateCounted makes one per trace, so traces generated
// in parallel share nothing.
type Gen struct {
	tp      *types.Program
	arena   *packet.Arena
	headers map[*trace.Shape]*trace.Header
}

// frameLen is the size of the packets the hand-written apps generate
// (minimum-size frames), which sizes a trace's arena.
const frameLen = 64

func newGen(tp *types.Program, n int) *Gen {
	return &Gen{
		tp:      tp,
		arena:   packet.NewArena(n, frameLen, tp.Metadata.Bytes),
		headers: make(map[*trace.Shape]*trace.Header),
	}
}

// Header returns s resolved against the trace's program. A shape the
// program cannot resolve is a malformed spec, and panics.
func (g *Gen) Header(s *trace.Shape) *trace.Header {
	h, ok := g.headers[s]
	if !ok {
		var err error
		if h, err = s.Resolve(g.tp); err != nil {
			panic(err)
		}
		g.headers[s] = h
	}
	return h
}

// Packet returns a zeroed packet of length bytes with the program's
// metadata record, carved from the trace's arena.
func (g *Gen) Packet(length int) *packet.Packet {
	return g.arena.NewZero(length, g.tp.Metadata.Bytes)
}

// Generate produces n packets from the spec using a seeded SplitMix64
// source. It panics on a malformed spec (no case applicable to some
// index), matching the historical builders which panicked on internal
// trace errors.
func (s TraceSpec) Generate(tp *types.Program, seed uint64, n int) []*packet.Packet {
	out, _ := s.GenerateCounted(tp, seed, n)
	return out
}

// GenerateCounted is Generate plus an exact per-case histogram keyed by
// case name — the feature-coverage view fuzz campaigns aggregate across
// programs.
func (s TraceSpec) GenerateCounted(tp *types.Program, seed uint64, n int) ([]*packet.Packet, map[string]int) {
	r := workload.NewSource(seed)
	var weighted []TraceCase
	total := 0
	for _, c := range s.Cases {
		if c.Every <= 0 {
			weighted = append(weighted, c)
			total += c.Weight
		}
	}
	out := make([]*packet.Packet, 0, n)
	counts := make(map[string]int)
	g := newGen(tp, n)
	for i := 0; i < n; i++ {
		c, ok := s.pick(weighted, total, r, i)
		if !ok {
			panic(fmt.Sprintf("apps: TraceSpec has no case for packet index %d", i))
		}
		counts[c.Name]++
		out = append(out, c.Build(g, r, i))
	}
	return out, counts
}

// pick selects the case for packet index i, drawing at most one roll.
func (s TraceSpec) pick(weighted []TraceCase, total int, r *workload.Source, i int) (TraceCase, bool) {
	for _, c := range s.Cases {
		if c.Every > 0 && i%c.Every == c.Offset {
			return c, true
		}
	}
	switch {
	case len(weighted) == 1:
		return weighted[0], true
	case len(weighted) > 1:
		roll := r.Intn(total)
		acc := 0
		for _, c := range weighted {
			acc += c.Weight
			if roll < acc {
				return c, true
			}
		}
	}
	return TraceCase{}, false
}
