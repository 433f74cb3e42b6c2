// Package testutil provides shared helpers for compiler tests: building IR
// from Baker source and differentially testing optimization passes by
// executing programs before and after a transform and comparing every
// transmitted packet.
package testutil

import (
	"bytes"
	"fmt"
	"testing"

	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/lower"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// BuildIR parses, checks and lowers src, failing the test on any error.
func BuildIR(t testing.TB, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("test.baker", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tp, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	p, err := lower.Lower(tp)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// Outcome captures the externally visible behaviour of one program run:
// transmitted packet bytes (in order, with exit channel and metadata) and
// final drop count.
type Outcome struct {
	Tx      []TxRecord
	Dropped uint64
}

// TxRecord is one transmitted packet.
type TxRecord struct {
	Chan  string
	Bytes []byte
	Meta  []byte
	Head  int
}

// Execute runs prog over the packets produced by gen (one fresh trace per
// call so mutation cannot leak between runs) and returns the outcome.
// Control functions in controls are invoked before packets flow.
func Execute(t testing.TB, prog *ir.Program, gen func(tp *types.Program) []*packet.Packet,
	controls [][]any) Outcome {
	t.Helper()
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	boot := make([]profiler.Control, len(controls))
	for i, c := range controls {
		boot[i].Name = c[0].(string)
		for _, a := range c[1:] {
			boot[i].Args = append(boot[i].Args, toU32(a))
		}
	}
	if err := s.Boot(boot); err != nil {
		t.Fatal(err)
	}
	for _, p := range gen(prog.Types) {
		if err := s.Inject(p); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
	out := Outcome{Dropped: s.Stats.Dropped}
	for _, o := range s.Out {
		out.Tx = append(out.Tx, TxRecord{
			Chan:  o.Chan.Name,
			Bytes: append([]byte(nil), o.P.Bytes()...),
			Meta:  append([]byte(nil), o.P.Meta...),
			Head:  o.Head,
		})
	}
	return out
}

func toU32(a any) uint32 {
	switch v := a.(type) {
	case int:
		return uint32(v)
	case uint32:
		return v
	case uint64:
		return uint32(v)
	}
	panic(fmt.Sprintf("testutil: bad control arg %T", a))
}

// SameOutcome fails the test if two outcomes differ, printing the first
// divergence.
func SameOutcome(t testing.TB, want, got Outcome, label string) {
	t.Helper()
	if want.Dropped != got.Dropped {
		t.Errorf("%s: dropped %d, want %d", label, got.Dropped, want.Dropped)
	}
	if len(want.Tx) != len(got.Tx) {
		t.Fatalf("%s: transmitted %d packets, want %d", label, len(got.Tx), len(want.Tx))
	}
	for i := range want.Tx {
		w, g := want.Tx[i], got.Tx[i]
		if w.Chan != g.Chan {
			t.Errorf("%s: packet %d exit channel %s, want %s", label, i, g.Chan, w.Chan)
		}
		if !bytes.Equal(w.Bytes, g.Bytes) {
			t.Errorf("%s: packet %d bytes differ\n got %x\nwant %x", label, i, g.Bytes, w.Bytes)
		}
		if !bytes.Equal(w.Meta, g.Meta) {
			t.Errorf("%s: packet %d metadata differ: got %x want %x", label, i, g.Meta, w.Meta)
		}
		if w.Head != g.Head {
			t.Errorf("%s: packet %d head %d, want %d", label, i, g.Head, w.Head)
		}
	}
}

// DiffTest builds the program twice from src, applies transform to one
// copy, executes both on identical traces and requires identical outcomes.
// It returns the transformed program for further inspection.
func DiffTest(t testing.TB, src string, gen func(tp *types.Program) []*packet.Packet,
	controls [][]any, transform func(p *ir.Program)) *ir.Program {
	t.Helper()
	ref := BuildIR(t, src)
	opt := BuildIR(t, src)
	transform(opt)
	want := Execute(t, ref, gen, controls)
	got := Execute(t, opt, gen, controls)
	SameOutcome(t, want, got, "transformed-vs-reference")
	return opt
}
