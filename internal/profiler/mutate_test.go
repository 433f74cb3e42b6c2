package profiler_test

import (
	"slices"
	"testing"

	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
)

// mutation is one single-instruction or signature edit of a verified
// function.
type mutation int

const (
	dropArg        mutation = iota // remove one operand
	addArg                         // append one operand
	dropDst                        // remove one result
	swapClass                      // replace an operand by a register of the other class
	foreignBranch                  // aim a branch at another function's entry block
	dropTerminator                 // remove a block's last instruction
	nilPayload                     // clear an instruction's Global, Proto and Chan
	opPastTable                    // set the op past ir.OpCacheFlush
	paramPastRegs                  // move a parameter past NumRegs
	rawWidth6                      // make a memory access raw and 6 bytes wide
	numMutations
)

var mutationNames = [numMutations]string{"drop operand", "add operand", "drop result", "swap class",
	"foreign branch", "drop terminator", "nil payload", "op past the table", "parameter past NumRegs",
	"raw width 6"}

// mutate returns a copy of prog.Funcs[fi] with mutation m applied at the
// k-th place it applies (modulo their number), or nil when it applies
// nowhere in that function.
func mutate(prog *ir.Program, fi int, m mutation, k int) *ir.Func {
	fn := prog.Funcs[fi].Clone()
	type site struct{ b, i, j int }
	var sites []site
	for bi, b := range fn.Blocks {
		if m == dropTerminator {
			sites = append(sites, site{bi, len(b.Instrs) - 1, 0})
			continue
		}
		for ii, in := range b.Instrs {
			switch m {
			case dropArg, swapClass:
				for j := range in.Args {
					sites = append(sites, site{bi, ii, j})
				}
			case dropDst:
				for j := range in.Dst {
					sites = append(sites, site{bi, ii, j})
				}
			case foreignBranch:
				if len(in.Blocks) > 0 {
					sites = append(sites, site{bi, ii, 0})
				}
			case nilPayload:
				if in.Global != nil || in.Proto != nil || in.Chan != nil {
					sites = append(sites, site{bi, ii, 0})
				}
			case rawWidth6:
				switch in.Op {
				case ir.OpLoad, ir.OpStore, ir.OpPktLoad, ir.OpPktStore, ir.OpMetaLoad, ir.OpMetaStore:
					sites = append(sites, site{bi, ii, 0})
				}
			case addArg, opPastTable:
				sites = append(sites, site{bi, ii, 0})
			}
		}
	}
	if m == paramPastRegs {
		for j := range fn.Params {
			sites = append(sites, site{j: j})
		}
	}
	if len(sites) == 0 {
		return nil
	}
	s := sites[k%len(sites)]
	if m == paramPastRegs {
		fn.Params[s.j] = ir.Reg(fn.NumRegs)
		return fn
	}
	b := fn.Blocks[s.b]
	in := b.Instrs[s.i]
	switch m {
	case dropArg:
		in.Args = slices.Delete(slices.Clone(in.Args), s.j, s.j+1)
	case addArg:
		in.Args = append(slices.Clone(in.Args), 0)
	case dropDst:
		in.Dst = slices.Delete(slices.Clone(in.Dst), s.j, s.j+1)
	case swapClass:
		r := in.Args[s.j]
		if r == ir.NoReg {
			return nil
		}
		other := slices.IndexFunc(fn.RegClasses, func(c ir.RegClass) bool { return c != fn.RegClasses[r] })
		if other < 0 {
			return nil
		}
		in.Args = slices.Clone(in.Args)
		in.Args[s.j] = ir.Reg(other)
	case foreignBranch:
		in.Blocks = slices.Clone(in.Blocks)
		in.Blocks[0] = prog.Funcs[(fi+1)%len(prog.Funcs)].Entry
	case dropTerminator:
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
	case nilPayload:
		in.Global, in.Proto, in.Chan = nil, nil, nil
	case opPastTable:
		in.Op = ir.OpCacheFlush + 1
	case rawWidth6:
		in.Field, in.Width = nil, 6
	}
	return fn
}

// lowered is a bakergen program lowered, with one packet of its trace.
func lowered(t testing.TB, seed uint64) (*ir.Program, *packet.Packet) {
	a := bakergen.NewSpec(seed).Build()
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return prog, a.Trace(prog.Types, 1, 1)[0]
}

// checkMutant runs one mutant of prog.Funcs[fi] on a host session of prog.
// Either ir.VerifyFunc refuses it with a *ir.VerifyError, which
// Interp.Run then returns unchanged, or it runs, to its end or to an
// error, without a panic. It reports whether the mutation applied and
// whether the verify refused it.
func checkMutant(t testing.TB, prog *ir.Program, pkt *packet.Packet, fi int, m mutation, k int) (applied, refused bool) {
	t.Helper()
	fn := mutate(prog, fi, m, k)
	if fn == nil {
		return false, false
	}
	s, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	args := make([]profiler.Value, len(fn.Params))
	for i, c := range fn.ParamClasses {
		if c == ir.ClassHandle {
			args[i] = profiler.Value{P: pkt.Clone()}
		}
	}
	name := prog.Funcs[fi].Name + " " + mutationNames[m]
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s (k=%d): panicked: %v", name, k, r)
		}
	}()
	verr := ir.VerifyFunc(prog, fn)
	_, rerr := s.RunFunc(fn, args)
	if verr == nil {
		return true, false
	}
	ve, ok := verr.(*ir.VerifyError)
	if !ok {
		t.Fatalf("%s (k=%d): ir.VerifyFunc returned %T: %v", name, k, verr, verr)
	}
	if got, ok := rerr.(*ir.VerifyError); !ok || *got != *ve {
		t.Fatalf("%s (k=%d): Run returned %v, want the verify error %v", name, k, rerr, verr)
	}
	return true, true
}

// TestVerifiedIRNeverPanics: every single mutation of every function of
// the lowered bakergen programs 0–49 is refused by the verify, and by the
// executor with the same error, or runs without a panic; every mutation
// kind is refused at least once.
func TestVerifiedIRNeverPanics(t *testing.T) {
	var applied, refused [numMutations]int
	for seed := uint64(0); seed < 50; seed++ {
		prog, pkt := lowered(t, seed)
		for fi := range prog.Funcs {
			for m := range numMutations {
				a, r := checkMutant(t, prog, pkt, fi, m, int(seed))
				if a {
					applied[m]++
				}
				if r {
					refused[m]++
				}
			}
		}
	}
	for m := range numMutations {
		t.Logf("%-22s applied %4d refused %4d", mutationNames[m], applied[m], refused[m])
		if refused[m] == 0 {
			t.Errorf("%s: never refused in %d mutants", mutationNames[m], applied[m])
		}
	}
}

// FuzzVerifyExec is TestVerifiedIRNeverPanics over any bakergen seed,
// function, mutation and site. testdata/fuzz/FuzzVerifyExec holds one
// refused input per mutation kind, which plain `go test` replays.
func FuzzVerifyExec(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint16, fi, m, k uint8) {
		prog, pkt := lowered(t, uint64(seed))
		checkMutant(t, prog, pkt, int(fi)%len(prog.Funcs), mutation(m)%numMutations, int(k))
	})
}
