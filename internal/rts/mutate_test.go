package rts_test

import (
	"errors"
	"slices"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/rts"
)

// imageMutation is one single-field edit of a compiled ME image.
type imageMutation int

const (
	mutRegister imageMutation = iota // set a register operand
	mutTarget                        // aim a branch elsewhere
	mutRing                          // renumber a ring operation's ring
	mutNWords                        // change a burst length, its Data as it is
	mutLevel                         // move a memory reference to another level
	mutOp                            // change an opcode, its operands as they are
	mutCond                          // change a branch condition
	numImageMutations
)

var imageMutationNames = [numImageMutations]string{"register", "target", "ring", "nwords", "level", "op", "condition"}

// mutantProgram is program i of TestVerifiedImageNeverPanics and
// FuzzImage: the three apps, then bakergen seed i-3.
func mutantProgram(i int) *apps.App {
	if all := apps.All(); i < len(all) {
		return all[i]
	}
	return bakergen.NewSpec(uint64(i - 3)).Build()
}

// mutateImage returns a copy of img with mutation m applied at the k-th
// place it applies in any ME program (modulo their number), the new value
// picked by v from a range that reaches just past each rule's bounds on
// both sides, or nil when m applies nowhere. img itself is left as it is.
func mutateImage(img *cg.Image, m imageMutation, k, v int) *cg.Image {
	type site struct{ prog, pc, field int }
	var sites []site
	for ci, c := range img.MECode {
		for pc, in := range c.Program.Code {
			switch m {
			case mutRegister:
				for f, r := range []cg.PReg{in.Dst, in.Dst2, in.SrcA, in.SrcB, in.Addr} {
					if r != cg.NoPReg {
						sites = append(sites, site{ci, pc, f})
					}
				}
				for j := range in.Data {
					sites = append(sites, site{ci, pc, 5 + j})
				}
			case mutTarget, mutCond:
				if in.Op == cg.IBcc || in.Op == cg.IBccImm || (m == mutTarget && in.Op == cg.IBr) {
					sites = append(sites, site{ci, pc, 0})
				}
			case mutRing:
				if in.Op == cg.IRingGet || in.Op == cg.IRingPut {
					sites = append(sites, site{ci, pc, 0})
				}
			case mutNWords, mutLevel:
				if in.Op == cg.IMem {
					sites = append(sites, site{ci, pc, 0})
				}
			case mutOp:
				sites = append(sites, site{ci, pc, 0})
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}
	s := sites[k%len(sites)]
	old := img.MECode[s.prog]
	in := *old.Program.Code[s.pc]
	n := len(old.Program.Code)
	switch m {
	case mutRegister:
		r := cg.PReg(v%(cg.NumRegs+4) - 2) // -2 .. NumRegs+1
		switch s.field {
		case 0:
			in.Dst = r
		case 1:
			in.Dst2 = r
		case 2:
			in.SrcA = r
		case 3:
			in.SrcB = r
		case 4:
			in.Addr = r
		default:
			in.Data = slices.Clone(in.Data)
			in.Data[s.field-5] = r
		}
	case mutTarget:
		in.Target = [...]int{-1, n, v % n}[v%3]
	case mutRing:
		in.Ring = v%(img.Layout.NumRings+2) - 1 // -1 .. NumRings
	case mutNWords:
		in.NWords = v%5 - 1 // -1 .. 3
	case mutLevel:
		in.Level = cg.MemLevel(v%7 - 1) // -1 .. 5
	case mutOp:
		in.Op = cg.Opcode(v%17 - 1) // -1 .. IHalt+1
	case mutCond:
		in.Cond = cg.CondOp(v%8 - 1) // -1 .. CLeS+1
	}
	prog := *old.Program
	prog.Code = slices.Clone(prog.Code)
	prog.Code[s.pc] = &in
	c := *old
	c.Program = &prog
	out := *img
	out.MECode = slices.Clone(img.MECode)
	out.MECode[s.prog] = &c
	return &out
}

// checkImageMutant loads one mutant of res's image on a runtime with 1 to
// 6 MEs (fewer than the stages load the combined program) and frame
// capture on, and runs it 20,000 cycles after a boot. Either the load is refused with a
// *cg.VerifyError, or the image runs, to the end or to an error, without a
// panic. It reports whether the mutation applied and whether the load was
// refused.
func checkImageMutant(t testing.TB, a *apps.App, res *driver.Result, m imageMutation, k, v int) (applied, refused bool) {
	t.Helper()
	img := mutateImage(res.Image, m, k, v)
	if img == nil {
		return false, false
	}
	name := a.Name + " " + imageMutationNames[m]
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s (k=%d v=%d): panicked: %v", name, k, v, r)
		}
	}()
	rt, err := rts.New(img, res.Prog, a.Trace(res.Prog.Types, 1, 16), rts.Options{NumMEs: 1 + v%6, CaptureLimit: 8})
	if err != nil {
		var ve *cg.VerifyError
		if !errors.As(err, &ve) {
			t.Fatalf("%s (k=%d v=%d): rts.New: %v, want a *cg.VerifyError or success", name, k, v, err)
		}
		return true, true
	}
	if rt.Boot(a.Controls) == nil {
		rt.Run(20_000) // a dynamic fault (an address out of range) is an error, not a refusal
	}
	return true, false
}

// TestVerifiedImageNeverPanics: single mutations of the compiled images of
// the three apps and bakergen 0–49 at BASE and +SWC are each refused by
// the machine's load (cg.Verify) or run without a panic; every mutation
// kind is refused at least once.
func TestVerifiedImageNeverPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 106 images")
	}
	var applied, refused [numImageMutations]int
	for i := range 3 + 50 {
		a := mutantProgram(i)
		for li, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
			res, err := harness.Compile(a, lvl, 7)
			if err != nil {
				t.Fatalf("%s at %v: %v", a.Name, lvl, err)
			}
			for m := range numImageMutations {
				j := 2*i + li
				ap, r := checkImageMutant(t, a, res, m, 7*j+int(m), j+int(m))
				if ap {
					applied[m]++
				}
				if r {
					refused[m]++
				}
			}
		}
	}
	for m := range numImageMutations {
		t.Logf("%-10s applied %4d refused %4d", imageMutationNames[m], applied[m], refused[m])
		if refused[m] == 0 {
			t.Errorf("%s: never refused in %d mutants", imageMutationNames[m], applied[m])
		}
	}
}

// FuzzImage is TestVerifiedImageNeverPanics over any program index, level,
// mutation, site and value. testdata/fuzz/FuzzImage holds one refused
// input per mutation kind, which plain `go test` replays.
func FuzzImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog uint16, swc bool, m, k, v uint8) {
		a := mutantProgram(int(prog))
		lvl := driver.LevelBase
		if swc {
			lvl = driver.LevelSWC
		}
		res, err := harness.Compile(a, lvl, 7)
		if err != nil {
			t.Fatalf("%s at %v: %v", a.Name, lvl, err)
		}
		checkImageMutant(t, a, res, imageMutation(m)%numImageMutations, int(k), int(v))
	})
}
