package opt

import "shangrila/internal/ir"

// MaxRounds is OptimizeFunc's round cap.
const MaxRounds = maxRounds

// CapRounds is OptimizeFunc without the fixpoint exit: it runs every round
// up to the cap, whatever the rounds change.
func CapRounds(f *ir.Func) {
	var s scratch
	s.begin(f)
	for range maxRounds {
		s.round(f)
	}
}

// CallCount returns the number of OpCall instructions in f.
func CallCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				n++
			}
		}
	}
	return n
}

// InstrCount returns the static instruction count of f.
func InstrCount(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}
