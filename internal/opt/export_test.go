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
