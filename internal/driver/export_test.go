package driver

import "fmt"

// SetCutoffCheck turns the test-time cut-off check on or off and returns
// the previous setting, for the tests that measure what a production
// recompile allocates or takes.
func SetCutoffCheck(on bool) bool {
	old := cutoffCheck
	cutoffCheck = on
	return old
}

// KeepPerPass is how many results a Session holds per pipeline position.
const KeepPerPass = keepPerPass

// Held names the results the session holds, per pipeline position and most
// recently used first, each by its identity: two calls name the same
// results in the same order exactly when the history did not change.
func (s *Session) Held() [][]string {
	out := make([][]string, len(s.entries))
	for i, held := range s.entries {
		for _, ent := range held {
			out[i] = append(out[i], fmt.Sprintf("%s@%p", ent.name, ent))
		}
	}
	return out
}
