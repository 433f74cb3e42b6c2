package ir_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ir"
)

// verifyAllocs is what ir.Verify may allocate on a valid program: the block
// index (a map header and its buckets) and the def-before-use bit rows,
// each sized once for the largest function. It does not grow with the
// number of functions, blocks, instructions or operands.
const verifyAllocs = 4

// TestVerifyValidAllocFree pins the verifier's success path: it runs after
// every pass of every compile under `go test` and in every fuzz
// differential, so it must not format operand names or allocate per block
// when nothing is wrong.
func TestVerifyValidAllocFree(t *testing.T) {
	for _, a := range apps.All() {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(10, func() {
			if err := ir.Verify(prog); err != nil {
				t.Fatal(err)
			}
		})
		if n > verifyAllocs {
			t.Errorf("%s: ir.Verify allocates %v times on valid IR, want <= %d", a.Name, n, verifyAllocs)
		}
	}
}
