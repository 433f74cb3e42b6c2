package cg_test

import (
	"strings"
	"testing"

	"shangrila/internal/cg"
	"shangrila/internal/ir"
)

// TestWordOpsMapped: codegen maps every IR word op but the comparisons to
// an ME ALU op and every comparison to a branch condition, and any op a
// map does not cover fails the compile with a cg: error rather than
// lowering to some default.
func TestWordOpsMapped(t *testing.T) {
	refused := func(err error) bool { return err != nil && strings.HasPrefix(err.Error(), "cg: ") }
	alus := map[cg.ALUOp]ir.Op{}
	for op := ir.OpInvalid; op <= ir.OpCacheFlush+1; op++ {
		a, aerr := cg.ALUFor(op)
		_, cerr := cg.CondFor(op)
		switch {
		case op.IsCompare():
			if cerr != nil || !refused(aerr) {
				t.Errorf("%v: condition error %v, ALU error %v", op, cerr, aerr)
			}
		case op.IsWord():
			if aerr != nil || !refused(cerr) {
				t.Errorf("%v: ALU error %v, condition error %v", op, aerr, cerr)
			}
			if prev, dup := alus[a]; dup {
				t.Errorf("%v and %v both lower to %v", prev, op, a)
			}
			alus[a] = op
		default:
			if !refused(aerr) || !refused(cerr) {
				t.Errorf("%v: ALU error %v, condition error %v", op, aerr, cerr)
			}
		}
	}
}
