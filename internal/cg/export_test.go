package cg

import (
	"shangrila/internal/aggregate"
	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
)

// LowerAggregate is Compile's lowering of one ME aggregate of img, before
// register allocation: the program in virtual registers and their count.
func LowerAggregate(prog *ir.Program, m *aggregate.Merged, img *Image,
	classes map[*types.Channel]aggregate.ChannelClass) (*Program, int, error) {
	c, nvreg, err := lowerAggregate(prog, m, img.Layout, img.RingOf, img.ChanFacts, classes, img.Opts)
	if err != nil {
		return nil, 0, err
	}
	return c.Program, nvreg, nil
}
