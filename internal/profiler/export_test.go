package profiler

import "shangrila/internal/ir"

// FusedConsts decodes every function of prog as a profile does and returns
// how many OpConst instructions the program has and how many of them
// decode fused into the slot after them.
func FusedConsts(prog *ir.Program) (consts, fused int, err error) {
	env := newHostEnv(prog, &Stats{})
	for _, fn := range prog.Funcs {
		c := env.it.codeOf(fn)
		if err := env.it.decode(c); err != nil {
			return 0, 0, err
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpConst {
					consts++
					fused++
				}
			}
		}
		for _, s := range c.slots {
			if s.op == ir.OpConst {
				fused--
			}
		}
	}
	return consts, fused, nil
}

// RunFunc runs fn on the session's own Interp, as a test that builds or
// mutates a function runs it.
func (s *Session) RunFunc(fn *ir.Func, args []Value) (Value, error) {
	return s.env.it.Run(fn, args)
}
