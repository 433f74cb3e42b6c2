package ir

import "shangrila/internal/baker/token"

// IsWord reports whether o is a pure word op, OpAdd through OpLeS: Dst[0]
// is EvalALU of the words in Args (OpNot and OpNeg read one), and nothing
// else is read or written.
func (o Op) IsWord() bool { return OpAdd <= o && o <= OpLeS }

// IsCompare reports whether o is a word comparison, OpEq through OpLeS.
func (o Op) IsCompare() bool { return OpEq <= o && o <= OpLeS }

// Commutes reports whether word op o gives the same for (a, b) as for
// (b, a).
func (o Op) Commutes() bool {
	switch o {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpEq, OpNe:
		return true
	}
	return false
}

// EvalALU is what pure word op op computes from a and b (b unread by OpNot
// and OpNeg): the one definition every evaluator of the IR's arithmetic is
// held to. A zero divisor gives 0, a shift count is masked with & 31,
// OpShrS, OpLtS and OpLeS read their operands as signed, and a comparison
// gives 0 or 1. ok is false for any other op.
func EvalALU(op Op, a, b uint32) (v uint32, ok bool) {
	switch op {
	case OpAdd:
		return a + b, true
	case OpSub:
		return a - b, true
	case OpMul:
		return a * b, true
	case OpDivU, OpRemU:
		if b == 0 {
			return 0, true
		}
		if op == OpDivU {
			return a / b, true
		}
		return a % b, true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return a << (b & 31), true
	case OpShrU:
		return a >> (b & 31), true
	case OpShrS:
		return uint32(int32(a) >> (b & 31)), true
	case OpNot:
		return ^a, true
	case OpNeg:
		return -a, true
	case OpEq:
		return b2u(a == b), true
	case OpNe:
		return b2u(a != b), true
	case OpLtU:
		return b2u(a < b), true
	case OpLeU:
		return b2u(a <= b), true
	case OpLtS:
		return b2u(int32(a) < int32(b)), true
	case OpLeS:
		return b2u(int32(a) <= int32(b)), true
	}
	return 0, false
}

func b2u(c bool) uint32 {
	if c {
		return 1
	}
	return 0
}

// TokenOp is the one map from a Baker arithmetic operator to the word op
// computing it: binary + - * / % & | ^ << >> (>> is OpShrS when signed),
// or unary - and ~ when unary. ok is false for every other operator: the
// comparisons, which lowering may swap, and the logical operators.
func TokenOp(k token.Kind, unary, signed bool) (op Op, ok bool) {
	if unary {
		switch k {
		case token.SUB:
			return OpNeg, true
		case token.NOT:
			return OpNot, true
		}
		return OpInvalid, false
	}
	switch k {
	case token.ADD:
		return OpAdd, true
	case token.SUB:
		return OpSub, true
	case token.MUL:
		return OpMul, true
	case token.QUO:
		return OpDivU, true
	case token.REM:
		return OpRemU, true
	case token.AND:
		return OpAnd, true
	case token.OR:
		return OpOr, true
	case token.XOR:
		return OpXor, true
	case token.SHL:
		return OpShl, true
	case token.SHR:
		if signed {
			return OpShrS, true
		}
		return OpShrU, true
	}
	return OpInvalid, false
}
