package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// InstrString renders instruction in of f in an LLVM-flavoured textual
// form; f supplies a call's callee and arguments.
func InstrString(f *Func, in Instr) string {
	ty := "i64"
	if in.Float {
		ty = "double"
	}
	switch in.Op {
	case OpConst:
		if in.Float {
			return fmt.Sprintf("r%d = const %s %s", in.Dst, ty, strconv.FormatFloat(in.KF, 'g', -1, 64))
		}
		return fmt.Sprintf("r%d = const %s %d", in.Dst, ty, in.KI)
	case OpLoad:
		if in.Idx >= 0 {
			return fmt.Sprintf("r%d = load %s %s[r%d]", in.Dst, ty, in.Var, in.Idx)
		}
		return fmt.Sprintf("r%d = load %s %s", in.Dst, ty, in.Var)
	case OpStore:
		if in.Idx >= 0 {
			return fmt.Sprintf("store %s %s[r%d], r%d", ty, in.Var, in.Idx, in.A)
		}
		return fmt.Sprintf("store %s %s, r%d", ty, in.Var, in.A)
	case OpBr:
		return fmt.Sprintf("br %d", in.Target)
	case OpCBr:
		return fmt.Sprintf("cbr r%d, %d, %d", in.A, in.Target, in.Else)
	case OpCall:
		c := &f.Calls[in.Call]
		args := make([]string, len(c.Args))
		for i, a := range c.Args {
			if a.Reg < 0 {
				args[i] = "&" + a.Var
			} else {
				args[i] = fmt.Sprintf("r%d", a.Reg)
			}
		}
		return fmt.Sprintf("r%d = call %s(%s)", in.Dst, c.Callee, strings.Join(args, ", "))
	case OpRet:
		if in.A >= 0 {
			return fmt.Sprintf("ret r%d", in.A)
		}
		return "ret"
	case OpLoopBegin, OpLoopNext, OpLoopEnd:
		return fmt.Sprintf("%s %d", in.Op, in.LoopID)
	case OpNeg, OpNot:
		return fmt.Sprintf("r%d = %s %s r%d", in.Dst, in.Op, ty, in.A)
	default:
		return fmt.Sprintf("r%d = %s %s r%d, r%d", in.Dst, in.Op, ty, in.A, in.B)
	}
}
