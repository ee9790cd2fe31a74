package ir

// This file implements the semantics-preserving IR transformations used to
// build "optimization level" variants of each program for dataset
// augmentation — the analogue of the paper's six clang -O levels. All
// passes preserve observable behaviour and never remove memory accesses,
// so the dependence profile (and hence the oracle label) is unchanged.

// NumVariants is the number of distinct IR variants Variant can produce,
// matching the paper's six optimization levels.
const NumVariants = 6

// Variant returns a fresh copy of p transformed at the given level
// (0 <= level < NumVariants). Level 0 is the unmodified lowering.
func Variant(p *Program, level int) *Program {
	out := cloneProgram(p)
	switch level {
	case 1:
		applyAll(out, ConstFold)
	case 2:
		applyAll(out, ConstFold, DeadCode)
	case 3:
		applyAll(out, ConstFold, StrengthReduce, DeadCode)
	case 4:
		applyAll(out, Pad)
	case 5:
		applyAll(out, ConstFold, StrengthReduce, DeadCode, Pad)
	}
	return out
}

func applyAll(p *Program, passes ...func(*Func)) {
	for _, f := range p.Funcs {
		for _, pass := range passes {
			pass(f)
		}
	}
}

func cloneProgram(p *Program) *Program {
	out := &Program{Name: p.Name, Globals: append([]Var(nil), p.Globals...), Loops: map[int]LoopMeta{}}
	for id, m := range p.Loops {
		out.Loops[id] = m
	}
	for _, f := range p.Funcs {
		nf := &Func{
			Name:    f.Name,
			Ret:     f.Ret,
			Params:  append([]Var(nil), f.Params...),
			Locals:  append([]Var(nil), f.Locals...),
			Code:    append([]Instr(nil), f.Code...),
			Calls:   append([]Call(nil), f.Calls...),
			NumRegs: f.NumRegs,
		}
		// One array holds the copies of every call's arguments.
		n := 0
		for _, c := range nf.Calls {
			n += len(c.Args)
		}
		args := make([]Arg, 0, n)
		for i := range nf.Calls {
			c := &nf.Calls[i]
			args = append(args, c.Args...)
			c.Args = args[len(args)-len(c.Args) : len(args) : len(args)]
		}
		out.Funcs = append(out.Funcs, nf)
	}
	return out
}

// defsOf returns, per register, the index of its defining instruction
// (registers are single-assignment in the static code) or -1.
func defsOf(f *Func) []int32 {
	defs := make([]int32, f.NumRegs)
	for i := range defs {
		defs[i] = -1
	}
	for i := range f.Code {
		if d := f.Code[i].Dst; d >= 0 {
			defs[d] = int32(i)
		}
	}
	return defs
}

// ConstFold replaces arithmetic instructions whose operands are constants
// with the folded constant, iterating to a fixpoint. Instruction indices
// are unchanged, so branch targets stay valid.
func ConstFold(f *Func) {
	for changed := true; changed; {
		changed = false
		defs := defsOf(f)
		for i := range f.Code {
			in := &f.Code[i]
			if !in.Op.IsArith() {
				continue
			}
			ad := constDef(f, defs, in.A)
			if ad == nil {
				continue
			}
			var bv float64
			if in.Op == OpNeg || in.Op == OpNot {
				bv = 0
			} else {
				bd := constDef(f, defs, in.B)
				if bd == nil {
					continue
				}
				bv = constValue(*bd)
			}
			v := EvalArith(in.Op, in.Float, constValue(*ad), bv)
			folded := Instr{
				Op: OpConst, Dst: in.Dst, A: -1, B: -1, Idx: -1,
				Float: in.Float, StmtID: in.StmtID, Line: in.Line,
			}
			if in.Float {
				folded.KF = v
			} else {
				folded.KI = int64(v)
			}
			f.Code[i] = folded
			changed = true
		}
	}
}

func constDef(f *Func, defs []int32, reg int32) *Instr {
	if reg < 0 || defs[reg] < 0 {
		return nil
	}
	in := &f.Code[defs[reg]]
	if in.Op != OpConst {
		return nil
	}
	return in
}

func constValue(in Instr) float64 {
	if in.Float {
		return in.KF
	}
	return float64(in.KI)
}

// StrengthReduce rewrites multiplications by a constant 2 into an addition
// of the other operand with itself (exact for both ints and floats).
// Instruction indices are unchanged.
func StrengthReduce(f *Func) {
	defs := defsOf(f)
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op != OpMul {
			continue
		}
		if d := constDef(f, defs, in.B); d != nil && constValue(*d) == 2 {
			in.Op = OpAdd
			in.B = in.A
		} else if d := constDef(f, defs, in.A); d != nil && constValue(*d) == 2 {
			in.Op = OpAdd
			in.A = in.B
		}
	}
}

// DeadCode removes pure computations (constants and arithmetic) whose
// results are never used. Loads are deliberately kept: removing memory
// reads would change the dependence profile the oracle labels from.
func DeadCode(f *Func) {
	used := make([]bool, f.NumRegs)
	mark := func(r int32) {
		if r >= 0 {
			used[r] = true
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		mark(in.A)
		mark(in.B)
		mark(in.Idx)
	}
	for _, c := range f.Calls {
		for _, a := range c.Args {
			mark(a.Reg)
		}
	}
	keep := make([]bool, len(f.Code))
	for i := range f.Code {
		in := &f.Code[i]
		pure := in.Op == OpConst || in.Op.IsArith()
		keep[i] = !pure || in.Dst < 0 || used[in.Dst]
	}
	compact(f, keep)
}

// Pad inserts a dead constant after every store, emulating the more
// verbose instruction streams of an unoptimized build; padding changes
// the token sequence the embeddings see without touching semantics.
func Pad(f *Func) {
	stores := 0
	for i := range f.Code {
		if f.Code[i].Op == OpStore {
			stores++
		}
	}
	out := make([]Instr, 0, len(f.Code)+stores)
	oldToNew := make([]int32, len(f.Code)+1)
	for i, in := range f.Code {
		oldToNew[i] = int32(len(out))
		out = append(out, in)
		if in.Op == OpStore {
			r := int32(f.NumRegs)
			f.NumRegs++
			out = append(out, Instr{
				Op: OpConst, Dst: r, A: -1, B: -1, Idx: -1,
				KI: 0, StmtID: in.StmtID, Line: in.Line,
			})
		}
	}
	oldToNew[len(f.Code)] = int32(len(out))
	remapBranches(out, oldToNew)
	f.Code = out
}

// compact removes instructions where keep[i] is false and remaps branch
// targets. A target pointing at a removed instruction maps to the next
// kept one.
func compact(f *Func, keep []bool) {
	oldToNew := make([]int32, len(f.Code)+1)
	n := int32(0)
	for i := range f.Code {
		oldToNew[i] = n
		if keep[i] {
			n++
		}
	}
	oldToNew[len(f.Code)] = n
	out := make([]Instr, 0, n)
	for i, in := range f.Code {
		if keep[i] {
			out = append(out, in)
		}
	}
	remapBranches(out, oldToNew)
	f.Code = out
}

func remapBranches(code []Instr, oldToNew []int32) {
	for i := range code {
		switch code[i].Op {
		case OpBr:
			code[i].Target = oldToNew[code[i].Target]
		case OpCBr:
			code[i].Target = oldToNew[code[i].Target]
			code[i].Else = oldToNew[code[i].Else]
		}
	}
}
