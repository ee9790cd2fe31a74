package ir

import (
	"context"
	"fmt"

	"mvpar/internal/minic"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// Lower translates a checked MiniC program to IR. Global initializers must
// be constant expressions. The boolean operators evaluate both operands
// (MiniC has no side effects in conditions, so eager evaluation is sound).
func Lower(p *minic.Program) (*Program, error) {
	_, span := trace.StartSpan(context.Background(), "ir.lower")
	defer span.End()
	if err := minic.Check(p); err != nil {
		return nil, err
	}
	prog := &Program{Name: p.Name, Loops: map[int]LoopMeta{}}
	for _, g := range p.Globals {
		v := Var{Name: g.Name, Type: g.Type, Dims: g.Dims}
		if g.Init != nil {
			val, ok := constEval(g.Init)
			if !ok {
				return nil, fmt.Errorf("ir: line %d: global %q initializer must be constant", g.Line, g.Name)
			}
			v.HasInit = true
			v.InitVal = val
		}
		prog.Globals = append(prog.Globals, v)
	}
	lw := &lowerer{prog: p, out: prog}
	for _, f := range p.Funcs {
		fn, err := lw.lowerFunc(f)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, fn)
	}
	Resolve(prog)
	instrs := 0
	for _, fn := range prog.Funcs {
		instrs += len(fn.Code)
	}
	obs.GetCounter("mvpar_ir_lower_total").Inc()
	obs.GetCounter("mvpar_ir_instrs_total").Add(int64(instrs))
	obs.Debug("ir.lower", "program", p.Name, "funcs", len(prog.Funcs), "instrs", instrs)
	return prog, nil
}

// MustLower lowers and panics on error; for the built-in corpus.
func MustLower(p *minic.Program) *Program {
	out, err := Lower(p)
	if err != nil {
		panic(err)
	}
	return out
}

// Resolve binds every name the interpreter looks up to an index: each
// load and store variable, each by-reference call argument and each for
// loop's control variable (on its OpLoopBegin) to a Loc, and each callee
// to Fn. A variable resolves among its function's params and locals
// first, then among the globals; a name found in neither keeps the zero
// Loc (a callee, Fn 0) and fails only when the instruction runs. Lower
// calls Resolve; a program built by hand must call it before it is
// interpreted. The transforms keep function, param, local and global
// order, so a Variant stays resolved.
func Resolve(p *Program) {
	globals := make(map[string]Loc, len(p.Globals))
	for i, g := range p.Globals {
		globals[g.Name] = GlobalLoc(i)
	}
	frame := map[string]Loc{}
	find := func(name string) Loc {
		if l, ok := frame[name]; ok {
			return l
		}
		return globals[name]
	}
	for _, f := range p.Funcs {
		clear(frame)
		for i, v := range f.Params {
			frame[v.Name] = FrameLoc(i)
		}
		for i, v := range f.Locals {
			frame[v.Name] = FrameLoc(len(f.Params) + i)
		}
		for i := range f.Code {
			in := &f.Code[i]
			switch in.Op {
			case OpLoad, OpStore:
				in.Loc = find(in.Var)
			case OpLoopBegin:
				in.Loc = 0
				if ctrl := p.Loops[int(in.LoopID)].CtrlVar; ctrl != "" {
					in.Loc = find(ctrl)
				}
			}
		}
		for i := range f.Calls {
			c := &f.Calls[i]
			c.Fn = 0
			for j, g := range p.Funcs {
				if g.Name == c.Callee {
					c.Fn = int32(j + 1)
					break
				}
			}
			for j := range c.Args {
				if c.Args[j].Reg < 0 {
					c.Args[j].Loc = find(c.Args[j].Var)
				}
			}
		}
	}
}

func constEval(e minic.Expr) (float64, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return float64(x.Value), true
	case *minic.FloatLit:
		return x.Value, true
	case *minic.UnaryExpr:
		if x.Op == "-" {
			v, ok := constEval(x.X)
			return -v, ok
		}
	case *minic.BinaryExpr:
		a, ok1 := constEval(x.X)
		b, ok2 := constEval(x.Y)
		if ok1 && ok2 {
			switch x.Op {
			case "+":
				return a + b, true
			case "-":
				return a - b, true
			case "*":
				return a * b, true
			case "/":
				if b != 0 {
					return a / b, true
				}
			}
		}
	}
	return 0, false
}

type lowerer struct {
	prog *minic.Program
	out  *Program

	fn        *Func
	code      []Instr             // fn's code while it is lowered, reused across functions
	scopes    []map[string]string // source name -> unique lowered name
	renameSeq int
	stmtSeq   int32
	loopDepth int
	curStmt   int32
	curLine   int32
	regFloat  []bool // per-register: does it hold a float value?
}

func (lw *lowerer) lowerFunc(f *minic.FuncDecl) (*Func, error) {
	lw.fn = &Func{Name: f.Name, Ret: f.Ret}
	lw.code = lw.code[:0]
	lw.regFloat = lw.regFloat[:0]
	lw.scopes = []map[string]string{{}}
	for _, p := range f.Params {
		lw.scopes[0][p.Name] = p.Name
		lw.fn.Params = append(lw.fn.Params, Var{Name: p.Name, Type: p.Type, Dims: p.Dims})
	}
	if err := lw.lowerBlock(f.Body); err != nil {
		return nil, err
	}
	// Implicit return for functions that fall off the end.
	lw.emit(Instr{Op: OpRet, Dst: -1, A: -1, B: -1, Idx: -1, Line: int32(f.Line)})
	lw.fn.Code = make([]Instr, len(lw.code))
	copy(lw.fn.Code, lw.code)
	return lw.fn, nil
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]string{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) declareLocal(d *minic.VarDecl) string {
	name := d.Name
	if lw.lookup(d.Name) != "" || lw.localExists(d.Name) || lw.isGlobal(d.Name) {
		lw.renameSeq++
		name = fmt.Sprintf("%s.%d", d.Name, lw.renameSeq)
	}
	lw.scopes[len(lw.scopes)-1][d.Name] = name
	lw.fn.Locals = append(lw.fn.Locals, Var{Name: name, Type: d.Type, Dims: d.Dims})
	return name
}

func (lw *lowerer) localExists(name string) bool {
	for _, v := range lw.fn.Locals {
		if v.Name == name {
			return true
		}
	}
	for _, v := range lw.fn.Params {
		if v.Name == name {
			return true
		}
	}
	return false
}

// isGlobal reports whether name is a global of the program. A local that
// shadows one is renamed like a local that shadows a local, so that once
// its block ends the source name resolves to the global again.
func (lw *lowerer) isGlobal(name string) bool {
	for _, g := range lw.prog.Globals {
		if g.Name == name {
			return true
		}
	}
	return false
}

// lookup resolves a source name to its lowered name, falling back to the
// name itself for globals.
func (lw *lowerer) lookup(name string) string {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if n, ok := lw.scopes[i][name]; ok {
			return n
		}
	}
	return ""
}

func (lw *lowerer) resolve(name string) string {
	if n := lw.lookup(name); n != "" {
		return n
	}
	return name // global
}

// varDecl finds the declaration for a lowered name to learn its rank.
func (lw *lowerer) varDims(lowered string) []int {
	for _, v := range lw.fn.Locals {
		if v.Name == lowered {
			return v.Dims
		}
	}
	for _, v := range lw.fn.Params {
		if v.Name == lowered {
			return v.Dims
		}
	}
	for _, v := range lw.out.Globals {
		if v.Name == lowered {
			return v.Dims
		}
	}
	return nil
}

func (lw *lowerer) newReg() int32 {
	r := int32(lw.fn.NumRegs)
	lw.fn.NumRegs++
	lw.regFloat = append(lw.regFloat, false)
	return r
}

// varType resolves the declared type of a lowered variable name.
func (lw *lowerer) varType(lowered string) minic.Type {
	for _, v := range lw.fn.Locals {
		if v.Name == lowered {
			return v.Type
		}
	}
	for _, v := range lw.fn.Params {
		if v.Name == lowered {
			return v.Type
		}
	}
	for _, v := range lw.out.Globals {
		if v.Name == lowered {
			return v.Type
		}
	}
	return minic.TypeInt
}

// emit appends in to the function's code and returns its index.
func (lw *lowerer) emit(in Instr) int32 {
	if in.StmtID == 0 {
		in.StmtID = lw.curStmt
	}
	if in.Line == 0 {
		in.Line = lw.curLine
	}
	lw.code = append(lw.code, in)
	return int32(len(lw.code) - 1)
}

// pc returns the index the next emitted instruction gets.
func (lw *lowerer) pc() int32 { return int32(len(lw.code)) }

// beginStmt opens a new CU grouping key for the statement being lowered.
func (lw *lowerer) beginStmt(line int) {
	lw.stmtSeq++
	lw.curStmt = lw.stmtSeq
	lw.curLine = int32(line)
}

func (lw *lowerer) lowerBlock(b *minic.BlockStmt) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if err := lw.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(s minic.Stmt) error {
	switch st := s.(type) {
	case *minic.BlockStmt:
		return lw.lowerBlock(st)
	case *minic.DeclStmt:
		lw.beginStmt(st.Decl.Line)
		name := lw.declareLocal(st.Decl)
		if st.Decl.Init != nil {
			r, err := lw.lowerExpr(st.Decl.Init)
			if err != nil {
				return err
			}
			lw.emit(Instr{Op: OpStore, Dst: -1, A: r, B: -1, Idx: -1, Var: name, Float: lw.varType(name) == minic.TypeFloat})
		}
		return nil
	case *minic.AssignStmt:
		return lw.lowerAssign(st)
	case *minic.ForStmt:
		return lw.lowerFor(st)
	case *minic.WhileStmt:
		return lw.lowerWhile(st)
	case *minic.IfStmt:
		return lw.lowerIf(st)
	case *minic.ReturnStmt:
		lw.beginStmt(st.Line)
		a := int32(-1)
		if st.Value != nil {
			r, err := lw.lowerExpr(st.Value)
			if err != nil {
				return err
			}
			a = r
		}
		lw.emit(Instr{Op: OpRet, Dst: -1, A: a, B: -1, Idx: -1})
		return nil
	case *minic.ExprStmt:
		lw.beginStmt(st.Line)
		_, err := lw.lowerExpr(st.X)
		return err
	}
	return fmt.Errorf("ir: unknown statement %T", s)
}

// exprMentions reports whether expression e references variable name.
func exprMentions(e minic.Expr, name string) bool {
	switch x := e.(type) {
	case *minic.VarRef:
		if x.Name == name {
			return true
		}
		for _, idx := range x.Indices {
			if exprMentions(idx, name) {
				return true
			}
		}
	case *minic.BinaryExpr:
		return exprMentions(x.X, name) || exprMentions(x.Y, name)
	case *minic.UnaryExpr:
		return exprMentions(x.X, name)
	case *minic.CallExpr:
		for _, a := range x.Args {
			if exprMentions(a, name) {
				return true
			}
		}
	}
	return false
}

// sameLValue reports whether expression e is exactly the lvalue lv
// (same name, syntactically identical subscripts).
func sameLValue(lv *minic.LValue, e minic.Expr) bool {
	ref, ok := e.(*minic.VarRef)
	if !ok || ref.Name != lv.Name || len(ref.Indices) != len(lv.Indices) {
		return false
	}
	for i := range ref.Indices {
		if minic.ExprString(ref.Indices[i]) != minic.ExprString(lv.Indices[i]) {
			return false
		}
	}
	return true
}

// classifyReduction decides whether an assignment is a recognizable
// reduction (x += e, x -= e, x *= e, or x = x op e / x = e op x for
// commutative op) whose accumulator is not otherwise read by the RHS.
// It returns the reduction kind, the effective binary operator, and the
// contribution expression.
func classifyReduction(st *minic.AssignStmt) (RedOp, string, minic.Expr) {
	switch st.Op {
	case "+=":
		if !exprMentions(st.Value, st.Target.Name) {
			return RedSum, "+", st.Value
		}
	case "-=":
		if !exprMentions(st.Value, st.Target.Name) {
			return RedSum, "-", st.Value
		}
	case "*=":
		if !exprMentions(st.Value, st.Target.Name) {
			return RedProd, "*", st.Value
		}
	case "=":
		if bin, ok := st.Value.(*minic.BinaryExpr); ok {
			switch bin.Op {
			case "+", "*":
				kind := RedSum
				if bin.Op == "*" {
					kind = RedProd
				}
				if sameLValue(st.Target, bin.X) && !exprMentions(bin.Y, st.Target.Name) {
					return kind, bin.Op, bin.Y
				}
				if sameLValue(st.Target, bin.Y) && !exprMentions(bin.X, st.Target.Name) {
					return kind, bin.Op, bin.X
				}
			case "-":
				if sameLValue(st.Target, bin.X) && !exprMentions(bin.Y, st.Target.Name) {
					return RedSum, "-", bin.Y
				}
			}
		}
	}
	return RedNone, "", nil
}

var assignOpToBinary = map[string]string{
	"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
}

func (lw *lowerer) lowerAssign(st *minic.AssignStmt) error {
	lw.beginStmt(st.Line)
	name := lw.resolve(st.Target.Name)
	idxReg, err := lw.lowerIndex(name, st.Target.Indices)
	if err != nil {
		return err
	}

	red, redOp, contrib := classifyReduction(st)
	if red != RedNone {
		// Accumulator load and store are tagged so the dependence oracle
		// can recognize the carried dependence as a reduction.
		cur := lw.newReg()
		lw.regFloat[cur] = lw.varType(name) == minic.TypeFloat
		lw.emit(Instr{Op: OpLoad, Dst: cur, A: -1, B: -1, Idx: idxReg, Var: name, Red: red, Float: lw.regFloat[cur]})
		val, err := lw.lowerExpr(contrib)
		if err != nil {
			return err
		}
		res, err := lw.lowerBinaryOp(redOp, cur, val, st.Line)
		if err != nil {
			return err
		}
		lw.emit(Instr{Op: OpStore, Dst: -1, A: res, B: -1, Idx: idxReg, Var: name, Red: red, Float: lw.varType(name) == minic.TypeFloat})
		return nil
	}

	if st.Op == "=" {
		val, err := lw.lowerExpr(st.Value)
		if err != nil {
			return err
		}
		lw.emit(Instr{Op: OpStore, Dst: -1, A: val, B: -1, Idx: idxReg, Var: name, Float: lw.varType(name) == minic.TypeFloat})
		return nil
	}

	// Non-reduction compound assignment (e.g. x /= e, or x += x).
	cur := lw.newReg()
	lw.regFloat[cur] = lw.varType(name) == minic.TypeFloat
	lw.emit(Instr{Op: OpLoad, Dst: cur, A: -1, B: -1, Idx: idxReg, Var: name, Float: lw.regFloat[cur]})
	val, err := lw.lowerExpr(st.Value)
	if err != nil {
		return err
	}
	res, err := lw.lowerBinaryOp(assignOpToBinary[st.Op], cur, val, st.Line)
	if err != nil {
		return err
	}
	lw.emit(Instr{Op: OpStore, Dst: -1, A: res, B: -1, Idx: idxReg, Var: name, Float: lw.varType(name) == minic.TypeFloat})
	return nil
}

// lowerIndex computes the linear element index register for a subscripted
// access, or -1 for scalars. 2-D accesses linearize as i*cols + j.
func (lw *lowerer) lowerIndex(lowered string, indices []minic.Expr) (int32, error) {
	if len(indices) == 0 {
		return -1, nil
	}
	dims := lw.varDims(lowered)
	if len(dims) != len(indices) {
		return -1, fmt.Errorf("ir: rank mismatch for %q", lowered)
	}
	r0, err := lw.lowerExpr(indices[0])
	if err != nil {
		return -1, err
	}
	if len(indices) == 1 {
		return r0, nil
	}
	r1, err := lw.lowerExpr(indices[1])
	if err != nil {
		return -1, err
	}
	cols := lw.newReg()
	lw.emit(Instr{Op: OpConst, Dst: cols, A: -1, B: -1, Idx: -1, KI: int64(dims[1])})
	scaled := lw.newReg()
	lw.emit(Instr{Op: OpMul, Dst: scaled, A: r0, B: cols, Idx: -1})
	lin := lw.newReg()
	lw.emit(Instr{Op: OpAdd, Dst: lin, A: scaled, B: r1, Idx: -1})
	return lin, nil
}

var binaryOps = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
	"<": OpCmpLT, "<=": OpCmpLE, ">": OpCmpGT, ">=": OpCmpGE,
	"==": OpCmpEQ, "!=": OpCmpNE, "&&": OpAnd, "||": OpOr,
}

func (lw *lowerer) lowerBinaryOp(op string, a, b int32, line int) (int32, error) {
	irOp, ok := binaryOps[op]
	if !ok {
		return -1, fmt.Errorf("ir: line %d: unknown operator %q", line, op)
	}
	// Result floatness: comparisons, logic and mod are int; arithmetic is
	// float when either operand is. OpDiv with Float=false is integer
	// (truncating) division, matching C semantics for int/int.
	isF := false
	switch irOp {
	case OpAdd, OpSub, OpMul, OpDiv:
		isF = lw.regFloat[a] || lw.regFloat[b]
	}
	dst := lw.newReg()
	lw.regFloat[dst] = isF
	lw.emit(Instr{Op: irOp, Dst: dst, A: a, B: b, Idx: -1, Line: int32(line), Float: isF})
	return dst, nil
}

func (lw *lowerer) lowerExpr(e minic.Expr) (int32, error) {
	switch x := e.(type) {
	case *minic.IntLit:
		r := lw.newReg()
		lw.emit(Instr{Op: OpConst, Dst: r, A: -1, B: -1, Idx: -1, KI: x.Value, Line: int32(x.Line)})
		return r, nil
	case *minic.FloatLit:
		r := lw.newReg()
		lw.regFloat[r] = true
		lw.emit(Instr{Op: OpConst, Dst: r, A: -1, B: -1, Idx: -1, KF: x.Value, Float: true, Line: int32(x.Line)})
		return r, nil
	case *minic.VarRef:
		name := lw.resolve(x.Name)
		idxReg, err := lw.lowerIndex(name, x.Indices)
		if err != nil {
			return -1, err
		}
		r := lw.newReg()
		isF := lw.varType(name) == minic.TypeFloat
		lw.regFloat[r] = isF
		lw.emit(Instr{Op: OpLoad, Dst: r, A: -1, B: -1, Idx: idxReg, Var: name, Line: int32(x.Line), Float: isF})
		return r, nil
	case *minic.UnaryExpr:
		a, err := lw.lowerExpr(x.X)
		if err != nil {
			return -1, err
		}
		r := lw.newReg()
		op := OpNeg
		isF := lw.regFloat[a]
		if x.Op == "!" {
			op = OpNot
			isF = false
		}
		lw.regFloat[r] = isF
		lw.emit(Instr{Op: op, Dst: r, A: a, B: -1, Idx: -1, Line: int32(x.Line), Float: isF})
		return r, nil
	case *minic.BinaryExpr:
		a, err := lw.lowerExpr(x.X)
		if err != nil {
			return -1, err
		}
		b, err := lw.lowerExpr(x.Y)
		if err != nil {
			return -1, err
		}
		return lw.lowerBinaryOp(x.Op, a, b, x.Line)
	case *minic.CallExpr:
		callee := lw.prog.Func(x.Name)
		if callee == nil {
			return -1, fmt.Errorf("ir: line %d: call to unknown function %q", x.Line, x.Name)
		}
		args := make([]Arg, len(x.Args))
		for i, arg := range x.Args {
			if callee.Params[i].IsArray() {
				ref := arg.(*minic.VarRef)
				args[i] = Arg{Reg: -1, Var: lw.resolve(ref.Name)}
				continue
			}
			r, err := lw.lowerExpr(arg)
			if err != nil {
				return -1, err
			}
			args[i] = Arg{Reg: r}
		}
		r := lw.newReg()
		lw.regFloat[r] = callee.Ret == minic.TypeFloat
		lw.emit(Instr{Op: OpCall, Dst: r, A: -1, B: -1, Idx: -1, Float: lw.regFloat[r],
			Line: int32(x.Line), Call: int32(len(lw.fn.Calls))})
		lw.fn.Calls = append(lw.fn.Calls, Call{Callee: x.Name, Args: args})
		return r, nil
	}
	return -1, fmt.Errorf("ir: unknown expression %T", e)
}

func (lw *lowerer) lowerFor(st *minic.ForStmt) error {
	lw.pushScope()
	defer lw.popScope()

	ctrl := ""
	if st.Init != nil {
		lw.beginStmt(st.Line)
		switch init := st.Init.(type) {
		case *minic.DeclStmt:
			name := lw.declareLocal(init.Decl)
			r, err := lw.lowerExpr(init.Decl.Init)
			if err != nil {
				return err
			}
			lw.emit(Instr{Op: OpStore, Dst: -1, A: r, B: -1, Idx: -1, Var: name, Float: lw.varType(name) == minic.TypeFloat})
			ctrl = name
		case *minic.AssignStmt:
			if err := lw.lowerAssign(init); err != nil {
				return err
			}
			if len(init.Target.Indices) == 0 {
				ctrl = lw.resolve(init.Target.Name)
			}
		default:
			return fmt.Errorf("ir: line %d: unsupported for-init", st.Line)
		}
	} else if post, ok := st.Post.(*minic.AssignStmt); ok && len(post.Target.Indices) == 0 {
		ctrl = lw.resolve(post.Target.Name)
	}

	lw.out.Loops[st.ID] = LoopMeta{
		ID: st.ID, Func: lw.fn.Name, Line: st.Line, Depth: lw.loopDepth, CtrlVar: ctrl,
	}
	lw.loopDepth++
	defer func() { lw.loopDepth-- }()

	lw.emit(Instr{Op: OpLoopBegin, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})
	condAt := lw.pc()
	lw.beginStmt(st.Line)
	var condReg int32
	if st.Cond != nil {
		r, err := lw.lowerExpr(st.Cond)
		if err != nil {
			return err
		}
		condReg = r
	} else {
		condReg = lw.newReg()
		lw.emit(Instr{Op: OpConst, Dst: condReg, A: -1, B: -1, Idx: -1, KI: 1})
	}
	cbrAt := lw.emit(Instr{Op: OpCBr, Dst: -1, A: condReg, B: -1, Idx: -1, Line: int32(st.Line)})

	if err := lw.lowerBlock(st.Body); err != nil {
		return err
	}
	if st.Post != nil {
		post, ok := st.Post.(*minic.AssignStmt)
		if !ok {
			return fmt.Errorf("ir: line %d: unsupported for-post", st.Line)
		}
		if err := lw.lowerAssign(post); err != nil {
			return err
		}
	}
	lw.emit(Instr{Op: OpLoopNext, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})
	lw.emit(Instr{Op: OpBr, Dst: -1, A: -1, B: -1, Idx: -1, Target: condAt, Line: int32(st.Line)})
	endAt := lw.pc()
	lw.emit(Instr{Op: OpLoopEnd, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})

	lw.code[cbrAt].Target = cbrAt + 1
	lw.code[cbrAt].Else = endAt
	return nil
}

func (lw *lowerer) lowerWhile(st *minic.WhileStmt) error {
	lw.out.Loops[st.ID] = LoopMeta{
		ID: st.ID, Func: lw.fn.Name, Line: st.Line, Depth: lw.loopDepth, IsWhile: true,
	}
	lw.loopDepth++
	defer func() { lw.loopDepth-- }()

	lw.emit(Instr{Op: OpLoopBegin, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})
	condAt := lw.pc()
	lw.beginStmt(st.Line)
	condReg, err := lw.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	cbrAt := lw.emit(Instr{Op: OpCBr, Dst: -1, A: condReg, B: -1, Idx: -1, Line: int32(st.Line)})
	if err := lw.lowerBlock(st.Body); err != nil {
		return err
	}
	lw.emit(Instr{Op: OpLoopNext, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})
	lw.emit(Instr{Op: OpBr, Dst: -1, A: -1, B: -1, Idx: -1, Target: condAt, Line: int32(st.Line)})
	endAt := lw.pc()
	lw.emit(Instr{Op: OpLoopEnd, Dst: -1, A: -1, B: -1, Idx: -1, LoopID: int32(st.ID), Line: int32(st.Line)})
	lw.code[cbrAt].Target = cbrAt + 1
	lw.code[cbrAt].Else = endAt
	return nil
}

func (lw *lowerer) lowerIf(st *minic.IfStmt) error {
	lw.beginStmt(st.Line)
	condReg, err := lw.lowerExpr(st.Cond)
	if err != nil {
		return err
	}
	cbrAt := lw.emit(Instr{Op: OpCBr, Dst: -1, A: condReg, B: -1, Idx: -1, Line: int32(st.Line)})
	if err := lw.lowerBlock(st.Then); err != nil {
		return err
	}
	if st.Else == nil {
		lw.code[cbrAt].Target = cbrAt + 1
		lw.code[cbrAt].Else = lw.pc()
		return nil
	}
	brAt := lw.emit(Instr{Op: OpBr, Dst: -1, A: -1, B: -1, Idx: -1, Line: int32(st.Line)})
	elseAt := lw.pc()
	if err := lw.lowerBlock(st.Else); err != nil {
		return err
	}
	lw.code[cbrAt].Target = cbrAt + 1
	lw.code[cbrAt].Else = elseAt
	lw.code[brAt].Target = lw.pc()
	return nil
}
