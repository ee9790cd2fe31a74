package minic

// Type is a MiniC value type.
type Type int

// MiniC types. Arrays are typed by element type plus dimension sizes held
// on the declaration.
const (
	TypeVoid Type = iota
	TypeInt
	TypeFloat
)

func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	default:
		return "void"
	}
}

// Program is a parsed MiniC translation unit.
type Program struct {
	Name    string // source name, used in diagnostics and dataset IDs
	Globals []*VarDecl
	Funcs   []*FuncDecl
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// VarDecl declares a scalar or array variable. Dims is empty for scalars,
// and holds 1 or 2 constant sizes for arrays.
type VarDecl struct {
	Name string
	Type Type
	Dims []int
	Init Expr // optional scalar initializer
	Line int
}

// IsArray reports whether the declaration is an array.
func (v *VarDecl) IsArray() bool { return len(v.Dims) > 0 }

// FuncDecl declares a function.
type FuncDecl struct {
	Name   string
	Ret    Type
	Params []*VarDecl // scalars or arrays (arrays passed by reference)
	Body   *BlockStmt
	Line   int
}

// Stmt is a MiniC statement.
type Stmt interface{ stmtNode() }

// Expr is a MiniC expression.
type Expr interface{ exprNode() }

// BlockStmt is a { ... } statement list.
type BlockStmt struct {
	Stmts []Stmt
	Line  int
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt assigns Value to Target; Op is "=", "+=", "-=", "*=" or "/=".
type AssignStmt struct {
	Target *LValue
	Op     string
	Value  Expr
	Line   int
}

// ForStmt is a counted loop: for (Init; Cond; Post) Body. ID is assigned
// by the parser, unique per program, and is the identity the whole
// pipeline uses for "this loop".
type ForStmt struct {
	ID   int
	Init Stmt // nil, DeclStmt or AssignStmt
	Cond Expr // nil means true
	Post Stmt // nil or AssignStmt
	Body *BlockStmt
	Line int
}

// WhileStmt is a while loop; it is treated as a loop region like ForStmt.
type WhileStmt struct {
	ID   int
	Cond Expr
	Body *BlockStmt
	Line int
}

// IfStmt is a conditional with an optional else branch.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // nil if absent
	Line int
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	Value Expr // nil for void return
	Line  int
}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
}

func (*BlockStmt) stmtNode()  {}
func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*ForStmt) stmtNode()    {}
func (*WhileStmt) stmtNode()  {}
func (*IfStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}

// LValue is an assignable location: a scalar variable or an array element.
type LValue struct {
	Name    string
	Indices []Expr // empty for scalars; 1 or 2 entries for arrays
	Line    int
}

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Line  int
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Line  int
}

// VarRef reads a scalar variable or, with Indices, an array element.
type VarRef struct {
	Name    string
	Indices []Expr
	Line    int
}

// BinaryExpr applies Op ("+", "-", "*", "/", "%", "<", "<=", ">", ">=",
// "==", "!=", "&&", "||") to X and Y.
type BinaryExpr struct {
	Op   string
	X, Y Expr
	Line int
}

// UnaryExpr applies Op ("-" or "!") to X.
type UnaryExpr struct {
	Op   string
	X    Expr
	Line int
}

// CallExpr calls a function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*VarRef) exprNode()     {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}

// Loops returns every for/while loop in the program in source order,
// including nested loops.
func (p *Program) Loops() []LoopInfo {
	var loops []LoopInfo
	for _, f := range p.Funcs {
		collectLoops(f.Body, f.Name, 0, &loops)
	}
	return loops
}

// LoopInfo identifies a loop in a program.
type LoopInfo struct {
	ID    int
	Func  string
	Line  int
	Depth int // nesting depth, 0 for outermost
}

func collectLoops(s Stmt, fn string, depth int, out *[]LoopInfo) {
	switch st := s.(type) {
	case *BlockStmt:
		for _, c := range st.Stmts {
			collectLoops(c, fn, depth, out)
		}
	case *ForStmt:
		*out = append(*out, LoopInfo{ID: st.ID, Func: fn, Line: st.Line, Depth: depth})
		collectLoops(st.Body, fn, depth+1, out)
	case *WhileStmt:
		*out = append(*out, LoopInfo{ID: st.ID, Func: fn, Line: st.Line, Depth: depth})
		collectLoops(st.Body, fn, depth+1, out)
	case *IfStmt:
		collectLoops(st.Then, fn, depth, out)
		if st.Else != nil {
			collectLoops(st.Else, fn, depth, out)
		}
	}
}
