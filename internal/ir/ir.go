// Package ir defines the three-address intermediate representation the
// pipeline analyzes, plus the lowering from MiniC ASTs and a small set of
// semantics-preserving transformations used for dataset augmentation (the
// paper builds six LLVM-IR variants of each source with different clang
// optimization levels; our transforms play that role).
//
// The IR is a flat instruction list per function with branch targets as
// instruction indices. Every scalar variable and array lives in memory;
// registers are virtual, written by exactly one instruction each (SSA
// within the static code; loops re-execute the defining instruction).
// Loop boundaries are explicit LoopBegin/LoopNext/LoopEnd markers so the
// interpreter and the dependence analyzer need no CFG reconstruction.
// Lowering ends with Resolve, which binds each variable reference to a
// frame slot or global index (Loc) and each callee to a function index,
// so the interpreter never looks up a name.
package ir

import (
	"fmt"
	"slices"

	"mvpar/internal/minic"
)

// Op is an IR opcode.
type Op uint8

// IR opcodes.
const (
	OpConst Op = iota // Dst <- constant
	OpLoad            // Dst <- mem[Var + Idx]
	OpStore           // mem[Var + Idx] <- A
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpCmpEQ
	OpCmpNE
	OpAnd
	OpOr
	OpBr        // unconditional jump to Target
	OpCBr       // if A != 0 jump to Target else to Else
	OpCall      // Dst <- Callee(Args...)
	OpRet       // return A (or nothing when A == -1)
	OpLoopBegin // enter loop LoopID
	OpLoopNext  // next iteration of loop LoopID
	OpLoopEnd   // leave loop LoopID
)

var opNames = [...]string{
	OpConst: "const", OpLoad: "load", OpStore: "store",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not",
	OpCmpLT: "cmplt", OpCmpLE: "cmple", OpCmpGT: "cmpgt", OpCmpGE: "cmpge",
	OpCmpEQ: "cmpeq", OpCmpNE: "cmpne",
	OpAnd: "and", OpOr: "or",
	OpBr: "br", OpCBr: "cbr", OpCall: "call", OpRet: "ret",
	OpLoopBegin: "loop.begin", OpLoopNext: "loop.next", OpLoopEnd: "loop.end",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsArith reports whether the op is a pure arithmetic/logic computation.
func (o Op) IsArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpNeg, OpNot,
		OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE, OpAnd, OpOr:
		return true
	}
	return false
}

// RedOp classifies a reduction statement; RedNone marks ordinary accesses.
type RedOp int8

// Reduction kinds. Subtraction folds into sum reductions.
const (
	RedNone RedOp = iota
	RedSum
	RedProd
)

func (r RedOp) String() string {
	switch r {
	case RedSum:
		return "sum"
	case RedProd:
		return "prod"
	default:
		return "none"
	}
}

// Instr is a single IR instruction. Fields are used per-opcode; unused
// register fields hold -1. A call's callee and arguments sit in its
// function's Calls, so every instruction stays 80 bytes.
type Instr struct {
	Op    Op
	Float bool // constant/result is floating point
	Red   RedOp
	Dst   int32 // destination register
	A, B  int32 // operand registers
	Idx   int32 // register holding the linear element index for load/store (-1 = scalar)
	// Loc is where Resolve found Var (load/store) or, on a for loop's
	// OpLoopBegin, the loop's control variable (LoopMeta.CtrlVar).
	Loc Loc

	Target, Else int32 // branch destinations (instruction indices)

	LoopID int32 // for loop markers
	StmtID int32 // the AST statement this instruction lowers; CU grouping key
	Line   int32 // source line
	Call   int32 // OpCall: the index of its Call in Func.Calls

	Var string
	KI  int64   // integer constant payload
	KF  float64 // float constant payload
}

// Call is the callee and arguments of one OpCall, kept in its
// function's Calls.
type Call struct {
	Callee string
	Args   []Arg
	// Fn is 1 + the index in Program.Funcs of Callee, or 0 when Callee
	// names no function.
	Fn int32
}

// Arg is one call argument: register Reg passed by value, or, with Reg
// -1, the array Var passed by reference, found by Resolve at Loc in the
// caller.
type Arg struct {
	Reg int32
	Var string
	Loc Loc
}

// Loc is a variable's resolved location: Loc k > 0 is slot k-1 of the
// function's frame (its Params, then its Locals), Loc k < 0 is global
// -k-1, and the zero Loc is a name that resolved to nothing.
type Loc int32

// FrameLoc is the Loc of frame slot i.
func FrameLoc(i int) Loc { return Loc(i + 1) }

// GlobalLoc is the Loc of global i.
func GlobalLoc(i int) Loc { return Loc(-i - 1) }

// Var describes a memory-resident variable (scalar or array).
type Var struct {
	Name    string
	Type    minic.Type
	Dims    []int
	HasInit bool    // globals only: constant initializer present
	InitVal float64 // the initializer value when HasInit
}

// Size returns the number of elements (1 for scalars).
func (v Var) Size() int {
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// IsArray reports whether the variable is an array.
func (v Var) IsArray() bool { return len(v.Dims) > 0 }

// Func is a lowered function.
type Func struct {
	Name    string
	Ret     minic.Type
	Params  []Var
	Locals  []Var // declared locals, including loop variables
	Code    []Instr
	Calls   []Call // indexed by the Call of each OpCall in Code
	NumRegs int
}

// LoopMeta records per-loop lowering facts the analyses need.
type LoopMeta struct {
	ID      int
	Func    string
	Line    int
	Depth   int
	CtrlVar string // loop control variable name; "" for while loops
	IsWhile bool
}

// Program is a lowered MiniC program.
type Program struct {
	Name    string
	Globals []Var
	Funcs   []*Func
	Loops   map[int]LoopMeta
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LoopIDs returns all loop IDs in ascending order.
func (p *Program) LoopIDs() []int {
	ids := make([]int, 0, len(p.Loops))
	for id := range p.Loops {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
