// Package interp executes lowered IR programs while emitting the
// instrumentation stream a profiler needs: every memory access with its
// dynamic loop context, and loop enter/iterate/exit events. It plays the
// role of DiscoPoP's phase-1 instrumented execution.
//
// The memory model gives every variable instance a unique address range
// that is never reused — locals of distinct calls get distinct addresses —
// so the dependence analyzer never sees false conflicts between unrelated
// frames. Values are float64 throughout; integer operations truncate per
// ir.EvalArith.
//
// Execution runs on indices: ir.Resolve has bound every variable to a
// frame slot or global index and every callee to a function index, so a
// call binds its frame as a slice on a stack shared by all calls, and no
// access looks up a name. Run counts accesses, writes and per-loop
// iterations and instances in Stats, indexed by loop ID.
package interp

import (
	"context"
	"errors"
	"fmt"

	"mvpar/internal/ir"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// LoopFrame is one entry of the dynamic loop stack: a loop, the serial
// number of this dynamic instance of it, and the current iteration.
type LoopFrame struct {
	ID       int
	Instance int64
	Iter     int64
}

// Access describes one dynamic memory access. Frames aliases the
// interpreter's live loop stack (innermost last).
type Access struct {
	Addr   uint64
	Write  bool
	Array  bool // subscripted (array element) access
	Red    ir.RedOp
	StmtID int
	Frames []LoopFrame
}

// Tracer receives instrumentation events during execution. A run has at
// most one tracer: the dependence analyzer (deps.Analyzer) on the
// profiling path, the iteration-DAG builder in sched. Event volume is
// counted in Stats, not by a tracer.
//
// The interpreter hands every Access call the same *Access, overwritten
// for the next access, and its Frames alias the live loop stack, which
// changes only between a LoopEnter, LoopIter or LoopExit and the next.
// So an implementation must retain neither the *Access nor its Frames
// past the callback; copy out whatever it keeps.
type Tracer interface {
	Access(a *Access)
	LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool)
	LoopIter(id int, instance, iter int64)
	LoopExit(id int, instance, iters int64)
}

// Limits bounds an execution. The zero value of every field selects the
// package-wide default below, so interp.Limits{} means "all defaults" —
// this is the single place the pipeline's execution budgets are defined;
// callers (deps.Analyze, dataset.Build, sched.BuildDAG, core) must not
// restate their own numbers.
type Limits struct {
	MaxSteps     int64 // instruction budget; 0 means DefaultMaxSteps
	MaxMemCells  int64 // allocated memory cells (8 bytes each); 0 means DefaultMaxMemCells
	MaxCallDepth int   // nested call limit; 0 means DefaultMaxCallDepth
	// Ctx, when non-nil, is polled every ctxCheckStride instructions; a
	// done context aborts the run with ErrCancelled wrapping Ctx.Err(), so
	// errors.Is(err, context.DeadlineExceeded) works on timeouts.
	Ctx context.Context
}

// withDefaults fills every unset field with its package default.
func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = DefaultMaxSteps
	}
	if l.MaxMemCells <= 0 {
		l.MaxMemCells = DefaultMaxMemCells
	}
	if l.MaxCallDepth <= 0 {
		l.MaxCallDepth = DefaultMaxCallDepth
	}
	return l
}

// Default execution budgets. Every pipeline layer inherits these via the
// zero value of Limits; there is deliberately no second copy anywhere.
const (
	// DefaultMaxSteps is the default instruction budget per run.
	DefaultMaxSteps = 50_000_000
	// DefaultMaxMemCells caps the interpreter heap at 2^26 float64 cells
	// (512 MiB) — far above any corpus program, low enough that a runaway
	// allocation loop fails fast instead of OOM-killing the process.
	DefaultMaxMemCells = 1 << 26
	// DefaultMaxCallDepth bounds recursion; each frame also allocates its
	// locals, so this mostly protects against infinite recursion long
	// before MaxMemCells would trip.
	DefaultMaxCallDepth = 10_000
)

// ctxCheckStride is how many instructions execute between polls of
// Limits.Ctx; a power of two so the check compiles to a mask.
const ctxCheckStride = 1 << 14

// Sentinel errors distinguishing which limit aborted a run; match with
// errors.Is.
var (
	// ErrBudget is returned when execution exceeds the instruction budget.
	ErrBudget = errors.New("interp: instruction budget exceeded")
	// ErrMem is returned when execution exceeds the memory-cell budget.
	ErrMem = errors.New("interp: memory budget exceeded")
	// ErrCallDepth is returned when execution exceeds the call-depth limit.
	ErrCallDepth = errors.New("interp: call depth limit exceeded")
	// ErrCancelled is returned when Limits.Ctx is cancelled or times out;
	// it wraps the context's own error.
	ErrCancelled = errors.New("interp: execution cancelled")
)

// Stats summarizes a run.
type Stats struct {
	Steps    int64
	Accesses int64 // loads and stores executed
	Writes   int64 // stores executed
	// LoopIters and LoopEnter are indexed by loop ID: total iterations
	// across all instances, and the number of dynamic instances.
	LoopIters []int64
	LoopEnter []int64
}

// Interp executes one program.
type Interp struct {
	prog   *ir.Program
	tracer Tracer
	limits Limits

	mem       []float64
	globals   []varLoc // by global index
	vars      []varLoc // the frames of the live calls, innermost last
	regs      []float64
	loopStack []LoopFrame
	instSeq   int64
	steps     int64
	depth     int
	stats     Stats
	acc       Access // handed to every tracer Access call
}

// New creates an interpreter. tracer may be nil for untraced execution.
// prog must be resolved (ir.Lower resolves what it lowers; see ir.Resolve).
func New(prog *ir.Program, tracer Tracer, limits Limits) *Interp {
	return &Interp{prog: prog, tracer: tracer, limits: limits.withDefaults()}
}

// Run executes the named entry function (no arguments) and returns run
// statistics. A nonexistent entry or exceeded budget is an error.
func (it *Interp) Run(entry string) (Stats, error) {
	fn := it.prog.Func(entry)
	if fn == nil {
		return Stats{}, fmt.Errorf("interp: no function %q", entry)
	}
	if len(fn.Params) != 0 {
		return Stats{}, fmt.Errorf("interp: entry %q must take no parameters", entry)
	}
	if it.limits.Ctx != nil {
		if err := it.limits.Ctx.Err(); err != nil {
			return Stats{}, fmt.Errorf("%w: %w", ErrCancelled, err)
		}
	}
	it.mem = it.mem[:0]
	it.globals = it.globals[:0]
	it.vars = it.vars[:0]
	it.regs = it.regs[:0]
	it.loopStack = it.loopStack[:0]
	it.acc.Frames = it.loopStack
	it.steps = 0
	it.instSeq = 0
	it.depth = 0
	loops := 0
	for id := range it.prog.Loops {
		loops = max(loops, id+1)
	}
	counts := make([]int64, 2*loops)
	it.stats = Stats{LoopIters: counts[:loops:loops], LoopEnter: counts[loops:]}
	for _, g := range it.prog.Globals {
		base, err := it.alloc(g.Size())
		if err != nil {
			return Stats{}, err
		}
		it.globals = append(it.globals, varLoc{addr: base, size: g.Size()})
		if g.HasInit {
			it.mem[base] = g.InitVal
		}
	}
	_, span := trace.StartSpan(it.limits.Ctx, "interp.run")
	_, err := it.call(fn, nil, nil, nil, nil)
	span.End()
	it.stats.Steps = it.steps
	recordRunStats(it.stats, it.tracer != nil, len(it.loopStack))
	if err != nil {
		obs.GetCounter("mvpar_interp_errors_total").Inc()
	}
	return it.stats, err
}

// alloc reserves n zeroed cells and returns the base address. Addresses
// are never reused, so total allocation is monotone and the MaxMemCells
// check here bounds the whole run.
func (it *Interp) alloc(n int) (uint64, error) {
	base := uint64(len(it.mem))
	if int64(len(it.mem))+int64(n) > it.limits.MaxMemCells {
		return 0, fmt.Errorf("%w: %d cells requested over limit %d",
			ErrMem, int64(len(it.mem))+int64(n), it.limits.MaxMemCells)
	}
	it.mem = append(it.mem, make([]float64, n)...)
	return base, nil
}

// varLoc is where a variable lives: its base address and cell count.
type varLoc struct {
	addr uint64
	size int
}

// lookup returns the variable at l in frame, or false for an unresolved
// Loc.
func (it *Interp) lookup(frame []varLoc, l ir.Loc) (varLoc, bool) {
	if l > 0 {
		if i := int(l) - 1; i < len(frame) {
			return frame[i], true
		}
	} else if l < 0 {
		if i := -int(l) - 1; i < len(it.globals) {
			return it.globals[i], true
		}
	}
	return varLoc{}, false
}

func unknownVar(fn, name string) error {
	return fmt.Errorf("interp: %s: unknown variable %q", fn, name)
}

// call executes fn. For a call from site, a call of caller whose frame
// and registers are callerVars and callerRegs, it binds fn's scalar
// params to the argument registers' values (by value) and its array
// params to the argument arrays (by reference, by position). The entry
// call has no site.
func (it *Interp) call(fn *ir.Func, site *ir.Call, caller *ir.Func, callerVars []varLoc, callerRegs []float64) (float64, error) {
	it.depth++
	vbase, rbase := len(it.vars), len(it.regs)
	ret, err := it.exec(fn, site, caller, callerVars, callerRegs)
	it.depth--
	it.vars, it.regs = it.vars[:vbase], it.regs[:rbase]
	return ret, err
}

// exec binds fn's frame on top of the frame stack and runs its body. A
// nested call may move the stacks, but a frame is never written after it
// is bound and registers are written only through this call's own slice,
// so the slices taken here stay valid.
func (it *Interp) exec(fn *ir.Func, site *ir.Call, caller *ir.Func, callerVars []varLoc, callerRegs []float64) (float64, error) {
	if it.depth > it.limits.MaxCallDepth {
		return 0, fmt.Errorf("%w: %q at depth %d", ErrCallDepth, fn.Name, it.depth)
	}
	vbase, nv := len(it.vars), len(fn.Params)+len(fn.Locals)
	it.vars = append(it.vars, make([]varLoc, nv)...)
	vars := it.vars[vbase : vbase+nv : vbase+nv]
	for i, p := range fn.Params {
		arg := &site.Args[i]
		if p.IsArray() {
			src, ok := it.lookup(callerVars, arg.Loc)
			if !ok {
				return 0, unknownVar(caller.Name, arg.Var)
			}
			vars[i] = varLoc{addr: src.addr, size: p.Size()}
			continue
		}
		base, err := it.alloc(1)
		if err != nil {
			return 0, err
		}
		it.mem[base] = callerRegs[arg.Reg]
		vars[i] = varLoc{addr: base, size: 1}
	}
	for i, l := range fn.Locals {
		base, err := it.alloc(l.Size())
		if err != nil {
			return 0, err
		}
		vars[len(fn.Params)+i] = varLoc{addr: base, size: l.Size()}
	}
	rbase := len(it.regs)
	it.regs = append(it.regs, make([]float64, fn.NumRegs)...)
	regs := it.regs[rbase : rbase+fn.NumRegs : rbase+fn.NumRegs]

	pc := int32(0)
	for int(pc) < len(fn.Code) {
		it.steps++
		if it.steps > it.limits.MaxSteps {
			it.steps--
			return 0, ErrBudget
		}
		if it.limits.Ctx != nil && it.steps&(ctxCheckStride-1) == 0 {
			if err := it.limits.Ctx.Err(); err != nil {
				it.steps--
				return 0, fmt.Errorf("%w: %w", ErrCancelled, err)
			}
		}
		in := &fn.Code[pc]
		switch in.Op {
		case ir.OpConst:
			if in.Float {
				regs[in.Dst] = in.KF
			} else {
				regs[in.Dst] = float64(in.KI)
			}
		case ir.OpLoad:
			v, ok := it.lookup(vars, in.Loc)
			if !ok {
				return 0, unknownVar(fn.Name, in.Var)
			}
			off := int64(0)
			if in.Idx >= 0 {
				off = int64(regs[in.Idx])
			}
			if off < 0 || off >= int64(v.size) {
				return 0, fmt.Errorf("interp: %s line %d: index %d out of range for %q (size %d)",
					fn.Name, in.Line, off, in.Var, v.size)
			}
			addr := v.addr + uint64(off)
			regs[in.Dst] = it.mem[addr]
			it.stats.Accesses++
			if it.tracer != nil {
				it.trace(addr, false, in)
			}
		case ir.OpStore:
			v, ok := it.lookup(vars, in.Loc)
			if !ok {
				return 0, unknownVar(fn.Name, in.Var)
			}
			off := int64(0)
			if in.Idx >= 0 {
				off = int64(regs[in.Idx])
			}
			if off < 0 || off >= int64(v.size) {
				return 0, fmt.Errorf("interp: %s line %d: index %d out of range for %q (size %d)",
					fn.Name, in.Line, off, in.Var, v.size)
			}
			addr := v.addr + uint64(off)
			val := regs[in.A]
			if !in.Float {
				// Storing into an int variable truncates, matching C.
				val = float64(int64(val))
			}
			it.mem[addr] = val
			it.stats.Accesses++
			it.stats.Writes++
			if it.tracer != nil {
				it.trace(addr, true, in)
			}
		case ir.OpBr:
			pc = in.Target
			continue
		case ir.OpCBr:
			if regs[in.A] != 0 {
				pc = in.Target
			} else {
				pc = in.Else
			}
			continue
		case ir.OpCall:
			site := &fn.Calls[in.Call]
			if site.Fn <= 0 || int(site.Fn) > len(it.prog.Funcs) {
				return 0, fmt.Errorf("interp: call to unknown function %q", site.Callee)
			}
			ret, err := it.call(it.prog.Funcs[site.Fn-1], site, fn, vars, regs)
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = ret
		case ir.OpRet:
			if in.A >= 0 {
				return regs[in.A], nil
			}
			return 0, nil
		case ir.OpLoopBegin:
			it.instSeq++
			id := int(in.LoopID)
			it.loopStack = append(it.loopStack, LoopFrame{ID: id, Instance: it.instSeq})
			it.acc.Frames = it.loopStack
			if id >= len(it.stats.LoopEnter) {
				it.growLoops(id + 1)
			}
			it.stats.LoopEnter[id]++
			if it.tracer != nil {
				ctrl, hasCtrl := it.lookup(vars, in.Loc)
				it.tracer.LoopEnter(id, it.instSeq, ctrl.addr, hasCtrl)
			}
		case ir.OpLoopNext:
			top := &it.loopStack[len(it.loopStack)-1]
			top.Iter++
			it.stats.LoopIters[in.LoopID]++
			if it.tracer != nil {
				it.tracer.LoopIter(int(in.LoopID), top.Instance, top.Iter)
			}
		case ir.OpLoopEnd:
			top := it.loopStack[len(it.loopStack)-1]
			it.loopStack = it.loopStack[:len(it.loopStack)-1]
			it.acc.Frames = it.loopStack
			// The final partial pass through the body (the one whose
			// condition failed) did not reach LoopNext, so Iter equals the
			// number of completed iterations.
			if it.tracer != nil {
				it.tracer.LoopExit(top.ID, top.Instance, top.Iter)
			}
		default:
			if in.Op.IsArith() {
				var b float64
				if in.B >= 0 {
					b = regs[in.B]
				}
				regs[in.Dst] = ir.EvalArith(in.Op, in.Float, regs[in.A], b)
			} else {
				return 0, fmt.Errorf("interp: %s: unexecutable op %v", fn.Name, in.Op)
			}
		}
		pc++
	}
	return 0, nil
}

// growLoops widens the per-loop counts to n loop IDs, for a loop that
// Program.Loops does not list.
func (it *Interp) growLoops(n int) {
	it.stats.LoopIters = append(it.stats.LoopIters, make([]int64, n-len(it.stats.LoopIters))...)
	it.stats.LoopEnter = append(it.stats.LoopEnter, make([]int64, n-len(it.stats.LoopEnter))...)
}

// trace hands the tracer one access. Frames already aliases the loop
// stack: it is reset wherever the stack is pushed or popped.
func (it *Interp) trace(addr uint64, write bool, in *ir.Instr) {
	a := &it.acc
	a.Addr = addr
	a.Write = write
	a.Array = in.Idx >= 0
	a.Red = in.Red
	a.StmtID = int(in.StmtID)
	it.tracer.Access(a)
}

// GlobalValue returns element i of global name after a Run.
func (it *Interp) GlobalValue(name string, i int) (float64, error) {
	for g := len(it.prog.Globals) - 1; g >= 0; g-- {
		if it.prog.Globals[g].Name == name && g < len(it.globals) {
			return it.mem[it.globals[g].addr+uint64(i)], nil
		}
	}
	return 0, fmt.Errorf("interp: unknown global %q", name)
}
