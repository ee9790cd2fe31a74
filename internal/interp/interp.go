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
	Line   int
	Func   string
	Frames []LoopFrame
}

// Tracer receives instrumentation events during execution.
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

// MultiTracer fans events out to several tracers.
type MultiTracer []Tracer

// Access implements Tracer.
func (m MultiTracer) Access(a *Access) {
	for _, t := range m {
		t.Access(a)
	}
}

// LoopEnter implements Tracer.
func (m MultiTracer) LoopEnter(id int, instance int64, ctrlAddr uint64, hasCtrl bool) {
	for _, t := range m {
		t.LoopEnter(id, instance, ctrlAddr, hasCtrl)
	}
}

// LoopIter implements Tracer.
func (m MultiTracer) LoopIter(id int, instance, iter int64) {
	for _, t := range m {
		t.LoopIter(id, instance, iter)
	}
}

// LoopExit implements Tracer.
func (m MultiTracer) LoopExit(id int, instance, iters int64) {
	for _, t := range m {
		t.LoopExit(id, instance, iters)
	}
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
	Steps     int64
	LoopIters map[int]int64 // loop ID -> total iterations across all instances
	LoopEnter map[int]int64 // loop ID -> number of dynamic instances
}

// Interp executes one program.
type Interp struct {
	prog   *ir.Program
	tracer Tracer
	limits Limits

	mem       []float64
	globals   map[string]varLoc
	loopStack []LoopFrame
	instSeq   int64
	steps     int64
	depth     int
	stats     Stats
	acc       Access // handed to every tracer Access call
}

// New creates an interpreter. tracer may be nil for untraced execution.
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
	it.globals = make(map[string]varLoc, len(it.prog.Globals))
	it.loopStack = it.loopStack[:0]
	it.steps = 0
	it.instSeq = 0
	it.depth = 0
	it.stats = Stats{LoopIters: map[int]int64{}, LoopEnter: map[int]int64{}}
	for _, g := range it.prog.Globals {
		base, err := it.alloc(g.Size())
		if err != nil {
			return Stats{}, err
		}
		it.globals[g.Name] = varLoc{addr: base, size: g.Size()}
		if g.HasInit {
			it.mem[base] = g.InitVal
		}
	}
	_, span := trace.StartSpan(it.limits.Ctx, "interp.run")
	_, err := it.call(fn, nil, nil)
	span.End()
	recordRunStats(it.stats)
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
	for i := 0; i < n; i++ {
		it.mem = append(it.mem, 0)
	}
	return base, nil
}

// varLoc is where a variable lives: its base address and cell count.
type varLoc struct {
	addr uint64
	size int
}

// call executes fn with scalar argument values args (by value) and array
// bindings arrays (by reference, name -> base address).
func (it *Interp) call(fn *ir.Func, args []float64, arrays map[string]uint64) (float64, error) {
	it.depth++
	defer func() { it.depth-- }()
	if it.depth > it.limits.MaxCallDepth {
		return 0, fmt.Errorf("%w: %q at depth %d", ErrCallDepth, fn.Name, it.depth)
	}
	bind := make(map[string]varLoc, len(fn.Params)+len(fn.Locals))
	for i, p := range fn.Params {
		if p.IsArray() {
			bind[p.Name] = varLoc{addr: arrays[p.Name], size: p.Size()}
			continue
		}
		base, err := it.alloc(1)
		if err != nil {
			return 0, err
		}
		it.mem[base] = args[i]
		bind[p.Name] = varLoc{addr: base, size: 1}
	}
	for _, l := range fn.Locals {
		base, err := it.alloc(l.Size())
		if err != nil {
			return 0, err
		}
		bind[l.Name] = varLoc{addr: base, size: l.Size()}
	}
	resolve := func(name string) (uint64, int, error) {
		if l, ok := bind[name]; ok {
			return l.addr, l.size, nil
		}
		if l, ok := it.globals[name]; ok {
			return l.addr, l.size, nil
		}
		return 0, 0, fmt.Errorf("interp: %s: unknown variable %q", fn.Name, name)
	}

	regs := make([]float64, fn.NumRegs)
	pc := 0
	for pc < len(fn.Code) {
		it.steps++
		if it.steps > it.limits.MaxSteps {
			return 0, ErrBudget
		}
		if it.limits.Ctx != nil && it.steps&(ctxCheckStride-1) == 0 {
			if err := it.limits.Ctx.Err(); err != nil {
				return 0, fmt.Errorf("%w: %w", ErrCancelled, err)
			}
		}
		it.stats.Steps = it.steps
		in := &fn.Code[pc]
		switch in.Op {
		case ir.OpConst:
			if in.Float {
				regs[in.Dst] = in.KF
			} else {
				regs[in.Dst] = float64(in.KI)
			}
		case ir.OpLoad:
			base, size, err := resolve(in.Var)
			if err != nil {
				return 0, err
			}
			off := int64(0)
			if in.Idx >= 0 {
				off = int64(regs[in.Idx])
			}
			if off < 0 || off >= int64(size) {
				return 0, fmt.Errorf("interp: %s line %d: index %d out of range for %q (size %d)",
					fn.Name, in.Line, off, in.Var, size)
			}
			addr := base + uint64(off)
			regs[in.Dst] = it.mem[addr]
			it.trace(addr, false, in, fn.Name)
		case ir.OpStore:
			base, size, err := resolve(in.Var)
			if err != nil {
				return 0, err
			}
			off := int64(0)
			if in.Idx >= 0 {
				off = int64(regs[in.Idx])
			}
			if off < 0 || off >= int64(size) {
				return 0, fmt.Errorf("interp: %s line %d: index %d out of range for %q (size %d)",
					fn.Name, in.Line, off, in.Var, size)
			}
			addr := base + uint64(off)
			v := regs[in.A]
			if !in.Float {
				// Storing into an int variable truncates, matching C.
				v = float64(int64(v))
			}
			it.mem[addr] = v
			it.trace(addr, true, in, fn.Name)
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
			callee := it.prog.Func(in.Callee)
			if callee == nil {
				return 0, fmt.Errorf("interp: call to unknown function %q", in.Callee)
			}
			var cargs []float64
			carrays := map[string]uint64{}
			for i, a := range in.Args {
				if a < 0 {
					src, _, err := resolve(in.ArgVars[i])
					if err != nil {
						return 0, err
					}
					carrays[callee.Params[i].Name] = src
					cargs = append(cargs, 0)
					continue
				}
				cargs = append(cargs, regs[a])
			}
			ret, err := it.call(callee, cargs, carrays)
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
			frame := LoopFrame{ID: in.LoopID, Instance: it.instSeq}
			it.loopStack = append(it.loopStack, frame)
			it.stats.LoopEnter[in.LoopID]++
			if it.tracer != nil {
				meta := it.prog.Loops[in.LoopID]
				var ctrlAddr uint64
				hasCtrl := false
				if meta.CtrlVar != "" {
					if a, _, err := resolve(meta.CtrlVar); err == nil {
						ctrlAddr = a
						hasCtrl = true
					}
				}
				it.tracer.LoopEnter(in.LoopID, frame.Instance, ctrlAddr, hasCtrl)
			}
		case ir.OpLoopNext:
			top := &it.loopStack[len(it.loopStack)-1]
			top.Iter++
			it.stats.LoopIters[in.LoopID]++
			if it.tracer != nil {
				it.tracer.LoopIter(in.LoopID, top.Instance, top.Iter)
			}
		case ir.OpLoopEnd:
			top := it.loopStack[len(it.loopStack)-1]
			it.loopStack = it.loopStack[:len(it.loopStack)-1]
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

func (it *Interp) trace(addr uint64, write bool, in *ir.Instr, fnName string) {
	if it.tracer == nil {
		return
	}
	it.acc = Access{
		Addr:   addr,
		Write:  write,
		Array:  in.Idx >= 0,
		Red:    in.Red,
		StmtID: in.StmtID,
		Line:   in.Line,
		Func:   fnName,
		Frames: it.loopStack,
	}
	it.tracer.Access(&it.acc)
}

// Mem returns the current value at addr; testing hook.
func (it *Interp) Mem(addr uint64) float64 { return it.mem[addr] }

// GlobalValue returns element i of global name after a Run.
func (it *Interp) GlobalValue(name string, i int) (float64, error) {
	l, ok := it.globals[name]
	if !ok {
		return 0, fmt.Errorf("interp: unknown global %q", name)
	}
	return it.mem[l.addr+uint64(i)], nil
}
