// Package cu builds computational units (CUs) from lowered IR, mirroring
// DiscoPoP's phase-1 CU construction. A CU is the read-compute-write chain
// of one source statement: all IR instructions sharing a statement ID.
// CUs are the granularity at which the program execution graph (PEG)
// represents code.
package cu

import (
	"context"
	"slices"
	"sort"

	"mvpar/internal/ir"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
)

// CU is one computational unit.
type CU struct {
	StmtID int    // unique statement ID (the CU identity)
	Func   string // declaring function
	Line   int    // source line
	Instrs []ir.Instr
	// LoopID is the innermost loop statically containing the CU, 0 if none.
	LoopID int
	// LoopPath lists enclosing loops outermost-first (static nesting).
	LoopPath []int
	// Reads and Writes are the variable names accessed.
	Reads  []string
	Writes []string
	// HasCall reports whether the CU performs a function call.
	HasCall bool
	// Callees lists the called function names.
	Callees []string
	// Reduction is non-none when the CU is a tagged reduction statement.
	Reduction ir.RedOp
}

// NumInstrs returns the instruction count of the CU.
func (c *CU) NumInstrs() int { return len(c.Instrs) }

// Set is the complete CU partition of a program, with the region index
// the per-loop encoders read: built once by Build, so each loop's lookups
// cost time in the loop's region rather than in the whole program.
type Set struct {
	CUs    []*CU
	ByStmt map[int]*CU
	// LoopStmts maps loop ID to the statement IDs statically inside it
	// (including statements of nested loops, excluding called functions).
	LoopStmts map[int][]int
	// FuncStmts maps function name to its statement IDs.
	FuncStmts map[string][]int
	// Calls maps function name to the set of functions it calls.
	Calls map[string]map[string]bool

	pos     []int32  // statement ID -> index into CUs, -1 if none
	loopIDs []int    // the program's loop IDs, ascending
	regions []region // parallel to loopIDs
}

// region is one loop's entry in the region index.
type region struct {
	stmts []int // LoopRegionStmts
	loops []int // RegionLoops
	inner int   // InnerLoops
}

// Build partitions prog into CUs and indexes every loop's region.
func Build(prog *ir.Program) *Set {
	_, span := trace.StartSpan(context.Background(), "cu.build")
	defer span.End()
	s := &Set{
		LoopStmts: map[int][]int{},
		FuncStmts: map[string][]int{},
		Calls:     map[string]map[string]bool{},
	}
	// Count each statement's instructions, and the loop depth where it
	// first appears, so that every CU's Instrs and LoopPath are full
	// windows of shared backing arrays, and the CUs themselves one slice.
	maxStmt, total := 0, 0
	for _, fn := range prog.Funcs {
		for _, in := range fn.Code {
			if inCU(in) {
				maxStmt = max(maxStmt, int(in.StmtID))
				total++
			}
		}
	}
	s.pos = make([]int32, maxStmt+1)
	nStmts, pathLen := 0, 0
	for _, fn := range prog.Funcs {
		depth := 0
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				depth++
			case ir.OpLoopEnd:
				depth--
			}
			if inCU(in) {
				if s.pos[in.StmtID] == 0 {
					nStmts++
					pathLen += depth
				}
				s.pos[in.StmtID]++
			}
		}
	}
	instrs := make([]ir.Instr, total)
	paths := make([]int, pathLen)
	units := make([]CU, nStmts)
	s.CUs = make([]*CU, 0, nStmts)
	s.ByStmt = make(map[int]*CU, nStmts)
	// seen[stmt] is 1 + the index of the last function the statement
	// was seen in.
	seen := make([]int32, maxStmt+1)
	for fi, fn := range prog.Funcs {
		var loopStack []int
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				loopStack = append(loopStack, int(in.LoopID))
				continue
			case ir.OpLoopEnd:
				loopStack = loopStack[:len(loopStack)-1]
				continue
			}
			if !inCU(in) {
				continue
			}
			stmt := int(in.StmtID)
			c := s.ByStmt[stmt]
			if c == nil {
				n := int(s.pos[stmt])
				c = &units[len(s.CUs)]
				*c = CU{
					StmtID: stmt,
					Func:   fn.Name,
					Line:   int(in.Line),
					Instrs: instrs[:0:n],
				}
				instrs = instrs[n:]
				if d := len(loopStack); d > 0 {
					c.LoopPath = paths[:d:d]
					copy(c.LoopPath, loopStack)
					paths = paths[d:]
					c.LoopID = loopStack[d-1]
				}
				s.ByStmt[stmt] = c
				s.CUs = append(s.CUs, c)
			}
			c.Instrs = append(c.Instrs, in)
			switch in.Op {
			case ir.OpLoad:
				c.Reads = appendUnique(c.Reads, in.Var)
				if in.Red != ir.RedNone {
					c.Reduction = in.Red
				}
			case ir.OpStore:
				c.Writes = appendUnique(c.Writes, in.Var)
				if in.Red != ir.RedNone {
					c.Reduction = in.Red
				}
			case ir.OpCall:
				callee := fn.Calls[in.Call].Callee
				c.HasCall = true
				c.Callees = appendUnique(c.Callees, callee)
				callees := s.Calls[fn.Name]
				if callees == nil {
					callees = map[string]bool{}
					s.Calls[fn.Name] = callees
				}
				callees[callee] = true
			}
			if seen[stmt] != int32(fi+1) {
				seen[stmt] = int32(fi + 1)
				s.FuncStmts[fn.Name] = append(s.FuncStmts[fn.Name], stmt)
				for _, l := range loopStack {
					s.LoopStmts[l] = append(s.LoopStmts[l], stmt)
				}
			}
		}
	}
	sort.Slice(s.CUs, func(i, j int) bool { return s.CUs[i].StmtID < s.CUs[j].StmtID })
	for i := range s.pos {
		s.pos[i] = -1
	}
	for i, c := range s.CUs {
		s.pos[c.StmtID] = int32(i)
	}
	s.indexRegions(prog)
	obs.GetCounter("mvpar_cu_builds_total").Inc()
	obs.GetCounter("mvpar_cu_units_total").Add(int64(len(s.CUs)))
	return s
}

// inCU reports whether in belongs to a CU: it carries a statement ID and
// is not loop or branch bookkeeping.
func inCU(in ir.Instr) bool {
	switch in.Op {
	case ir.OpLoopBegin, ir.OpLoopEnd, ir.OpLoopNext, ir.OpBr:
		return false
	}
	return in.StmtID != 0
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// indexRegions fills the region index: for every loop, the statements of
// its dynamic extent (its static body plus the bodies of every function
// reachable from calls inside it) and the other loops whose static bodies
// share statements with that extent.
func (s *Set) indexRegions(prog *ir.Program) {
	s.loopIDs = prog.LoopIDs()
	s.regions = make([]region, len(s.loopIDs))

	// The static call graph over function indices.
	funcIdx := map[string]int{}
	var funcs []string
	idx := func(name string) int {
		i, ok := funcIdx[name]
		if !ok {
			i = len(funcs)
			funcIdx[name] = i
			funcs = append(funcs, name)
		}
		return i
	}
	for _, fn := range prog.Funcs {
		idx(fn.Name)
	}
	calls := map[int][]int{}
	for f, callees := range s.Calls {
		fi := idx(f)
		for c := range callees {
			calls[fi] = append(calls[fi], idx(c))
		}
	}

	// loopsOf[stmt] lists the positions in loopIDs of the loops whose
	// static body holds stmt (CSR over statement IDs).
	off := make([]int32, len(s.pos)+1)
	for _, l := range s.loopIDs {
		for _, st := range s.LoopStmts[l] {
			off[st+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	loopsOf := make([]int32, off[len(off)-1])
	fill := append([]int32(nil), off[:len(off)-1]...)
	for li, l := range s.loopIDs {
		for _, st := range s.LoopStmts[l] {
			loopsOf[fill[st]] = int32(li)
			fill[st]++
		}
	}

	visited := make([]int, len(funcs)) // li+1 once function visited for loop li
	shared := make([]int, len(s.loopIDs))
	var stack, touched, stmts, loops []int
	for li, l := range s.loopIDs {
		body := s.LoopStmts[l]
		start := len(stmts)
		stmts = append(stmts, body...)
		stack = stack[:0]
		for _, st := range body {
			if c := s.ByStmt[st]; c != nil && c.HasCall {
				for _, callee := range c.Callees {
					stack = append(stack, funcIdx[callee])
				}
			}
		}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[f] == li+1 {
				continue
			}
			visited[f] = li + 1
			stmts = append(stmts, s.FuncStmts[funcs[f]]...)
			stack = append(stack, calls[f]...)
		}
		r := stmts[start:]
		slices.Sort(r)
		r = slices.Compact(r)
		stmts = stmts[:start+len(r)]
		r = stmts[start:len(stmts):len(stmts)]

		// Count, per other loop, the region statements of its body.
		touched = touched[:0]
		for _, st := range r {
			for _, lj := range loopsOf[off[st]:off[st+1]] {
				if int(lj) == li {
					continue
				}
				if shared[lj] == 0 {
					touched = append(touched, int(lj))
				}
				shared[lj]++
			}
		}
		slices.Sort(touched)
		lstart := len(loops)
		inner := 0
		for _, lj := range touched {
			loops = append(loops, s.loopIDs[lj])
			if shared[lj] == len(s.LoopStmts[s.loopIDs[lj]]) {
				inner++
			}
			shared[lj] = 0
		}
		s.regions[li] = region{stmts: r, loops: loops[lstart:len(loops):len(loops)], inner: inner}
	}
}

// Index returns the position in CUs of the CU of statement stmt, or -1
// if no CU has that statement ID.
func (s *Set) Index(stmt int) int {
	if uint(stmt) >= uint(len(s.pos)) {
		return -1
	}
	return int(s.pos[stmt])
}

// LoopIDs returns the program's loop IDs in ascending order. The slice
// is shared and read-only.
func (s *Set) LoopIDs() []int { return s.loopIDs }

// regionOf returns loopID's entry in the region index, or nil for an
// unknown loop.
func (s *Set) regionOf(loopID int) *region {
	i, ok := slices.BinarySearch(s.loopIDs, loopID)
	if !ok {
		return nil
	}
	return &s.regions[i]
}

// LoopRegionStmts returns the statement IDs belonging to the dynamic
// extent of a loop, ascending and distinct: its static body plus the
// bodies of every function reachable from calls inside that body. The
// slice is shared and read-only.
func (s *Set) LoopRegionStmts(loopID int) []int {
	if r := s.regionOf(loopID); r != nil {
		return r.stmts
	}
	return nil
}

// RegionLoops returns, ascending, the other loops whose static body
// shares at least one statement with loopID's region: the loops nested
// in it or in the functions it calls, and its enclosing loops. The slice
// is shared and read-only.
func (s *Set) RegionLoops(loopID int) []int {
	if r := s.regionOf(loopID); r != nil {
		return r.loops
	}
	return nil
}

// InnerLoops returns how many of RegionLoops(loopID) lie wholly inside
// loopID's region: a non-empty static body every statement of which is
// in the region. Enclosing loops only overlap it.
func (s *Set) InnerLoops(loopID int) int {
	if r := s.regionOf(loopID); r != nil {
		return r.inner
	}
	return 0
}
