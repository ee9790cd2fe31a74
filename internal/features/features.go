// Package features computes the per-loop dynamic features of Table I of
// the paper (N_Inst, exec_times, CFL, ESP, incoming/internal/outgoing
// dependence counts) plus the hand-crafted static feature vector used by
// the classic ML baselines (SVM, decision tree, AdaBoost — Fried et al.).
//
// Feature extraction deliberately does not consult the oracle verdict:
// carried and loop-independent dependences are counted alike, so the
// label is never directly encoded in a feature.
package features

import (
	"math"
	"slices"

	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/graph"
	"mvpar/internal/ir"
)

// MaxThreads caps the estimated speedup (ESP), playing the role of the
// paper's hardware thread count in the Amdahl heuristic.
const MaxThreads = 32

// Dynamic is the Table-I feature set for one loop.
type Dynamic struct {
	NInst       float64 // number of IR instructions in the loop region
	ExecTimes   float64 // total iterations executed
	CFL         float64 // critical path length (instructions)
	ESP         float64 // estimated speedup (Amdahl heuristic)
	IncomingDep float64 // deps entering the region
	InternalDep float64 // deps inside the region
	OutgoingDep float64 // deps leaving the region
}

// Vector returns the features as a fixed-order slice.
func (d Dynamic) Vector() []float64 {
	return []float64{d.NInst, d.ExecTimes, d.CFL, d.ESP, d.IncomingDep, d.InternalDep, d.OutgoingDep}
}

// NumDynamic is the dimension of Dynamic.Vector.
const NumDynamic = 7

// Names lists the feature names in Vector order (Table I).
var Names = []string{"N_Inst", "exec_times", "CFL", "ESP", "incoming_dep", "internal_dep", "outgoing_dep"}

// Extract computes the dynamic feature set for loopID.
func Extract(prog *ir.Program, cus *cu.Set, res *deps.Result, loopID int) Dynamic {
	return extract(cus, res, loopID, cus.LoopRegionStmts(loopID))
}

// find returns the position of statement s in the ascending region
// stmts, or -1 if s is not in the region.
func find(stmts []int, s int) int {
	if i, ok := slices.BinarySearch(stmts, s); ok {
		return i
	}
	return -1
}

// extract computes loopID's Table-I features from its region stmts
// (cu.Set.LoopRegionStmts). It visits only the dependence edges that
// touch the region, through the result's by-statement edge index.
func extract(cus *cu.Set, res *deps.Result, loopID int, stmts []int) Dynamic {
	nInst := 0
	for _, s := range stmts {
		if c := cus.ByStmt[s]; c != nil {
			nInst += c.NumInstrs()
		}
	}

	var incoming, internal, outgoing int
	for _, s := range stmts {
		out := res.EdgesFrom(s)
		for i := range out {
			if find(stmts, out[i].DstStmt) >= 0 {
				internal++
			} else {
				outgoing++
			}
		}
		for _, i := range res.EdgesInto(s) {
			if find(stmts, res.Edges[i].SrcStmt) < 0 {
				incoming++
			}
		}
	}

	iters := float64(res.Iterations[loopID])
	if iters < 1 {
		iters = 1
	}
	cfl := criticalPath(cus, res, stmts, iters)
	// Amdahl heuristic over the dynamic dependency graph: total work is
	// the body cost across all iterations; the critical path stretches
	// with the iteration count wherever statements form dependence cycles
	// (recurrences), so DoALL loops estimate wide and recurrences narrow.
	work := float64(nInst) * iters
	esp := 1.0
	if cfl > 0 {
		esp = math.Min(MaxThreads, work/cfl)
	}
	if esp < 1 {
		esp = 1
	}

	return Dynamic{
		NInst:       float64(nInst),
		ExecTimes:   float64(res.Iterations[loopID]),
		CFL:         cfl,
		ESP:         esp,
		IncomingDep: float64(incoming),
		InternalDep: float64(internal),
		OutgoingDep: float64(outgoing),
	}
}

// criticalPath computes the longest chain of flow-dependent statements in
// the loop region, weighted by instruction counts. Statements on
// dependence cycles — a recurrence's self-edge, or a multi-statement
// cycle — execute serially across iterations, so their weight is
// multiplied by the iteration count; acyclic statements count once.
// Every array it builds is sized by the region.
func criticalPath(cus *cu.Set, res *deps.Result, stmts []int, iters float64) float64 {
	n := len(stmts)
	if n == 0 {
		return 0
	}
	bound := 0 // region out-edges, a bound on the RAW edges kept
	for _, s := range stmts {
		bound += len(res.EdgesFrom(s))
	}
	ints := make([]int, 3*n+2+bound)
	flags := make([]bool, 2*n)
	floats := make([]float64, 2*n)

	// The RAW edges between distinct region statements in CSR form over
	// region positions, each statement's successors in Edges order.
	off, succ := ints[:n+1:n+1], ints[n+1:n+1:n+1+bound]
	selfEdge := flags[:n:n]
	for i, s := range stmts {
		out := res.EdgesFrom(s)
		for k := range out {
			if out[k].Kind != deps.RAW {
				continue
			}
			j := find(stmts, out[k].DstStmt)
			switch {
			case j < 0:
			case j == i:
				selfEdge[i] = true
			default:
				succ = append(succ, j)
			}
		}
		off[i+1] = len(succ)
	}
	comp, ncomp := graph.SCC(off, succ)

	// Group the statements by component: component c's members are
	// members[start[c]:start[c+1]].
	start, members := ints[n+1+bound:2*n+2+bound], ints[2*n+2+bound:]
	for i := range stmts {
		start[comp[i]+1]++
	}
	for c := 0; c < ncomp; c++ {
		start[c+1] += start[c]
	}
	for i := range stmts {
		members[start[comp[i]]] = i
		start[comp[i]]++
	}
	copy(start[1:], start[:ncomp])
	start[0] = 0
	// A component is cyclic when it has several statements or a
	// self-edge.
	compCyclic := flags[n:]
	for i := range stmts {
		if selfEdge[i] || start[comp[i]+1]-start[comp[i]] > 1 {
			compCyclic[comp[i]] = true
		}
	}
	weight, dist := floats[:n], floats[n:]
	for i, s := range stmts {
		if c := cus.ByStmt[s]; c != nil {
			w := float64(c.NumInstrs())
			if compCyclic[comp[i]] {
				w *= iters
			}
			weight[comp[i]] += w
		}
	}
	// Longest path over the condensation. SCC numbers components in
	// reverse topological order, so descending component numbers are a
	// topological order; relaxing every cross-component edge in it is
	// the condensation's longest path (a repeated edge relaxes to the
	// same value).
	best := 0.0
	for c := ncomp - 1; c >= 0; c-- {
		if dist[c] == 0 {
			dist[c] = weight[c]
		}
		if dist[c] > best {
			best = dist[c]
		}
		for _, i := range members[start[c]:start[c+1]] {
			for _, j := range succ[off[i]:off[i+1]] {
				if to := comp[j]; to != c {
					if cand := dist[c] + weight[to]; cand > dist[to] {
						dist[to] = cand
					}
				}
			}
		}
	}
	return best
}

// Static is the hand-crafted per-loop feature vector for the classic ML
// baselines: the Table-I dynamics plus structural counts a 2013-era
// feature engineer would add.
type Static struct {
	Dynamic
	NumCUs        float64
	NumArrayReads float64
	NumArrayWrite float64
	HasCall       float64
	Depth         float64
	NumInnerLoops float64
	NumReductions float64
}

// NumStatic is the dimension of Static.Vector.
const NumStatic = NumDynamic + 7

// Vector returns the combined feature slice (length NumStatic).
func (s Static) Vector() []float64 {
	return append(s.Dynamic.Vector(),
		s.NumCUs, s.NumArrayReads, s.NumArrayWrite, s.HasCall, s.Depth, s.NumInnerLoops, s.NumReductions)
}

// ExtractStatic computes the full hand-crafted vector for loopID.
func ExtractStatic(prog *ir.Program, cus *cu.Set, res *deps.Result, loopID int) Static {
	stmts := cus.LoopRegionStmts(loopID)
	st := Static{Dynamic: extract(cus, res, loopID, stmts)}
	st.Depth = float64(prog.Loops[loopID].Depth)
	// A loop is inner to this region only when its entire static body lies
	// inside the region (mere overlap would also match ancestors).
	st.NumInnerLoops = float64(cus.InnerLoops(loopID))
	for _, s := range stmts {
		c := cus.ByStmt[s]
		if c == nil {
			continue
		}
		st.NumCUs++
		if c.HasCall {
			st.HasCall = 1
		}
		if c.Reduction != ir.RedNone {
			st.NumReductions++
		}
		for _, in := range c.Instrs {
			if in.Idx < 0 {
				continue
			}
			switch in.Op {
			case ir.OpLoad:
				st.NumArrayReads++
			case ir.OpStore:
				st.NumArrayWrite++
			}
		}
	}
	return st
}

// Normalize applies a log1p squash to count-like features so the classic
// models and the GNN node features see comparable magnitudes.
func Normalize(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Log1p(math.Abs(x))
		if x < 0 {
			out[i] = -out[i]
		}
	}
	return out
}
