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
	return extract(cus, res, loopID, newRegion(cus, loopID))
}

// region is a loop's statement region (cu.Set.LoopRegionStmts, sorted)
// with a dense membership table indexed by statement ID.
type region struct {
	stmts []int
	in    []bool
}

func newRegion(cus *cu.Set, loopID int) region {
	stmts := cus.LoopRegionStmts(loopID)
	r := region{stmts: stmts}
	if n := len(stmts); n > 0 {
		// Statement IDs are positive (0 marks "no statement").
		r.in = make([]bool, stmts[n-1]+1)
		for _, s := range stmts {
			r.in[s] = true
		}
	}
	return r
}

// has reports whether statement s lies in the region; IDs past the
// table's end never do.
func (r region) has(s int) bool {
	return uint(s) < uint(len(r.in)) && r.in[s]
}

func extract(cus *cu.Set, res *deps.Result, loopID int, r region) Dynamic {
	nInst := 0
	for _, s := range r.stmts {
		if c := cus.ByStmt[s]; c != nil {
			nInst += c.NumInstrs()
		}
	}

	var incoming, internal, outgoing int
	for i := range res.Edges {
		e := &res.Edges[i]
		srcIn, dstIn := r.has(e.SrcStmt), r.has(e.DstStmt)
		switch {
		case srcIn && dstIn:
			internal++
		case dstIn:
			incoming++
		case srcIn:
			outgoing++
		}
	}

	iters := float64(res.Iterations[loopID])
	if iters < 1 {
		iters = 1
	}
	cfl := criticalPath(cus, res, r, iters)
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
func criticalPath(cus *cu.Set, res *deps.Result, r region, iters float64) float64 {
	if len(r.stmts) == 0 {
		return 0
	}
	// idx maps a region statement ID to its position in r.stmts.
	idx := make([]int, len(r.in))
	for i, s := range r.stmts {
		idx[s] = i
	}
	g := graph.New(len(r.stmts))
	selfEdge := make([]bool, len(r.stmts))
	for i := range res.Edges {
		e := &res.Edges[i]
		if e.Kind != deps.RAW || !r.has(e.SrcStmt) || !r.has(e.DstStmt) {
			continue
		}
		if e.SrcStmt == e.DstStmt {
			selfEdge[idx[e.SrcStmt]] = true
			continue
		}
		g.AddEdge(idx[e.SrcStmt], idx[e.DstStmt], 0)
	}
	comp, ncomp := g.SCC()
	compSize := make([]int, ncomp)
	compCyclic := make([]bool, ncomp)
	for i := range r.stmts {
		compSize[comp[i]]++
		if selfEdge[i] {
			compCyclic[comp[i]] = true
		}
	}
	for c := range compCyclic {
		if compSize[c] > 1 {
			compCyclic[c] = true
		}
	}
	weight := make([]float64, ncomp)
	for i, s := range r.stmts {
		if c := cus.ByStmt[s]; c != nil {
			w := float64(c.NumInstrs())
			if compCyclic[comp[i]] {
				w *= iters
			}
			weight[comp[i]] += w
		}
	}
	// Condensation edges.
	cond := graph.New(ncomp)
	seen := map[[2]int]bool{}
	for _, e := range g.Edges() {
		a, b := comp[e.From], comp[e.To]
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		cond.AddEdge(a, b, 0)
	}
	order, ok := cond.TopoSort()
	if !ok {
		// Cannot happen: a condensation is acyclic by construction.
		return weightSum(weight)
	}
	dist := make([]float64, ncomp)
	best := 0.0
	for _, v := range order {
		if dist[v] == 0 {
			dist[v] = weight[v]
		}
		if dist[v] > best {
			best = dist[v]
		}
		for _, e := range cond.Out(v) {
			if cand := dist[v] + weight[e.To]; cand > dist[e.To] {
				dist[e.To] = cand
			}
		}
	}
	return best
}

func weightSum(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
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
	r := newRegion(cus, loopID)
	st := Static{Dynamic: extract(cus, res, loopID, r)}
	st.Depth = float64(prog.Loops[loopID].Depth)
	for other := range prog.Loops {
		if other == loopID {
			continue
		}
		// A loop is inner to this region only when its entire static body
		// lies inside the region (mere overlap would also match ancestors).
		stmts := cus.LoopStmts[other]
		if len(stmts) == 0 {
			continue
		}
		all := true
		for _, s := range stmts {
			if !r.has(s) {
				all = false
				break
			}
		}
		if all {
			st.NumInnerLoops++
		}
	}
	for _, s := range r.stmts {
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
