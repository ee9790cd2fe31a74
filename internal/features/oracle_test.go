package features

import (
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/graph"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
)

// The extraction the region and edge indexes replaced, kept as the
// oracle: a dense membership table per region, a scan over every
// dependence edge of the program, and the critical path on graph.Directed
// values with an explicit condensation and TopoSort.

type oracleRegion struct {
	stmts []int
	in    []bool
}

func newOracleRegion(stmts []int) oracleRegion {
	r := oracleRegion{stmts: stmts}
	if n := len(stmts); n > 0 {
		r.in = make([]bool, stmts[n-1]+1)
		for _, s := range stmts {
			r.in[s] = true
		}
	}
	return r
}

func (r oracleRegion) has(s int) bool { return uint(s) < uint(len(r.in)) && r.in[s] }

func oracleStatic(prog *ir.Program, cus *cu.Set, res *deps.Result, loopID int, stmts []int) Static {
	r := newOracleRegion(stmts)
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
	cfl := oracleCriticalPath(cus, res, r, iters)
	work := float64(nInst) * iters
	esp := 1.0
	if cfl > 0 {
		esp = math.Min(MaxThreads, work/cfl)
	}
	if esp < 1 {
		esp = 1
	}
	st := Static{Dynamic: Dynamic{
		NInst: float64(nInst), ExecTimes: float64(res.Iterations[loopID]), CFL: cfl, ESP: esp,
		IncomingDep: float64(incoming), InternalDep: float64(internal), OutgoingDep: float64(outgoing),
	}}
	st.Depth = float64(prog.Loops[loopID].Depth)
	for other := range prog.Loops {
		if other == loopID {
			continue
		}
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

func oracleCriticalPath(cus *cu.Set, res *deps.Result, r oracleRegion, iters float64) float64 {
	if len(r.stmts) == 0 {
		return 0
	}
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
	order, _ := cond.TopoSort()
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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Programs whose loops have multi-statement RAW cycles, self-edges or
// both; the loop of "noraw" has RAW edges only through its induction
// variable.
var shapes = map[string]string{
	"cycle": `
float a[32]; float b[32]; float x; float y;
void main() {
    for (int i = 0; i < 32; i++) { x = y + a[i]; y = x * 0.5; b[i] = y; }
}`,
	"self": `
float a[32]; float s;
void main() { for (int i = 0; i < 32; i++) { s = s + a[i]; } }`,
	"noraw": `
float a[32];
void main() { for (int i = 0; i < 32; i++) { a[i] = 1.0; } }`,
	"nested": `
float A[8][8]; float r[8]; float t;
void main() {
    for (int i = 1; i < 8; i++) {
        t = 0.0;
        for (int j = 1; j < 8; j++) { A[i][j] = A[i-1][j] + A[i][j-1]; t = t + A[i][j]; }
        r[i] = t;
    }
}`,
}

// TestExtractMatchesOracle compares ExtractStatic bit for bit with the
// oracle on every loop of the corpus at every IR variant and of the
// shape programs, then compares criticalPath alone on seeded random
// statement sets of each program, which mix cyclic, acyclic and
// RAW-free regions.
func TestExtractMatchesOracle(t *testing.T) {
	type program struct {
		name string
		base *ir.Program
	}
	var progs []program
	for _, app := range bench.Corpus() {
		progs = append(progs, program{app.Name, ir.MustLower(minic.MustParse(app.Name, app.Source))})
	}
	for name, src := range shapes {
		progs = append(progs, program{name, ir.MustLower(minic.MustParse(name, src))})
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range progs {
		res, _, err := deps.Analyze(p.base, "main", interp.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for v := 0; v < ir.NumVariants; v++ {
			prog := ir.Variant(p.base, v)
			cus := cu.Build(prog)
			for _, id := range prog.LoopIDs() {
				got := ExtractStatic(prog, cus, res, id)
				want := oracleStatic(prog, cus, res, id, cus.LoopRegionStmts(id))
				if !sameBits(got.Vector(), want.Vector()) {
					t.Fatalf("%s/v%d loop %d: %v, want %v", p.name, v, id, got.Vector(), want.Vector())
				}
			}
			if v > 0 {
				continue
			}
			for k := 0; k < 200; k++ {
				var stmts []int
				keep := rng.Float64()
				for _, c := range cus.CUs {
					if rng.Float64() < keep {
						stmts = append(stmts, c.StmtID)
					}
				}
				iters := float64(1 + rng.Intn(100))
				got := criticalPath(cus, res, stmts, iters)
				want := oracleCriticalPath(cus, res, newOracleRegion(stmts), iters)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: criticalPath over %d statements = %v, want %v", p.name, len(stmts), got, want)
				}
			}
		}
	}
}

// TestShapesCoverCriticalPathCases makes sure the shape programs hold
// what TestExtractMatchesOracle relies on them for: loop regions whose
// RAW edges form a multi-statement cycle and regions with a RAW
// self-edge.
func TestShapesCoverCriticalPathCases(t *testing.T) {
	var cycle, self bool
	for name, src := range shapes {
		prog := ir.MustLower(minic.MustParse(name, src))
		res, _, err := deps.Analyze(prog, "main", interp.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		cus := cu.Build(prog)
		for _, id := range prog.LoopIDs() {
			stmts := cus.LoopRegionStmts(id)
			g := graph.New(len(stmts))
			for _, e := range res.Edges {
				i, j := find(stmts, e.SrcStmt), find(stmts, e.DstStmt)
				if e.Kind != deps.RAW || i < 0 || j < 0 {
					continue
				}
				if i == j {
					self = true
				} else {
					g.AddEdge(i, j, 0)
				}
			}
			if _, ncomp := g.SCC(); ncomp < len(stmts) {
				cycle = true
			}
		}
	}
	if !cycle || !self {
		t.Fatalf("shapes cover a multi-statement cycle: %t, a self-edge: %t", cycle, self)
	}
}

// TestCriticalPathWithoutRAW takes the one statement of "noraw" that
// writes the array: a region with no RAW edge, whose critical path is
// that statement's instructions counted once.
func TestCriticalPathWithoutRAW(t *testing.T) {
	prog := ir.MustLower(minic.MustParse("noraw", shapes["noraw"]))
	res, _, err := deps.Analyze(prog, "main", interp.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	cus := cu.Build(prog)
	var store *cu.CU
	for _, c := range cus.CUs {
		if len(c.Writes) == 1 && c.Writes[0] == "a" {
			store = c
		}
	}
	if store == nil {
		t.Fatal("no statement writes a")
	}
	stmts := []int{store.StmtID}
	for _, e := range res.EdgesFrom(store.StmtID) {
		if e.Kind == deps.RAW && e.DstStmt == store.StmtID {
			t.Fatalf("store has a RAW self-edge: %+v", e)
		}
	}
	got := criticalPath(cus, res, stmts, 32)
	want := oracleCriticalPath(cus, res, newOracleRegion(stmts), 32)
	if got != want || got != float64(store.NumInstrs()) {
		t.Fatalf("critical path %v, oracle %v, want %d", got, want, store.NumInstrs())
	}
}
