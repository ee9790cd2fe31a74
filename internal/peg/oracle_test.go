package peg_test

import (
	"fmt"
	"slices"
	"testing"

	"mvpar/internal/bench"
	"mvpar/internal/cu"
	"mvpar/internal/deps"
	"mvpar/internal/graph"
	"mvpar/internal/interp"
	"mvpar/internal/ir"
	"mvpar/internal/minic"
	"mvpar/internal/peg"
)

// oracleGraph is the PEG graph as Build made it before it built the
// graph in one pass: AddEdge per edge, each dependence edge checked
// against the source's earlier out-edges with HasEdgeKind. Node order:
// functions, loops ascending, CUs.
func oracleGraph(prog *ir.Program, cus *cu.Set, result *deps.Result) *graph.Directed {
	g := graph.New(0)
	byFunc, byLoop, byStmt := map[string]int{}, map[int]int{}, map[int]int{}
	for _, fn := range prog.Funcs {
		byFunc[fn.Name] = g.AddNode()
	}
	for _, id := range prog.LoopIDs() {
		byLoop[id] = g.AddNode()
	}
	for _, c := range cus.CUs {
		byStmt[c.StmtID] = g.AddNode()
	}
	loopParent := map[int]int{}
	for _, fn := range prog.Funcs {
		var stack []int
		for _, in := range fn.Code {
			switch in.Op {
			case ir.OpLoopBegin:
				if len(stack) > 0 {
					loopParent[int(in.LoopID)] = stack[len(stack)-1]
				}
				stack = append(stack, int(in.LoopID))
			case ir.OpLoopEnd:
				stack = stack[:len(stack)-1]
			}
		}
	}
	for _, id := range prog.LoopIDs() {
		if parent := loopParent[id]; parent != 0 {
			g.AddEdge(byLoop[parent], byLoop[id], peg.EdgeHierarchy)
		} else {
			g.AddEdge(byFunc[prog.Loops[id].Func], byLoop[id], peg.EdgeHierarchy)
		}
	}
	for _, c := range cus.CUs {
		if c.LoopID != 0 {
			g.AddEdge(byLoop[c.LoopID], byStmt[c.StmtID], peg.EdgeHierarchy)
		} else {
			g.AddEdge(byFunc[c.Func], byStmt[c.StmtID], peg.EdgeHierarchy)
		}
	}
	for _, e := range result.Edges {
		src, okS := byStmt[e.SrcStmt]
		dst, okD := byStmt[e.DstStmt]
		if !okS || !okD {
			continue
		}
		if kind := peg.DepEdgeKind(e); !g.HasEdgeKind(src, dst, kind) {
			g.AddEdge(src, dst, kind)
		}
	}
	return g
}

// oracleExtractIDs is the node list Extract handed to Subgraph before the
// region index: the loop node, every other loop whose static body
// overlaps the region (by a scan over all loops), then the region's CUs.
func oracleExtractIDs(p *peg.PEG, loopID int) []int {
	stmts := p.CUs.LoopRegionStmts(loopID)
	ids := []int{p.ByLoop[loopID]}
	inRegion := map[int]bool{}
	for _, s := range stmts {
		inRegion[s] = true
	}
	for _, other := range p.Prog.LoopIDs() {
		if other == loopID {
			continue
		}
		for _, s := range p.CUs.LoopStmts[other] {
			if inRegion[s] {
				ids = append(ids, p.ByLoop[other])
				break
			}
		}
	}
	for _, s := range stmts {
		if id, ok := p.ByStmt[s]; ok {
			ids = append(ids, id)
		}
	}
	return ids
}

func requireSameEdges(t *testing.T, what string, got, want *graph.Directed) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: %d nodes %d edges, want %d, %d", what, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < got.NumNodes(); v++ {
		if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("%s: node %d out %v in %v, want out %v in %v", what, v, got.Out(v), got.In(v), want.Out(v), want.In(v))
		}
	}
}

// TestBuildAndExtractMatchOracle checks the one-pass PEG build and the
// index-based Extract against their former construction, for every loop
// of every corpus program at every IR variant (each variant encoded
// against its base program's dependences, as the dataset does).
func TestBuildAndExtractMatchOracle(t *testing.T) {
	for _, app := range bench.Corpus() {
		base := ir.MustLower(minic.MustParse(app.Name, app.Source))
		res, _, err := deps.Analyze(base, "main", interp.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for v := 0; v < ir.NumVariants; v++ {
			prog := ir.Variant(base, v)
			cus := cu.Build(prog)
			p := peg.Build(prog, cus, res)
			name := fmt.Sprintf("%s/v%d", app.Name, v)
			requireSameEdges(t, name, p.G, oracleGraph(prog, cus, res))
			for _, id := range prog.LoopIDs() {
				sub := p.Extract(id)
				want, newToOld := p.G.Subgraph(oracleExtractIDs(p, id))
				requireSameEdges(t, fmt.Sprintf("%s loop %d", name, id), sub.G, want)
				for i, old := range newToOld {
					if sub.Nodes[i] != p.Nodes[old] {
						t.Fatalf("%s loop %d: node %d is %s, want %s", name, id, i, sub.Nodes[i].Label(), p.Nodes[old].Label())
					}
				}
				if root := sub.Nodes[sub.Root]; root.Kind != peg.NodeLoop || root.LoopID != id {
					t.Fatalf("%s loop %d: root %s", name, id, root.Label())
				}
			}
		}
	}
}
