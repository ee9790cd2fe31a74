package dataset

import (
	"math/rand"
	"slices"
	"testing"

	"mvpar/internal/graph"
	"mvpar/internal/peg"
)

// oracleModelGraph is the modelGraph the scratch-based one replaced: a
// copy of the sub-PEG that checks every edge against the node's earlier
// out-edges with HasEdgeKind.
func oracleModelGraph(sub *peg.SubPEG) *graph.Directed {
	g := graph.New(sub.G.NumNodes())
	for _, e := range sub.G.Edges() {
		kind := e.Kind
		switch kind {
		case peg.EdgeRAWCarried:
			kind = peg.EdgeRAW
		case peg.EdgeWARCarried:
			kind = peg.EdgeWAR
		case peg.EdgeWAWCarried:
			kind = peg.EdgeWAW
		}
		if !g.HasEdgeKind(e.From, e.To, kind) {
			g.AddEdge(e.From, e.To, kind)
		}
	}
	return g
}

// TestModelGraphMatchesOracle runs one scratch across seeded random
// sub-PEG graphs of every edge kind, with self-loops, carried and
// independent twins of one edge, repeats and isolated nodes, and
// requires the oracle's nodes and per-node edge order exactly.
func TestModelGraphMatchesOracle(t *testing.T) {
	var m mergeScratch
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		var edges []graph.Edge
		for k := rng.Intn(4 * n); k > 0; k-- {
			e := graph.Edge{From: rng.Intn(n), To: rng.Intn(n), Kind: rng.Intn(peg.EdgeWAWCarried + 1)}
			switch rng.Intn(5) {
			case 0:
				e.To = e.From
			case 1:
				if len(edges) > 0 {
					e = edges[rng.Intn(len(edges))]
					if e.Kind >= peg.EdgeRAW && e.Kind <= peg.EdgeWAW {
						e.Kind += peg.EdgeRAWCarried - peg.EdgeRAW
					}
				}
			}
			edges = append(edges, e)
		}
		sub := &peg.SubPEG{G: graph.FromEdges(n, edges)}
		got, want := modelGraph(sub, &m), oracleModelGraph(sub)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("seed %d: %d nodes %d edges, want %d, %d", seed, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
				t.Fatalf("seed %d node %d: out %v in %v, want out %v in %v", seed, v, got.Out(v), got.In(v), want.Out(v), want.In(v))
			}
		}
	}
}
