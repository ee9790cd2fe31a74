package gnn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mvpar/internal/graph"
	"mvpar/internal/tensor"
)

// oracleAdjacency is the map-based construction of Â that Encode
// replaced: per node a set of neighbours plus itself, columns ascending.
func oracleAdjacency(g *graph.Directed) *tensor.Sparse {
	n := g.NumNodes()
	neighbors := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		neighbors[v] = map[int]bool{v: true}
	}
	for _, e := range g.Edges() {
		neighbors[e.From][e.To] = true
		neighbors[e.To][e.From] = true
	}
	rowPtr := make([]int, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + len(neighbors[v])
	}
	var colIdx []int
	var val []float64
	for v := 0; v < n; v++ {
		w := 1.0 / float64(len(neighbors[v]))
		for u := 0; u < n; u++ {
			if neighbors[v][u] {
				colIdx = append(colIdx, u)
				val = append(val, w)
			}
		}
	}
	return tensor.NewCSR(n, n, rowPtr, colIdx, val)
}

func sameCSR(a, b *tensor.Sparse) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) ||
		!slices.Equal(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestEncodeMatchesOracle checks Encode's Â and Âᵀ bit for bit against
// the map-based construction on seeded random graphs with self-loops,
// repeated edges and isolated nodes.
func TestEncodeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		g := graph.New(n)
		for k := rng.Intn(3 * n); k > 0; k-- {
			from, to := rng.Intn(n), rng.Intn(n)
			if rng.Intn(5) == 0 {
				to = from
			}
			g.AddEdge(from, to, rng.Intn(4))
			if rng.Intn(4) == 0 {
				g.AddEdge(from, to, rng.Intn(4))
			}
		}
		enc := Encode(g, tensor.New(n, 3))
		want := oracleAdjacency(g)
		if !sameCSR(enc.Adjacency(), want) {
			t.Fatalf("seed %d: Â = %+v, want %+v", seed, enc.Adjacency(), want)
		}
		if !sameCSR(enc.at, want.Transposed()) {
			t.Fatalf("seed %d: Âᵀ differs from the oracle's transpose", seed)
		}
	}
}
