package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// The map-based Subgraph and the Directed-only Tarjan that FromEdges,
// Subgraph and the CSR SCC replaced, kept as oracles.

func oracleSubgraph(g *Directed, nodes []int) (*Directed, []int) {
	oldToNew := make(map[int]int, len(nodes))
	newToOld := make([]int, 0, len(nodes))
	for _, v := range nodes {
		if _, dup := oldToNew[v]; dup {
			continue
		}
		oldToNew[v] = len(newToOld)
		newToOld = append(newToOld, v)
	}
	sub := New(len(newToOld))
	for _, v := range newToOld {
		for _, e := range g.out[v] {
			if to, ok := oldToNew[e.To]; ok {
				sub.AddEdge(oldToNew[v], to, e.Kind)
			}
		}
	}
	return sub, newToOld
}

func oracleSCC(g *Directed) (comp []int, ncomp int) {
	n := g.NumNodes()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	counter := 0
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{root, 0}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.out[f.v]) {
				w := g.out[f.v][f.ei].To
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp, ncomp
}

// randomEdges returns a seeded random edge list over n nodes with
// self-loops, repeated edges (same and different kinds) and, since only
// some nodes get edges, isolated nodes.
func randomEdges(rng *rand.Rand, n int) []Edge {
	var edges []Edge
	for k := rng.Intn(3 * n); k > 0; k-- {
		e := Edge{From: rng.Intn(n), To: rng.Intn(n), Kind: rng.Intn(4)}
		switch rng.Intn(6) {
		case 0:
			e.To = e.From
		case 1:
			if len(edges) > 0 {
				e = edges[rng.Intn(len(edges))]
			}
		}
		edges = append(edges, e)
	}
	return edges
}

// requireSameGraph fails unless a and b have the same nodes and the same
// out- and in-edges at every node, in the same order.
func requireSameGraph(t *testing.T, what string, a, b *Directed) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: %d nodes %d edges, want %d nodes %d edges", what, a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		if !slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			t.Fatalf("%s: node %d out %v in %v, want out %v in %v", what, v, a.Out(v), a.In(v), b.Out(v), b.In(v))
		}
	}
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		if n == 0 {
			requireSameGraph(t, "empty", FromEdges(0, nil), New(0))
			continue
		}
		edges := randomEdges(rng, n)
		want := New(n)
		for _, e := range edges {
			want.AddEdge(e.From, e.To, e.Kind)
		}
		got := FromEdges(n, edges)
		requireSameGraph(t, "FromEdges", got, want)
		// Growing a FromEdges graph must not write into a neighbour's
		// window of the shared backing array.
		got.AddNode()
		want.AddNode()
		for k := 0; k < 5; k++ {
			from, to := rng.Intn(n+1), rng.Intn(n+1)
			got.AddEdge(from, to, 9)
			want.AddEdge(from, to, 9)
		}
		requireSameGraph(t, "FromEdges then AddEdge", got, want)
	}
}

func TestSubgraphMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		g := FromEdges(n, randomEdges(rng, n))
		// Any order, with repeats.
		nodes := make([]int, rng.Intn(2*n))
		for i := range nodes {
			nodes[i] = rng.Intn(n)
		}
		got, gotMap := g.Subgraph(nodes)
		want, wantMap := oracleSubgraph(g, nodes)
		if !slices.Equal(gotMap, wantMap) {
			t.Fatalf("seed %d: newToOld %v, want %v", seed, gotMap, wantMap)
		}
		requireSameGraph(t, "Subgraph", got, want)
	}
}

func TestSCCMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		g := New(n)
		if n > 0 {
			g = FromEdges(n, randomEdges(rng, n))
		}
		comp, ncomp := g.SCC()
		wantComp, wantN := oracleSCC(g)
		if ncomp != wantN || !slices.Equal(comp, wantComp) {
			t.Fatalf("seed %d: components %v (%d), want %v (%d)", seed, comp, ncomp, wantComp, wantN)
		}
	}
}
