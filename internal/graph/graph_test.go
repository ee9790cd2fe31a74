package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func line(n int) *Directed {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

func TestAddNodeAndEdgeCounts(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	a := g.AddNode()
	b := g.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("node IDs = %d, %d; want 0, 1", a, b)
	}
	g.AddEdge(a, b, 7)
	g.AddEdge(a, b, 8) // multigraph: parallel edges allowed
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.HasEdgeKind(b, a, 7) {
		t.Fatal("HasEdgeKind direction wrong")
	}
	if !g.HasEdgeKind(a, b, 7) || !g.HasEdgeKind(a, b, 8) || g.HasEdgeKind(a, b, 9) {
		t.Fatal("HasEdgeKind wrong")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	New(1).AddEdge(0, 5, 0)
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 0)
	g.AddEdge(0, 1, 2)
	if g.OutDegree(0) != 3 || g.InDegree(1) != 3 {
		t.Fatalf("degrees: out(0)=%d in(1)=%d", g.OutDegree(0), g.InDegree(1))
	}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	if got := g.Neighbors(3); len(got) != 0 {
		t.Fatalf("Neighbors(3) = %v, want empty", got)
	}
}

func TestTopoSortDAG(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("TopoSort reported cycle on a DAG")
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topo order %v", e.From, e.To, order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	if _, ok := g.TopoSort(); ok {
		t.Fatal("TopoSort did not detect cycle")
	}
}

func TestSCC(t *testing.T) {
	g := New(6)
	// Component {0,1,2}, component {3,4}, singleton {5}.
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 0, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)
	g.AddEdge(4, 3, 0)
	g.AddEdge(4, 5, 0)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("SCC count = %d, want 3", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatalf("nodes 0,1,2 in different components: %v", comp)
	}
	if comp[3] != comp[4] {
		t.Fatalf("nodes 3,4 in different components: %v", comp)
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatalf("node 5 merged into a cycle component: %v", comp)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 4)
	sub, newToOld := g.Subgraph([]int{1, 2, 3, 1}) // duplicate input tolerated
	if sub.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.NumNodes())
	}
	if !reflect.DeepEqual(newToOld, []int{1, 2, 3}) {
		t.Fatalf("newToOld = %v", newToOld)
	}
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2 (1->2, 2->3)", sub.NumEdges())
	}
	if !sub.HasEdgeKind(0, 1, 2) || !sub.HasEdgeKind(1, 2, 3) {
		t.Fatal("subgraph edges remapped incorrectly")
	}
}

func TestRandomWalkLengthAndConnectivity(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	u := g.Undirected()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		w := u.WalkInto(make([]int, 8), 0, rng)
		if len(w) != 8 {
			t.Fatalf("walk length = %d, want 8", len(w))
		}
		if w[0] != 0 {
			t.Fatalf("walk does not start at start node: %v", w)
		}
		for j := 1; j < len(w); j++ {
			nbrs := g.Neighbors(w[j-1])
			found := false
			for _, n := range nbrs {
				if n == w[j] {
					found = true
				}
			}
			if !found {
				t.Fatalf("walk step %d->%d not an edge: %v", w[j-1], w[j], w)
			}
		}
	}
}

func TestRandomWalkIsolatedNode(t *testing.T) {
	g := New(1)
	rng := rand.New(rand.NewSource(2))
	w := g.Undirected().WalkInto(make([]int, 6), 0, rng)
	if len(w) != 6 {
		t.Fatalf("walk length = %d, want 6", len(w))
	}
	for _, v := range w {
		if v != 0 {
			t.Fatalf("isolated walk left node: %v", w)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 3)
	dot := g.DOT("g", func(v int) string { return "node" }, nil)
	for _, want := range []string{"digraph", "n0 -> n1", `label="3"`, `label="node"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// Property: TopoSort succeeds on every random DAG (edges only i->j, i<j)
// and the order respects every edge.
func TestTopoSortPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(i, j, 0)
				}
			}
		}
		order, ok := g.TopoSort()
		if !ok || len(order) != n {
			return false
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the SCC partition covers every node exactly once and two nodes
// mutually reachable via a direct 2-cycle share a component.
func TestSCCPropertyTwoCycles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n)
		type pair struct{ a, b int }
		var cycles []pair
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0)
			g.AddEdge(b, a, 0)
			cycles = append(cycles, pair{a, b})
		}
		comp, ncomp := g.SCC()
		if ncomp <= 0 || ncomp > n {
			return false
		}
		for _, v := range comp {
			if v < 0 || v >= ncomp {
				return false
			}
		}
		for _, c := range cycles {
			if comp[c.a] != comp[c.b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Subgraph preserves exactly the induced edges.
func TestSubgraphPropertyInduced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := New(n)
		for k := 0; k < 2*n; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(3))
		}
		var keep []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				keep = append(keep, v)
			}
		}
		sub, newToOld := g.Subgraph(keep)
		inSet := map[int]bool{}
		for _, v := range newToOld {
			inSet[v] = true
		}
		want := 0
		for _, e := range g.Edges() {
			if inSet[e.From] && inSet[e.To] {
				want++
			}
		}
		return sub.NumEdges() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sortedCopy(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func TestEdgesReturnsAll(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 0, 1)
	g.AddEdge(0, 1, 2)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("Edges() = %v", es)
	}
	var froms []int
	for _, e := range es {
		froms = append(froms, e.From)
	}
	if !reflect.DeepEqual(sortedCopy(froms), []int{0, 2}) {
		t.Fatalf("edge sources = %v", froms)
	}
}

// refNeighbors is the set-based definition of Neighbors: every endpoint
// of an edge touching v, deduplicated and sorted.
func refNeighbors(g *Directed, v int) []int {
	seen := map[int]bool{}
	for _, e := range g.Edges() {
		if e.From == v {
			seen[e.To] = true
		}
		if e.To == v {
			seen[e.From] = true
		}
	}
	res := []int{}
	for n := range seen {
		res = append(res, n)
	}
	sort.Ints(res)
	return res
}

// Property: the CSR neighbour lists equal Neighbors, and both equal the
// set definition, on random multigraphs with self-loops and parallel
// edges of several kinds.
func TestUndirectedMatchesNeighbors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := New(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Intn(3))
		}
		u := g.Undirected()
		for v := 0; v < n; v++ {
			want := refNeighbors(g, v)
			if !reflect.DeepEqual(append([]int{}, g.Neighbors(v)...), want) ||
				!reflect.DeepEqual(append([]int{}, u.Neighbors(v)...), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// WalkInto draws the sequence of the reference walk (a fresh Neighbors
// set per step, one Intn per step from a node with neighbours) and
// allocates nothing.
func TestWalkIntoMatchesReferenceWalk(t *testing.T) {
	g := line(5)
	g.AddEdge(2, 2, 0)
	g.AddEdge(3, 1, 1)
	g.AddNode() // isolated
	ref := func(start, length int, rng *rand.Rand) []int {
		walk := []int{start}
		cur := start
		for i := 0; i < length; i++ {
			if nbrs := g.Neighbors(cur); len(nbrs) > 0 {
				cur = nbrs[rng.Intn(len(nbrs))]
			}
			walk = append(walk, cur)
		}
		return walk
	}
	u := g.Undirected()
	buf := make([]int, 7)
	r1, r2 := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	for start := 0; start < g.NumNodes(); start++ {
		for i := 0; i < 20; i++ {
			if w := ref(start, 6, r1); !reflect.DeepEqual(w, u.WalkInto(buf, start, r2)) {
				t.Fatalf("start %d: reference %v, WalkInto %v", start, w, buf)
			}
		}
	}
	if a := testing.AllocsPerRun(50, func() { u.WalkInto(buf, 1, r2) }); a != 0 {
		t.Fatalf("WalkInto allocates %v times per walk", a)
	}
}
