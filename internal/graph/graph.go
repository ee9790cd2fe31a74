// Package graph provides a small directed-multigraph library used by the
// rest of the system: the program execution graph (PEG), computational-unit
// graphs, and the random-walk engine behind anonymous-walk embeddings are
// all built on it.
//
// Nodes are dense integer IDs handed out by AddNode; edges carry an integer
// Kind so a single graph can mix dependence types (RAW/WAR/WAW) with
// hierarchy edges. The representation favours fast out-neighbour iteration,
// which dominates both message passing and random-walk sampling.
package graph

import (
	"fmt"
	"slices"
	"strings"
)

// Edge is a directed edge From -> To with an application-defined Kind.
type Edge struct {
	From int
	To   int
	Kind int
}

// Directed is a directed multigraph over dense node IDs 0..N-1.
// The zero value is an empty graph ready to use.
type Directed struct {
	out   [][]Edge
	in    [][]Edge
	edges int
}

// New returns an empty directed graph with n pre-allocated nodes.
func New(n int) *Directed {
	g := &Directed{}
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return g
}

// AddNode adds a node and returns its ID.
func (g *Directed) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return len(g.out) - 1
}

// NumNodes returns the number of nodes.
func (g *Directed) NumNodes() int { return len(g.out) }

// NumEdges returns the number of edges.
func (g *Directed) NumEdges() int { return g.edges }

// AddEdge adds a directed edge from -> to with the given kind.
// It panics if either endpoint is out of range: edges into nonexistent
// nodes indicate a construction bug upstream, never a recoverable state.
func (g *Directed) AddEdge(from, to, kind int) {
	if from < 0 || from >= len(g.out) || to < 0 || to >= len(g.out) {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) on graph with %d nodes", from, to, len(g.out)))
	}
	e := Edge{From: from, To: to, Kind: kind}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edges++
}

// HasEdgeKind reports whether a from -> to edge with the given kind exists.
func (g *Directed) HasEdgeKind(from, to, kind int) bool {
	for _, e := range g.out[from] {
		if e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

// Out returns the out-edges of node v. The returned slice is owned by the
// graph and must not be modified.
func (g *Directed) Out(v int) []Edge { return g.out[v] }

// In returns the in-edges of node v. The returned slice is owned by the
// graph and must not be modified.
func (g *Directed) In(v int) []Edge { return g.in[v] }

// OutDegree returns the number of out-edges of v.
func (g *Directed) OutDegree(v int) int { return len(g.out[v]) }

// InDegree returns the number of in-edges of v.
func (g *Directed) InDegree(v int) int { return len(g.in[v]) }

// Neighbors returns the distinct nodes adjacent to v in either direction,
// in ascending order. Walk sampling treats the graph as undirected so that
// structural patterns are visible regardless of dependence direction.
func (g *Directed) Neighbors(v int) []int {
	return g.appendNeighbors(make([]int, 0, len(g.out[v])+len(g.in[v])), v)
}

// appendNeighbors appends Neighbors(v) to dst.
func (g *Directed) appendNeighbors(dst []int, v int) []int {
	start := len(dst)
	for _, e := range g.out[v] {
		dst = append(dst, e.To)
	}
	for _, e := range g.in[v] {
		dst = append(dst, e.From)
	}
	return dst[:start+len(sortDistinct(dst[start:]))]
}

// sortDistinct sorts s in place and returns its prefix of distinct values.
func sortDistinct(s []int) []int {
	slices.Sort(s)
	return slices.Compact(s)
}

// Undirected is a graph's undirected neighbour structure in CSR form,
// built once so that a walk can take many steps without rebuilding
// neighbour sets.
type Undirected struct {
	off []int // neighbours of v are nbr[off[v]:off[v+1]]
	nbr []int
}

// Undirected builds the neighbour lists of every node: for each v the
// same distinct, ascending list Neighbors(v) returns.
func (g *Directed) Undirected() Undirected {
	u := Undirected{off: make([]int, len(g.out)+1), nbr: make([]int, 0, 2*g.edges)}
	for v := range g.out {
		u.nbr = g.appendNeighbors(u.nbr, v)
		u.off[v+1] = len(u.nbr)
	}
	return u
}

// Neighbors returns Neighbors(v) of the graph u was built from. The
// returned slice is owned by u and must not be modified.
func (u Undirected) Neighbors(v int) []int { return u.nbr[u.off[v]:u.off[v+1]] }

// Edges returns a copy of all edges in insertion order per source node.
func (g *Directed) Edges() []Edge {
	res := make([]Edge, 0, g.edges)
	for _, es := range g.out {
		res = append(res, es...)
	}
	return res
}

// FromEdges returns a graph of n nodes holding the given edges: the
// graph New(n) and one AddEdge per edge, in order, would build, with
// each node's out- and in-edges in the same order, but laid out in one
// backing array instead of growing per node. It panics on an endpoint
// out of range, as AddEdge does.
func FromEdges(n int, edges []Edge) *Directed {
	heads := make([][]Edge, 2*n)
	g := &Directed{out: heads[:n:n], in: heads[n:], edges: len(edges)}
	back := make([]Edge, 2*len(edges))
	// Count each node's out- and in-edges in the length of its head,
	// then turn the heads into empty windows of back sized by the counts.
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			panic(fmt.Sprintf("graph: FromEdges edge %d -> %d on graph with %d nodes", e.From, e.To, n))
		}
		g.out[e.From] = back[:len(g.out[e.From])+1]
		g.in[e.To] = back[:len(g.in[e.To])+1]
	}
	at := 0
	for v, h := range heads {
		if c := len(h); c > 0 {
			heads[v] = back[at : at : at+c]
			at += c
		}
	}
	for _, e := range edges {
		g.out[e.From] = append(g.out[e.From], e)
		g.in[e.To] = append(g.in[e.To], e)
	}
	return g
}

// Subgraph returns the induced subgraph over the given nodes together with
// the mapping from new IDs to original IDs. New IDs follow the first
// occurrence of each node in nodes; edges with either endpoint outside
// the node set are dropped, and each kept node's out- and in-edges stay
// in the graph's order. The cost is in the subgraph's size and the kept
// nodes' out-degrees, not in the whole graph's.
func (g *Directed) Subgraph(nodes []int) (*Directed, []int) {
	// keys holds the distinct nodes ascending, newID[i] the new ID of
	// keys[i], so an old ID maps to its new one by binary search.
	buf := make([]int, 3*len(nodes))
	keys := append(buf[:0:len(nodes)], nodes...)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	newID := buf[len(nodes) : len(nodes)+len(keys)]
	for i := range newID {
		newID[i] = -1
	}
	newToOld := buf[2*len(nodes) : 2*len(nodes) : 2*len(nodes)+len(keys)]
	for _, v := range nodes {
		i, _ := slices.BinarySearch(keys, v)
		if newID[i] < 0 {
			newID[i] = len(newToOld)
			newToOld = append(newToOld, v)
		}
	}
	outDeg := 0
	for _, v := range newToOld {
		outDeg += len(g.out[v])
	}
	edges := make([]Edge, 0, outDeg)
	for from, v := range newToOld {
		for _, e := range g.out[v] {
			if i, ok := slices.BinarySearch(keys, e.To); ok {
				edges = append(edges, Edge{From: from, To: newID[i], Kind: e.Kind})
			}
		}
	}
	return FromEdges(len(newToOld), edges), newToOld
}

// TopoSort returns a topological order of the graph, or ok=false if the
// graph contains a cycle (dependence graphs of loops routinely do).
func (g *Directed) TopoSort() (order []int, ok bool) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		for _, e := range g.out[v] {
			indeg[e.To]++
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range g.out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	return order, len(order) == n
}

// SCC computes strongly connected components with Tarjan's algorithm and
// returns, for each node, its component index; components are numbered in
// reverse topological order of the condensation.
func (g *Directed) SCC() (comp []int, ncomp int) {
	off := make([]int, len(g.out)+1)
	succ := make([]int, 0, g.edges)
	for v, es := range g.out {
		for _, e := range es {
			succ = append(succ, e.To)
		}
		off[v+1] = len(succ)
	}
	return SCC(off, succ)
}

// SCC is Directed.SCC over a graph given in CSR form: the successors of
// node v are succ[off[v]:off[v+1]], visited in that order, so a CSR built
// from a Directed's out-edges numbers the components exactly as the
// Directed does.
func SCC(off, succ []int) (comp []int, ncomp int) {
	n := len(off) - 1
	buf := make([]int, 4*n)
	comp, index, low := buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n]
	for i := range comp {
		comp[i] = -1
		index[i] = -1
	}
	onStack := make([]bool, n)
	stack := buf[3*n : 3*n : 4*n]
	counter := 0

	// Iterative Tarjan: frames carry (node, next successor position).
	type frame struct{ v, ei int }
	frames := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames = append(frames[:0], frame{root, off[root]})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < off[f.v+1] {
				w := succ[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, off[w]})
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

// DOT renders the graph in Graphviz dot format. label(v) and edgeLabel(e)
// may be nil, in which case node IDs and edge kinds are used.
func (g *Directed) DOT(name string, label func(int) string, edgeLabel func(Edge) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for v := 0; v < g.NumNodes(); v++ {
		l := fmt.Sprintf("%d", v)
		if label != nil {
			l = label(v)
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v, l)
	}
	for _, e := range g.Edges() {
		l := fmt.Sprintf("%d", e.Kind)
		if edgeLabel != nil {
			l = edgeLabel(e)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.From, e.To, l)
	}
	b.WriteString("}\n")
	return b.String()
}
