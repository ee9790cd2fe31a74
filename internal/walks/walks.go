// Package walks implements anonymous random walks (Ivanov & Burnaev, ICML
// 2018) and the per-node empirical walk-type distributions of the paper's
// structural view (eqs. 3-4). A walk's anonymization replaces node
// identities with first-occurrence indices, so walks describe pure local
// structure; the distribution of anonymous walk types around a node is a
// structural signature that separates patterns like stencils (chains) from
// reductions (stars with a carried hub).
package walks

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"mvpar/internal/graph"
	"mvpar/internal/obs"
	"mvpar/internal/obs/trace"
	"mvpar/internal/tensor"
)

// anonymizer maps each node of a walk to the index of its first
// occurrence: (v3, v9, v3, v7) becomes (0, 1, 0, 2). Consecutive
// duplicates (a walk parked on an isolated node) are compressed first, so
// the result is always a legal anonymous walk of possibly shorter length.
// Its buffers are reused across walks.
type anonymizer struct {
	aw    []int // the anonymous walk
	nodes []int // nodes[id] is the node first seen with that id
}

// anonymize returns the anonymous form of walk, valid until the next call.
func (a *anonymizer) anonymize(walk []int) []int {
	a.aw, a.nodes = a.aw[:0], a.nodes[:0]
	for i, v := range walk {
		if i > 0 && v == walk[i-1] {
			continue
		}
		id := slices.Index(a.nodes, v)
		if id < 0 {
			id = len(a.nodes)
			a.nodes = append(a.nodes, v)
		}
		a.aw = append(a.aw, id)
	}
	return a.aw
}

// Space is the enumeration of all anonymous walk types up to a maximum
// length (number of edges). Every sampled walk maps to exactly one type.
type Space struct {
	MaxLen int
	types  map[uint64]int // code(type) -> type index
	list   [][]int
}

// maxSpaceLen bounds NewSpace: a type then has at most 10 nodes, whose
// ids 0..9 pack into one uint64 code. Length 9 already means 26,443 types.
const maxSpaceLen = 9

// codeBase is the radix of code: one digit (id+1, in 1..10) per node.
const codeBase = maxSpaceLen + 2

// code packs an anonymous walk of at most maxSpaceLen+1 nodes (callers
// truncate) into an integer, one base-codeBase digit per node. Digits
// start at 1, so walks of different lengths never share a code. ok is
// false when the walk holds an id no such walk can contain.
func code(aw []int) (c uint64, ok bool) {
	for _, id := range aw {
		if id < 0 || id > maxSpaceLen {
			return 0, false
		}
		c = c*codeBase + uint64(id+1)
	}
	return c, true
}

// NewSpace enumerates every anonymous walk with 0..maxLen edges.
// Type counts follow the Bell numbers (1, 1, 2, 5, 15, 52, ... per exact
// length); maxLen is at most 9.
func NewSpace(maxLen int) *Space {
	if maxLen < 1 || maxLen > maxSpaceLen {
		panic(fmt.Sprintf("walks: NewSpace(%d): length must be in [1, %d]", maxLen, maxSpaceLen))
	}
	s := &Space{MaxLen: maxLen, types: map[uint64]int{}}
	var gen func(cur []int, maxID int)
	add := func(cur []int) {
		c, _ := code(cur)
		if _, ok := s.types[c]; !ok {
			s.types[c] = len(s.list)
			s.list = append(s.list, append([]int(nil), cur...))
		}
	}
	gen = func(cur []int, maxID int) {
		add(cur)
		if len(cur) > maxLen { // len(cur) nodes = len(cur)-1 edges
			return
		}
		last := cur[len(cur)-1]
		for next := 0; next <= maxID+1; next++ {
			if next == last {
				continue
			}
			nm := maxID
			if next > maxID {
				nm = next
			}
			gen(append(cur, next), nm)
		}
	}
	gen([]int{0}, 0)
	return s
}

// NumTypes returns the number of anonymous walk types in the space.
func (s *Space) NumTypes() int { return len(s.list) }

// Type returns the canonical anonymous walk for a type index.
func (s *Space) Type(i int) []int { return s.list[i] }

// IndexOf returns the type index of an anonymous walk. Walks longer than
// MaxLen edges are truncated to MaxLen before lookup.
func (s *Space) IndexOf(aw []int) (int, bool) {
	if len(aw) > s.MaxLen+1 {
		aw = aw[:s.MaxLen+1]
	}
	c, ok := code(aw)
	if !ok {
		return 0, false
	}
	i, ok := s.types[c]
	return i, ok
}

// Params configures walk sampling: Gamma walks of Length edges per node
// (the paper's γ and l).
type Params struct {
	Length int
	Gamma  int
}

// DefaultParams mirrors the scale used in the paper's references: walks of
// length 5 with 32 samples per node.
var DefaultParams = Params{Length: 5, Gamma: 32}

// NodeDistributions samples Gamma anonymous walks of the given length from
// every node of g and returns the N x NumTypes matrix of empirical
// distributions p̂(ω|v) (eq. 3). Rows sum to 1 for non-empty graphs.
func (s *Space) NodeDistributions(g *graph.Directed, p Params, rng *rand.Rand) *tensor.Matrix {
	_, span := trace.StartSpan(context.Background(), "walks.sample")
	defer span.End()
	n := g.NumNodes()
	out := tensor.New(n, s.NumTypes())
	if p.Gamma <= 0 {
		return out
	}
	obs.GetCounter("mvpar_walks_sampled_total").Add(int64(n) * int64(p.Gamma))
	inv := 1.0 / float64(p.Gamma)
	adj := g.Undirected()
	walk := make([]int, p.Length+1)
	var a anonymizer
	for v := 0; v < n; v++ {
		row := out.Row(v)
		for k := 0; k < p.Gamma; k++ {
			idx, ok := s.IndexOf(a.anonymize(adj.WalkInto(walk, v, rng)))
			if !ok {
				// Unreachable by construction: every anonymized sample of
				// length <= MaxLen is enumerated.
				continue
			}
			row[idx] += inv
		}
	}
	return out
}

// NodeDistributionsBudget is NodeDistributions with a nil error. It
// stays only because benchmark/layers.go times walk sampling through it;
// it goes with the next change to the benchmark.
func (s *Space) NodeDistributionsBudget(g *graph.Directed, p Params, rng *rand.Rand) (*tensor.Matrix, error) {
	return s.NodeDistributions(g, p, rng), nil
}

// GraphDistribution averages the node distributions into the graph-level
// distribution p̂(ω|G) (eq. 4), returned as a 1 x NumTypes matrix.
func (s *Space) GraphDistribution(nodeDist *tensor.Matrix) *tensor.Matrix {
	return tensor.MeanRow(nodeDist)
}
