package graph

import "math/rand"

// RandomWalk samples a walk of exactly length steps (length+1 nodes)
// starting at start, moving to a uniformly random neighbour at each step.
// The graph is treated as undirected so that structural patterns are seen
// irrespective of dependence direction, matching the anonymous-walk
// literature. If a node has no neighbours the walk stays in place, so the
// returned slice always has length+1 entries.
func (g *Directed) RandomWalk(start, length int, rng *rand.Rand) []int {
	return g.Undirected().WalkInto(make([]int, length+1), start, rng)
}

// RandomWalks samples count walks of the given length from start.
func (g *Directed) RandomWalks(start, length, count int, rng *rand.Rand) [][]int {
	u := g.Undirected()
	walks := make([][]int, count)
	for i := range walks {
		walks[i] = u.WalkInto(make([]int, length+1), start, rng)
	}
	return walks
}

// WalkInto fills walk with a random walk of len(walk)-1 steps from start,
// as RandomWalk does, and returns it. Each step from a node with
// neighbours draws exactly one rng.Intn(len(neighbours)); a step from an
// isolated node draws nothing and stays in place.
func (u Undirected) WalkInto(walk []int, start int, rng *rand.Rand) []int {
	if len(walk) == 0 {
		return walk
	}
	walk[0] = start
	cur := start
	for i := 1; i < len(walk); i++ {
		if nbrs := u.Neighbors(cur); len(nbrs) > 0 {
			cur = nbrs[rng.Intn(len(nbrs))]
		}
		walk[i] = cur
	}
	return walk
}
