package graph

import "math/rand"

// WalkInto fills walk with a random walk of len(walk)-1 steps from start
// and returns it. The walk moves to a uniformly random neighbour at each
// step, treating the graph as undirected so that structural patterns are
// seen irrespective of dependence direction, as in the anonymous-walk
// literature. Each step from a node with neighbours draws exactly one
// rng.Intn(len(neighbours)); a step from an isolated node draws nothing
// and stays in place.
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
