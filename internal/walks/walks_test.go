package walks_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mvpar/internal/graph"
	"mvpar/internal/walks"
)

func TestSpaceEnumerationCounts(t *testing.T) {
	// Exact-length counts are 1 (len 0), 1, 2, 5, 15, 52 — Bell numbers.
	wantCumulative := map[int]int{1: 2, 2: 4, 3: 9, 4: 24, 5: 76}
	for maxLen, want := range wantCumulative {
		s := walks.NewSpace(maxLen)
		if s.NumTypes() != want {
			t.Fatalf("NewSpace(%d).NumTypes() = %d, want %d", maxLen, s.NumTypes(), want)
		}
	}
}

func TestSpaceIndexRoundTrip(t *testing.T) {
	s := walks.NewSpace(4)
	seen := map[int]bool{}
	for i := 0; i < s.NumTypes(); i++ {
		aw := s.Type(i)
		idx, ok := s.IndexOf(aw)
		if !ok || idx != i {
			t.Fatalf("IndexOf(Type(%d)) = %d, %v", i, idx, ok)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
}

func TestIndexOfTruncatesLongWalks(t *testing.T) {
	s := walks.NewSpace(2)
	if _, ok := s.IndexOf([]int{0, 1, 2, 3, 4}); !ok {
		t.Fatal("long walk should truncate and resolve")
	}
}

func TestNodeDistributionsRowsSumToOne(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)
	s := walks.NewSpace(4)
	rng := rand.New(rand.NewSource(1))
	dist := s.NodeDistributions(g, walks.Params{Length: 4, Gamma: 50}, rng)
	if dist.Rows != 5 || dist.Cols != s.NumTypes() {
		t.Fatalf("dist shape %dx%d", dist.Rows, dist.Cols)
	}
	for i := 0; i < dist.Rows; i++ {
		sum := 0.0
		for _, v := range dist.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	gd := s.GraphDistribution(dist)
	total := 0.0
	for _, v := range gd.Data {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("graph distribution sums to %v", total)
	}
}

func TestIsolatedNodeDistribution(t *testing.T) {
	g := graph.New(1)
	s := walks.NewSpace(3)
	rng := rand.New(rand.NewSource(2))
	dist := s.NodeDistributions(g, walks.Params{Length: 3, Gamma: 10}, rng)
	// All mass on the trivial single-node walk type.
	idx, ok := s.IndexOf([]int{0})
	if !ok {
		t.Fatal("trivial type missing")
	}
	if math.Abs(dist.At(0, idx)-1) > 1e-9 {
		t.Fatalf("isolated node mass = %v", dist.At(0, idx))
	}
}

// Structural separability: the walk signature of a chain (stencil-like)
// differs markedly from a star (reduction-like), the figure-1 intuition.
func TestChainVsStarSignatures(t *testing.T) {
	chain := graph.New(7)
	for i := 0; i+1 < 7; i++ {
		chain.AddEdge(i, i+1, 0)
	}
	star := graph.New(7)
	for i := 1; i < 7; i++ {
		star.AddEdge(i, 0, 0)
	}
	s := walks.NewSpace(4)
	p := walks.Params{Length: 4, Gamma: 200}
	dc := s.GraphDistribution(s.NodeDistributions(chain, p, rand.New(rand.NewSource(3))))
	ds := s.GraphDistribution(s.NodeDistributions(star, p, rand.New(rand.NewSource(4))))
	// L1 distance between the two signatures should be substantial.
	l1 := 0.0
	for i := range dc.Data {
		l1 += math.Abs(dc.Data[i] - ds.Data[i])
	}
	if l1 < 0.3 {
		t.Fatalf("chain and star signatures too close: L1 = %v", l1)
	}
	// The hub pattern 0,1,2,1,3 (out, back through a shared center, out to
	// a fresh node) dominates in stars but is impossible to sustain in a
	// chain's interior.
	hub, _ := s.IndexOf([]int{0, 1, 2, 1, 3})
	if ds.Data[hub] <= dc.Data[hub] {
		t.Fatalf("hub-pattern mass: star=%v chain=%v", ds.Data[hub], dc.Data[hub])
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	s := walks.NewSpace(3)
	p := walks.Params{Length: 3, Gamma: 20}
	d1 := s.NodeDistributions(g, p, rand.New(rand.NewSource(7)))
	d2 := s.NodeDistributions(g, p, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(d1.Data, d2.Data) {
		t.Fatal("distributions differ across identical seeds")
	}
}

// TestNodeDistributionsBudget pins the wrapper the benchmark times walk
// sampling through: the same matrix as NodeDistributions, no error.
func TestNodeDistributionsBudget(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	s := walks.NewSpace(3)
	p := walks.Params{Length: 3, Gamma: 8}
	d, err := s.NodeDistributionsBudget(g, p, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if want := s.NodeDistributions(g, p, rand.New(rand.NewSource(1))); !reflect.DeepEqual(d.Data, want.Data) {
		t.Fatalf("NodeDistributionsBudget %v, NodeDistributions %v", d.Data, want.Data)
	}
}

// Sampling allocates per graph, never per walk: the allocation count of
// NodeDistributions does not grow with the number of walks per node.
func TestNodeDistributionsAllocsIndependentOfGamma(t *testing.T) {
	g := graph.New(6)
	for i := 0; i+1 < 6; i++ {
		g.AddEdge(i, i+1, 0)
		g.AddEdge(0, i+1, 1)
	}
	s := walks.NewSpace(4)
	rng := rand.New(rand.NewSource(1))
	allocs := func(gamma int) float64 {
		return testing.AllocsPerRun(20, func() {
			s.NodeDistributions(g, walks.Params{Length: 4, Gamma: gamma}, rng)
		})
	}
	if a12, a48 := allocs(12), allocs(48); a48 > a12 {
		t.Fatalf("allocs/op grew with Gamma: %v at 12, %v at 48", a12, a48)
	}
}

// IndexOf rejects walks that are not anonymous walks of the space.
func TestIndexOfRejectsNonCanonical(t *testing.T) {
	s := walks.NewSpace(3)
	for _, aw := range [][]int{{}, {1}, {0, 0}, {0, 2}, {0, -1}, {0, 1, 11}} {
		if i, ok := s.IndexOf(aw); ok {
			t.Errorf("IndexOf(%v) = %d, want not found", aw, i)
		}
	}
}
