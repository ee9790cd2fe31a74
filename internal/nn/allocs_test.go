package nn

import (
	"math/rand"
	"testing"

	"mvpar/internal/tensor"
)

// TestDenseSteadyStateAllocFree asserts that an arena-backed Dense layer's
// forward and backward passes allocate nothing once the arena free lists
// and the weight-transpose cache are warm, for one row and for a batch.
func TestDenseSteadyStateAllocFree(t *testing.T) {
	for _, rows := range []int{1, 2} {
		rng := rand.New(rand.NewSource(1))
		d := NewDense("d", 8, 4, rng)
		arena := tensor.NewArena()
		d.Scratch = arena
		x := tensor.Randn(rows, 8, 1, rng)
		grad := tensor.Randn(rows, 4, 1, rng)
		step := func() {
			arena.Reset()
			d.Forward(x)
			d.Backward(grad)
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if n := testing.AllocsPerRun(10, step); n != 0 {
			t.Fatalf("%d-row Dense forward+backward allocates %v per run in steady state, want 0", rows, n)
		}
	}
}

// TestConv1DSteadyStateAllocFree is the same assertion for the 1-D
// convolution + max-pool stage of the DGCNN readout.
func TestConv1DSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	arena := tensor.NewArena()
	conv := NewConv1D("c", 2, 4, 3, 1, rng)
	conv.Scratch = arena
	maxPool := NewMaxPool1D(2, 2)
	maxPool.Scratch = arena
	x := tensor.Randn(2, 12, 1, rng)
	step := func() {
		arena.Reset()
		out := conv.Forward(x)
		pooled := maxPool.Forward(out)
		conv.Backward(maxPool.Backward(pooled))
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("Conv1D+MaxPool1D allocates %v per run in steady state, want 0", n)
	}

	// The inference path (forward only, no backward) must also be
	// alloc-free, both through the arena-drawing Forward and through the
	// explicit-destination ForwardInto the fused predict paths use.
	inferStep := func() {
		arena.Reset()
		maxPool.Forward(conv.Forward(x))
	}
	for i := 0; i < 3; i++ {
		inferStep()
	}
	if n := testing.AllocsPerRun(10, inferStep); n != 0 {
		t.Fatalf("Conv1D+MaxPool1D inference allocates %v per run in steady state, want 0", n)
	}

	dst := tensor.New(conv.OutChannels, conv.OutLen(x.Cols))
	intoStep := func() { conv.ForwardInto(x, dst) }
	intoStep()
	if n := testing.AllocsPerRun(10, intoStep); n != 0 {
		t.Fatalf("Conv1D.ForwardInto allocates %v per run, want 0", n)
	}
	if !tensor.ApproxEqual(dst, conv.Forward(x), 0) {
		t.Fatal("ForwardInto differs from Forward")
	}
}

// TestTransposeCacheInvalidation pins the cache key: same weights hit the
// cache, an in-place optimizer update (Bump) and a Value replacement
// (LoadParams geometry) both miss it.
func TestTransposeCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParam("w", tensor.Randn(3, 2, 1, rng))
	var c TransposeCache
	t1 := c.Of(p)
	if c.Of(p) != t1 {
		t.Fatal("unchanged param should hit the cache")
	}
	p.Value.Set(0, 0, 42)
	p.Bump()
	t2 := c.Of(p)
	if t2.At(0, 0) != 42 {
		t.Fatalf("cache missed the bumped update: %v", t2.At(0, 0))
	}
	p.Value = tensor.Randn(3, 2, 1, rng) // reload path replaces the pointer
	t3 := c.Of(p)
	if t3.At(0, 0) != p.Value.At(0, 0) {
		t.Fatal("cache missed the pointer replacement")
	}
}

// TestShadowSharesRevision ensures optimizer steps on the master
// invalidate transpose caches held by replicas (Shadow and Rebind share
// the revision counter).
func TestShadowSharesRevision(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	master := NewParam("w", tensor.Randn(2, 2, 1, rng))
	shadow := master.Shadow()
	rebound := NewParam("w", tensor.Randn(2, 2, 1, rng))
	rebound.Rebind(master)
	var cs, cr TransposeCache
	cs.Of(shadow)
	cr.Of(rebound)
	master.Value.Set(1, 0, 7)
	master.Bump()
	if cs.Of(shadow).At(0, 1) != 7 {
		t.Fatal("shadow cache not invalidated by master Bump")
	}
	if cr.Of(rebound).At(0, 1) != 7 {
		t.Fatal("rebound cache not invalidated by master Bump")
	}
}
