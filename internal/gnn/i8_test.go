package gnn

import (
	"context"
	"math"
	"testing"
)

// int8 unit-level drift budget on the deterministic trained fixture: the
// quantized tier may flip a small number of near-boundary samples and its
// probabilities drift more than float32's, but both stay bounded. These
// are tighter than the corpus-level `mvpar parity -precision int8` budget
// because the fixture is tiny and fixed-seed.
const (
	i8ProbaTol = 0.08 // absolute P(class=1) drift vs float64
	i8MaxFlips = 2    // label flips allowed across the 24-sample fixture
)

// TestPredictWithProbaI8Parity is the unit-level drift gate for the int8
// tier: across the seed fixture the trained-head and node-view paths must
// stay within the probability tolerance, with at most i8MaxFlips label
// flips per path (flips must co-occur with near-0.5 probabilities).
func TestPredictWithProbaI8Parity(t *testing.T) {
	m, samples := trainedParityModel(t)
	ref, fast := m.Predictor(), m.QuantizeI8().Predictor()
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode} {
		flips := 0
		for i, s := range samples {
			c64, p64 := ref.Predict(ctx, s, v)
			c8, p8 := fast.Predict(ctx, s, v)
			if d := math.Abs(p8 - p64); d > i8ProbaTol {
				t.Fatalf("view %s sample %d: int8 proba %v drifts from float64 %v by %v", v, i, p8, p64, d)
			}
			if c8 != c64 {
				flips++
				if math.Abs(p64-0.5) > i8ProbaTol {
					t.Fatalf("view %s sample %d: int8 flipped a confident label: int8 (%d, %v) vs float64 (%d, %v)", v, i, c8, p8, c64, p64)
				}
			}
		}
		if flips > i8MaxFlips {
			t.Fatalf("view %s: int8 flips %d exceed budget %d", v, flips, i8MaxFlips)
		}
	}
	for i, s := range samples {
		wc, wp := fast.Predict(ctx, s, ViewTrained)
		if c, p := m.PredictWithProbaI8(s); c != wc || p != wp {
			t.Fatalf("sample %d: PredictWithProbaI8 (%d, %v), int8 Predictor (%d, %v)", i, c, p, wc, wp)
		}
	}
}

// TestPredictWithProbaI8PredictModes exercises head selection: the int8
// engine must follow the same predictMode as the float64 path, within the
// same drift budget.
func TestPredictWithProbaI8PredictModes(t *testing.T) {
	m, samples := trainedParityModel(t)
	ctx := context.Background()
	for _, mode := range []int{0, 1, 2} {
		m.predictMode = mode
		ref, fast := m.Predictor(), m.QuantizeI8().Predictor() // re-quantize with the new mode
		flips := 0
		for i, s := range samples {
			c64, p64 := ref.Predict(ctx, s, ViewTrained)
			c8, p8 := fast.Predict(ctx, s, ViewTrained)
			if math.Abs(p8-p64) > i8ProbaTol {
				t.Fatalf("mode %d sample %d: int8 (%d, %v) drifts from float64 (%d, %v)", mode, i, c8, p8, c64, p64)
			}
			if c8 != c64 {
				flips++
			}
		}
		if flips > i8MaxFlips {
			t.Fatalf("mode %d: %d flips exceed budget %d", mode, flips, i8MaxFlips)
		}
	}
}

// TestMVGNNI8ReplicateSharesWeights pins the engine replica contract:
// MVGNNI8 replicas share the quantized weights (no re-quantization) but
// own both scratch arenas, and agree exactly with the source replica (the
// integer forward is deterministic).
func TestMVGNNI8ReplicateSharesWeights(t *testing.T) {
	m, samples := trainedParityModel(t)
	q := m.QuantizeI8()
	rep := q.replicate().(*MVGNNI8)
	if rep.w != q.w {
		t.Fatal("replica does not share quantized weights")
	}
	if rep.arena == q.arena || rep.iarena == q.iarena {
		t.Fatal("replica shares a scratch arena")
	}
	ctx := context.Background()
	for i, s := range samples {
		c1, p1 := q.Predictor().Predict(ctx, s, ViewTrained)
		c2, p2 := rep.Predictor().Predict(ctx, s, ViewTrained)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("sample %d: replica (%d, %v) differs from source (%d, %v)", i, c2, p2, c1, p1)
		}
	}
}

// TestMVGNNReplicateSharesI8 pins the serving fan-out path: replicas of
// an int8 Predictor (what core.Classifier's free list holds) share the
// one-time quantized weights instead of re-quantizing, and answer
// exactly like the source in every view.
func TestMVGNNReplicateSharesI8(t *testing.T) {
	m, samples := trainedParityModel(t)
	src := m.QuantizeI8().Predictor()
	rep := src.Replicate()
	if rep.eng.(*MVGNNI8).w != src.eng.(*MVGNNI8).w {
		t.Fatal("int8 Predictor replica does not share quantized weights")
	}
	s := samples[0]
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode, ViewStruct} {
		c1, p1 := src.Predict(ctx, s, v)
		c2, p2 := rep.Predict(ctx, s, v)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("view %s: replica int8 predict (%d, %v) differs from source (%d, %v)", v, c2, p2, c1, p1)
		}
	}
}

// TestPredictWithProbaI8SteadyStateAllocFree: after warm-up, the int8
// Predictor must allocate nothing per prediction in either view, on an
// untraced context, and neither may PredictWithProbaI8 — the property
// BenchmarkForwardI8's allocs/op gate defends in CI.
func TestPredictWithProbaI8SteadyStateAllocFree(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	p := m.QuantizeI8().Predictor()
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode} {
		for i := 0; i < 3; i++ {
			p.Predict(ctx, s, v)
		}
		if n := testing.AllocsPerRun(20, func() { p.Predict(ctx, s, v) }); n != 0 {
			t.Fatalf("int8 predict (view %s) allocates %v/op in steady state, want 0", v, n)
		}
	}
	m.PredictWithProbaI8(s)
	if n := testing.AllocsPerRun(20, func() { m.PredictWithProbaI8(s) }); n != 0 {
		t.Fatalf("PredictWithProbaI8 allocates %v/op in steady state, want 0", n)
	}
}

// TestQuantizeI8IsSnapshot: quantization copies the weights; mutating the
// float64 model afterwards must not leak into an existing mirror.
func TestQuantizeI8IsSnapshot(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	p := m.QuantizeI8().Predictor()
	ctx := context.Background()
	c1, p1 := p.Predict(ctx, s, ViewTrained)
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 10
		}
	}
	c2, p2 := p.Predict(ctx, s, ViewTrained)
	if c1 != c2 || p1 != p2 {
		t.Fatalf("quantized mirror changed after mutating float64 weights: (%d, %v) -> (%d, %v)", c1, p1, c2, p2)
	}
}
