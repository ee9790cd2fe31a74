package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// trainedParityModel trains a small model on the synthetic star-vs-chain
// task so the float32-vs-float64 comparison runs on realistic (trained,
// saturating-tanh) weights rather than random initialization.
func trainedParityModel(t *testing.T) (*MVGNN, []Sample) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	samples := makeSyntheticSamples(24, rng, 4)
	m := NewMVGNN(4, 4, 13)
	m.Train(samples, TrainConfig{Epochs: 6, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 13}, nil)
	return m, samples
}

// TestPredictWithProbaF32Parity is the unit-level accuracy-parity gate:
// on every seed sample the float32 Predictor must return the same label
// as the float64 reference and a probability within 1e-4, from the
// trained head and from the node view (the degraded path).
func TestPredictWithProbaF32Parity(t *testing.T) {
	m, samples := trainedParityModel(t)
	ref, fast := m.Predictor(), m.QuantizeF32().Predictor()
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode} {
		for i, s := range samples {
			c64, p64 := ref.Predict(ctx, s, v)
			c32, p32 := fast.Predict(ctx, s, v)
			if c32 != c64 {
				t.Fatalf("view %s sample %d: float32 label %d, float64 label %d (proba %v vs %v)", v, i, c32, c64, p32, p64)
			}
			if math.Abs(p32-p64) > 1e-4 {
				t.Fatalf("view %s sample %d: float32 proba %v drifts from float64 %v by %v", v, i, p32, p64, math.Abs(p32-p64))
			}
		}
	}
	for i, s := range samples {
		wc, wp := fast.Predict(ctx, s, ViewTrained)
		if c, p := m.PredictWithProbaF32(s); c != wc || p != wp {
			t.Fatalf("sample %d: PredictWithProbaF32 (%d, %v), float32 Predictor (%d, %v)", i, c, p, wc, wp)
		}
	}
}

// TestPredictWithProbaF32PredictModes exercises the head selection: the
// quantized engine must follow the same predictMode as the float64 path.
func TestPredictWithProbaF32PredictModes(t *testing.T) {
	m, samples := trainedParityModel(t)
	ctx := context.Background()
	for _, mode := range []int{0, 1, 2} {
		m.predictMode = mode
		ref, fast := m.Predictor(), m.QuantizeF32().Predictor() // re-quantize with the new mode
		for i, s := range samples {
			c64, p64 := ref.Predict(ctx, s, ViewTrained)
			c32, p32 := fast.Predict(ctx, s, ViewTrained)
			if c32 != c64 || math.Abs(p32-p64) > 1e-4 {
				t.Fatalf("mode %d sample %d: float32 (%d, %v) vs float64 (%d, %v)", mode, i, c32, p32, c64, p64)
			}
		}
	}
}

// TestMVGNNF32ReplicateSharesWeights pins the replica contract: replicas
// of a float32 Predictor share the quantized weights (no
// re-quantization) but own their scratch, and agree exactly with the
// source.
func TestMVGNNF32ReplicateSharesWeights(t *testing.T) {
	m, samples := trainedParityModel(t)
	q := m.QuantizeF32()
	src := q.Predictor()
	rep := src.Replicate()
	rq := rep.eng.(*MVGNNF32)
	if rq.w != q.w {
		t.Fatal("replica does not share quantized weights")
	}
	if rq.arena == q.arena {
		t.Fatal("replica shares the scratch arena")
	}
	ctx := context.Background()
	for i, s := range samples {
		c1, p1 := src.Predict(ctx, s, ViewTrained)
		c2, p2 := rep.Predict(ctx, s, ViewTrained)
		if c1 != c2 || p1 != p2 {
			t.Fatalf("sample %d: replica (%d, %v) differs from source (%d, %v)", i, c2, p2, c1, p1)
		}
	}
}

// TestPredictWithProbaF32SteadyStateAllocFree: after warm-up, the
// float32 Predictor must allocate nothing per prediction in either view,
// on an untraced context, and neither may PredictWithProbaF32 — the
// property BenchmarkForwardF32's allocs/op gate defends in CI.
func TestPredictWithProbaF32SteadyStateAllocFree(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	p := m.QuantizeF32().Predictor()
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode} {
		for i := 0; i < 3; i++ {
			p.Predict(ctx, s, v)
		}
		if n := testing.AllocsPerRun(20, func() { p.Predict(ctx, s, v) }); n != 0 {
			t.Fatalf("float32 predict (view %s) allocates %v/op in steady state, want 0", v, n)
		}
	}
	m.PredictWithProbaF32(s)
	if n := testing.AllocsPerRun(20, func() { m.PredictWithProbaF32(s) }); n != 0 {
		t.Fatalf("PredictWithProbaF32 allocates %v/op in steady state, want 0", n)
	}
}

// TestQuantizeF32IsSnapshot: quantization copies the weights; mutating
// the float64 model afterwards must not leak into an existing mirror.
func TestQuantizeF32IsSnapshot(t *testing.T) {
	m, samples := trainedParityModel(t)
	s := samples[0]
	p := m.QuantizeF32().Predictor()
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
