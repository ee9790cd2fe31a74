package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/tensor"
)

// TestDGCNNSteadyStateAllocFree asserts the arena actually delivers:
// after warm-up (which sizes the arena's free lists and the cached index
// buffers), a full DGCNN forward + backward allocates nothing.
func TestDGCNNSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig(4)
	d := NewDGCNN(cfg, rng)
	g := Encode(lineGraph(9), tensor.Randn(9, 4, 1, rng))
	grad := tensor.New(1, cfg.NumClasses)
	grad.Set(0, 0, 1)
	grad.Set(0, 1, -1)
	step := func() {
		d.Forward(g)
		d.Backward(grad)
	}
	// Two cycles populate the arena free lists (the first run's buffers
	// only become reusable at the second run's Reset); a third for luck.
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("DGCNN forward+backward allocates %v per run in steady state, want 0", n)
	}
}

// TestPredictFloat64SteadyStateAllocFree: after warm-up, the float64
// Predictor allocates nothing per prediction in any view on an untraced
// context — the arenas hold every activation, Conv1D's Wᵀ is cached, and
// classFrom reduces the logits in place. BenchmarkForwardF32/float64's
// allocs/op gate defends the same property in CI.
func TestPredictFloat64SteadyStateAllocFree(t *testing.T) {
	m, samples := trainedParityModel(t)
	p := m.Predictor()
	ctx := context.Background()
	for _, v := range []View{ViewTrained, ViewNode, ViewStruct} {
		for _, s := range samples {
			p.Predict(ctx, s, v)
		}
		n := testing.AllocsPerRun(20, func() {
			for _, s := range samples {
				p.Predict(ctx, s, v)
			}
		})
		if n != 0 {
			t.Fatalf("float64 predict (view %s) allocates %v per %d samples in steady state, want 0", v, n, len(samples))
		}
	}
}

// TestDGCNNAllocFreeAcrossGraphSizes checks the arena also reaches steady
// state when alternating between graphs of different sizes (each size
// class gets its own free-list bucket).
func TestDGCNNAllocFreeAcrossGraphSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig(3)
	d := NewDGCNN(cfg, rng)
	graphs := []*EncodedGraph{
		Encode(lineGraph(4), tensor.Randn(4, 3, 1, rng)),
		Encode(starGraph(11), tensor.Randn(11, 3, 1, rng)),
		Encode(lineGraph(25), tensor.Randn(25, 3, 1, rng)),
	}
	grad := tensor.New(1, cfg.NumClasses)
	grad.Set(0, 0, 1)
	grad.Set(0, 1, -1)
	step := func() {
		for _, g := range graphs {
			d.Forward(g)
			d.Backward(grad)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("mixed-size forward+backward allocates %v per run in steady state, want 0", n)
	}
}

// TestPenultForwardSkipsPaddingBitIdentical checks PenultForward, whose
// readout convolutions compute the padded SortPooling windows once,
// against the same network run through the full convolutions, bit for
// bit, for graphs of 1 to k+2 nodes (all padded, some, none, truncated)
// and with the readout kernels salted with NaN, ±Inf and -0.
func TestPenultForwardSkipsPaddingBitIdentical(t *testing.T) {
	full := func(d *DGCNN, g *EncodedGraph) *tensor.Matrix {
		pooled, _ := d.pool.forward(d.forwardConvs(g))
		c1 := d.conv1.Forward(d.flat1.Forward(pooled))
		c2 := d.conv2.Forward(d.pool1.Forward(c1))
		return d.act.Forward(d.dense.Forward(d.flat2.Forward(c2))).Clone()
	}
	negZero := math.Copysign(0, -1)
	salts := map[string]func(w []float64){
		"plain": func([]float64) {},
		"special": func(w []float64) {
			w[3], w[len(w)/2], w[len(w)-1] = math.NaN(), math.Inf(1), negZero
			w[len(w)/3] = math.Inf(-1)
		},
	}
	for name, salt := range salts {
		rng := rand.New(rand.NewSource(7))
		cfg := DefaultConfig(4)
		d := NewDGCNN(cfg, rng)
		salt(d.conv1.W.Value.Data)
		salt(d.conv2.W.Value.Data)
		d.conv1.B.Value.Data[0] = negZero
		for n := 1; n <= cfg.SortK+2; n++ {
			g := Encode(lineGraph(n), tensor.Randn(n, 4, 1, rng))
			want := full(d, g)
			got := d.PenultForward(g)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s, %d nodes: element %d = %v, want %v", name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}
