package gnn

import (
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/nn"
	"mvpar/internal/tensor"
)

func pretrainGraphs(rng *rand.Rand, n int) []*EncodedGraph {
	var gs []*EncodedGraph
	for i := 0; i < n; i++ {
		size := 4 + rng.Intn(5)
		var g *EncodedGraph
		x := tensor.Randn(size, 3, 1, rng)
		if i%2 == 0 {
			g = Encode(lineGraph(size), x)
		} else {
			g = Encode(starGraph(size), x)
		}
		gs = append(gs, g)
	}
	return gs
}

func TestPretrainLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := pretrainGraphs(rng, 12)
	d := NewDGCNN(DefaultConfig(3), rand.New(rand.NewSource(2)))
	losses := d.Pretrain(graphs, 15, 0.01, 3)
	if len(losses) != 15 {
		t.Fatalf("losses = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("unsupervised loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite loss %v", l)
		}
	}
}

func TestPretrainStepDegenerateGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDGCNN(DefaultConfig(2), rand.New(rand.NewSource(5)))
	single := Encode(lineGraph(1), tensor.New(1, 2))
	if l := d.PretrainStep(single, 8, rng); l != 0 {
		t.Fatalf("single-node pretrain loss = %v, want 0", l)
	}
}

// Gradient check: with a fixed RNG seed the sampled pairs are fixed, so
// the pretraining loss is a deterministic function of the weights.
func TestPretrainGradientCheck(t *testing.T) {
	cfg := Config{InputDim: 2, ConvChannels: []int{3, 1}, SortK: 4,
		Conv1Filters: 2, Conv2Filters: 2, DenseDim: 4, NumClasses: 2}
	d := NewDGCNN(cfg, rand.New(rand.NewSource(6)))
	g := Encode(lineGraph(5), tensor.Randn(5, 2, 1, rand.New(rand.NewSource(7))))

	lossAt := func() float64 {
		// Fresh RNG per evaluation so pair sampling is identical; the
		// gradient side effects are cleared afterwards.
		rng := rand.New(rand.NewSource(42))
		l := d.PretrainStep(g, 100, rng)
		nn.ZeroGrads(d.convParams())
		return l
	}

	rng := rand.New(rand.NewSource(42))
	nn.ZeroGrads(d.convParams())
	_ = d.PretrainStep(g, 100, rng)
	// Snapshot analytic gradients before lossAt probes clear them.
	analyticGrads := map[*nn.Param][]float64{}
	for _, p := range d.convParams() {
		analyticGrads[p] = append([]float64(nil), p.Grad.Data...)
	}

	const eps = 1e-5
	for _, p := range d.convParams() {
		for _, i := range []int{0, len(p.Value.Data) - 1} {
			analytic := analyticGrads[p][i]
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestTrainWithPretraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := makeSyntheticSamples(40, rng, 4)
	m := NewMVGNN(4, 4, 9)
	cfg := TrainConfig{Epochs: 12, LR: 0.005, Temperature: 0.5, ClipNorm: 5,
		BatchSize: 4, PretrainEpochs: 3, Seed: 9}
	m.Train(samples, cfg, nil)
	if acc := Evaluate(m.Predictor().Labeler(ViewTrained), samples); acc < 0.85 {
		t.Fatalf("accuracy with pretraining = %v", acc)
	}
}
