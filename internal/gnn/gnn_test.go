package gnn

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mvpar/internal/graph"
	"mvpar/internal/nn"
	"mvpar/internal/tensor"
)

func lineGraph(n int) *graph.Directed {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

func starGraph(n int) *graph.Directed {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i, 0, 0)
	}
	return g
}

func TestEncodeNormalization(t *testing.T) {
	g := lineGraph(3)
	x := tensor.New(3, 2)
	eg := Encode(g, x)
	// Node 0: self + node 1 -> weights 1/2 each. Node 1: self + 0 + 2 -> 1/3.
	a := eg.Adjacency()
	for v, wantDeg := range []int{2, 3, 2} {
		lo, hi := a.RowPtr[v], a.RowPtr[v+1]
		if hi-lo != wantDeg {
			t.Fatalf("node %d degree %d, want %d", v, hi-lo, wantDeg)
		}
		sum := 0.0
		for _, w := range a.Val[lo:hi] {
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("node %d weights sum %v", v, sum)
		}
		for k := lo + 1; k < hi; k++ {
			if a.ColIdx[k] <= a.ColIdx[k-1] {
				t.Fatalf("node %d columns not ascending: %v", v, a.ColIdx[lo:hi])
			}
		}
	}
}

func TestEncodeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Encode(lineGraph(3), tensor.New(2, 2))
}

func TestPropagateTransposeConsistency(t *testing.T) {
	// <Âx, y> must equal <x, Âᵀy> for random vectors.
	rng := rand.New(rand.NewSource(1))
	g := lineGraph(6)
	g.AddEdge(0, 4, 0)
	eg := Encode(g, tensor.New(6, 1))
	x := tensor.Randn(6, 3, 1, rng)
	y := tensor.Randn(6, 3, 1, rng)
	ax := eg.propagate(x)
	aty := eg.propagateT(y)
	lhs, rhs := 0.0, 0.0
	for i := range ax.Data {
		lhs += ax.Data[i] * y.Data[i]
		rhs += x.Data[i] * aty.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestSortPoolOrderingAndPadding(t *testing.T) {
	sp := &sortPool{k: 4}
	z := tensor.FromRows([][]float64{
		{1, 0.2},
		{2, 0.9},
		{3, 0.5},
	})
	out, filled := sp.forward(z)
	if out.Rows != 4 || out.Cols != 2 || filled != 3 {
		t.Fatalf("shape %dx%d, %d rows filled", out.Rows, out.Cols, filled)
	}
	// Sorted by last channel descending: rows 1 (0.9), 2 (0.5), 0 (0.2).
	if out.At(0, 0) != 2 || out.At(1, 0) != 3 || out.At(2, 0) != 1 {
		t.Fatalf("sorted rows wrong: %v", out)
	}
	for _, v := range out.Row(3) {
		if v != 0 {
			t.Fatal("padding row not zero")
		}
	}
	// Backward routes gradients to original rows and drops padding.
	grad := tensor.FromRows([][]float64{{10, 10}, {20, 20}, {30, 30}, {40, 40}})
	dz := sp.backward(grad)
	if dz.At(1, 0) != 10 || dz.At(2, 0) != 20 || dz.At(0, 0) != 30 {
		t.Fatalf("backward routing wrong: %v", dz)
	}
}

func TestSortPoolTruncatesLargeGraphs(t *testing.T) {
	sp := &sortPool{k: 2}
	z := tensor.FromRows([][]float64{{0, 1}, {0, 3}, {0, 2}})
	out, filled := sp.forward(z)
	if out.Rows != 2 || filled != 2 || out.At(0, 1) != 3 || out.At(1, 1) != 2 {
		t.Fatalf("truncation wrong: %v", out)
	}
}

func TestDGCNNForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig(5)
	d := NewDGCNN(cfg, rng)
	for _, n := range []int{1, 3, 16, 40} {
		g := Encode(lineGraph(n), tensor.Randn(n, 5, 1, rng))
		pen := d.PenultForward(g)
		if pen.Rows != 1 || pen.Cols != cfg.DenseDim {
			t.Fatalf("n=%d penult shape %dx%d", n, pen.Rows, pen.Cols)
		}
		logits := d.Forward(g)
		if logits.Rows != 1 || logits.Cols != 2 {
			t.Fatalf("n=%d logits shape %dx%d", n, logits.Rows, logits.Cols)
		}
	}
}

// Full-model gradient check: numerical vs analytic gradient for a few
// parameters of every layer type in the DGCNN.
func TestDGCNNGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{
		InputDim:     3,
		ConvChannels: []int{4, 1},
		SortK:        4,
		Conv1Filters: 3,
		Conv2Filters: 4,
		DenseDim:     5,
		NumClasses:   2,
		Seed:         3,
	}
	d := NewDGCNN(cfg, rng)
	g := Encode(lineGraph(6), tensor.Randn(6, 3, 1, rng))
	loss := &nn.SoftmaxCrossEntropy{Temperature: 1}
	label := []int{1}

	lossAt := func() float64 {
		// The probes perturb weights in place; bump them so the cached
		// Wᵀ of the readout convolutions sees every probe.
		for _, p := range d.Params() {
			p.Bump()
		}
		l, _ := loss.Loss(d.Forward(g), label)
		return l
	}
	nn.ZeroGrads(d.Params())
	logits := d.Forward(g)
	_, grad := loss.Loss(logits, label)
	d.Backward(grad)

	const eps = 1e-5
	for _, p := range d.Params() {
		// Probe a few entries of each parameter.
		probes := []int{0, len(p.Value.Data) / 2, len(p.Value.Data) - 1}
		for _, i := range probes {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			want := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %s[%d]: grad %v, numeric %v", p.Name, i, got, want)
			}
		}
	}
}

// makeSyntheticSamples builds a star-vs-chain classification task where
// only the structure differs. Row-normalized propagation of constant
// features is degree-invariant, so the features carry the node degree —
// exactly what real encodings (walk distributions, CU embeddings) provide.
func makeSyntheticSamples(n int, rng *rand.Rand, featDim int) []Sample {
	var samples []Sample
	for i := 0; i < n; i++ {
		size := 5 + rng.Intn(6)
		var g *graph.Directed
		label := i % 2
		if label == 0 {
			g = lineGraph(size)
		} else {
			g = starGraph(size)
		}
		x := tensor.New(size, featDim)
		for r := 0; r < size; r++ {
			x.Set(r, 0, 1)
			x.Set(r, 1, float64(len(g.Neighbors(r))))
		}
		eg := Encode(g, x)
		samples = append(samples, Sample{Node: eg, Struct: eg, Label: label})
	}
	return samples
}

func TestMVGNNLearnsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := makeSyntheticSamples(60, rng, 4)
	m := NewMVGNN(4, 4, 7)
	cfg := TrainConfig{Epochs: 25, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 7}
	curve := m.Train(samples, cfg, nil)
	// Staged training: view phase (Epochs) plus fusion phase (Epochs/4+1).
	if len(curve) != cfg.Epochs+cfg.Epochs/4+1 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[len(curve)-1].Loss >= curve[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", curve[0].Loss, curve[len(curve)-1].Loss)
	}
	acc := Evaluate(m.Predictor().Labeler(ViewTrained), samples)
	if acc < 0.9 {
		t.Fatalf("train accuracy = %v, want >= 0.9 on separable task", acc)
	}
}

func TestSingleViewLearnsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := makeSyntheticSamples(60, rng, 4)
	v := NewSingleView(4, true, 9)
	v.Train(samples, TrainConfig{Epochs: 25, LR: 0.005, Temperature: 0.5, ClipNorm: 5, Seed: 9}, nil)
	acc := Evaluate(v.Predict, samples)
	if acc < 0.85 {
		t.Fatalf("single-view accuracy = %v", acc)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(6))
	s1 := makeSyntheticSamples(20, rng1, 3)
	rng2 := rand.New(rand.NewSource(6))
	s2 := makeSyntheticSamples(20, rng2, 3)
	cfg := TrainConfig{Epochs: 5, LR: 0.01, Temperature: 0.5, ClipNorm: 5, Seed: 11}
	m1 := NewMVGNN(3, 3, 11)
	m2 := NewMVGNN(3, 3, 11)
	c1 := m1.Train(s1, cfg, nil)
	c2 := m2.Train(s2, cfg, nil)
	for i := range c1 {
		if c1[i].Loss != c2[i].Loss || c1[i].Acc != c2[i].Acc {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

func TestPredictProbaRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := makeSyntheticSamples(4, rng, 3)
	m := NewMVGNN(3, 3, 13)
	for _, v := range []View{ViewTrained, ViewNode, ViewStruct} {
		for _, s := range samples {
			_, p := m.Predictor().Predict(context.Background(), s, v)
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("view %s: proba = %v", v, p)
			}
		}
	}
}

// TestDGCNNAtPaperSizes builds the DGCNN at the paper's reported sizes
// (§IV-B): 200 node feature dimensions and SortPooling k = 135.
func TestDGCNNAtPaperSizes(t *testing.T) {
	cfg := Config{
		InputDim:     200,
		ConvChannels: []int{200, 200, 200, 1},
		SortK:        135,
		Conv1Filters: 16,
		Conv2Filters: 32,
		DenseDim:     128,
		NumClasses:   2,
		Seed:         1,
	}
	rng := rand.New(rand.NewSource(1))
	d := NewDGCNN(cfg, rng)
	g := Encode(lineGraph(50), tensor.Randn(50, 200, 0.1, rng))
	pen := d.PenultForward(g)
	if pen.Rows != 1 || pen.Cols != cfg.DenseDim {
		t.Fatalf("paper-config penult shape %dx%d", pen.Rows, pen.Cols)
	}
	logits := d.Forward(g)
	if logits.Cols != 2 {
		t.Fatalf("logits cols = %d", logits.Cols)
	}
}

// TestLoadHeadCompat pins the checkpoint's head blob: a checkpoint
// without it (written before the head was saved) and one with an
// out-of-range head both fail to load, and each leaves the target's
// weights and head as they were.
func TestLoadHeadCompat(t *testing.T) {
	m := NewMVGNN(4, 3, 1)
	m.predictMode = 1
	var headless bytes.Buffer
	if err := nn.SaveParams(&headless, m.Params()); err != nil {
		t.Fatal(err)
	}
	var bad bytes.Buffer
	head := nn.NewParam(headBlob, tensor.FromSlice(1, 1, []float64{3}))
	if err := nn.SaveParams(&bad, append(m.Params(), head)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		ckpt       []byte
	}{
		{"headless", headBlob, headless.Bytes()},
		{"head 3", "checkpoint head 3", bad.Bytes()},
	} {
		target := NewMVGNN(4, 3, 2)
		target.predictMode = 2
		before := nn.FingerprintParams(target.Params())
		err := target.Load(bytes.NewReader(tc.ckpt))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s checkpoint: load error %v, want one naming %q", tc.name, err, tc.want)
		}
		if after := nn.FingerprintParams(target.Params()); after != before {
			t.Fatalf("%s checkpoint changed the weights: fingerprint %s, was %s", tc.name, after, before)
		}
		if h := target.Head(); h != ViewStruct {
			t.Fatalf("%s checkpoint left the %v head, want struct", tc.name, h)
		}
	}
}

// TestLoadDropsQuantizedTiers: the float32 and int8 engines behind
// PredictWithProbaF32 and PredictWithProbaI8 are cached snapshots of the
// weights, so Load must drop them. After a load every tier answers like a
// fresh model that only ever loaded the same checkpoint.
func TestLoadDropsQuantizedTiers(t *testing.T) {
	m, samples := trainedParityModel(t)
	m.PrepareF32()
	m.PrepareI8()
	other := NewMVGNN(4, 4, 7)
	other.Train(samples, TrainConfig{Epochs: 6, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 7}, nil)
	var ckpt bytes.Buffer
	if err := other.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	fresh := NewMVGNN(4, 4, 99)
	if err := fresh.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name      string
		got, want func(Sample) (int, float64)
	}{
		{"float64", m.PredictWithProba, fresh.PredictWithProba},
		{"float32", m.PredictWithProbaF32, fresh.PredictWithProbaF32},
		{"int8", m.PredictWithProbaI8, fresh.PredictWithProbaI8},
	}
	for _, tier := range tiers {
		stale := 0
		for _, s := range samples {
			gc, gp := tier.got(s)
			wc, wp := tier.want(s)
			if gc != wc || gp != wp {
				stale++
			}
		}
		if stale > 0 {
			t.Errorf("%s: %d/%d samples answer from the weights before Load", tier.name, stale, len(samples))
		}
	}
}
