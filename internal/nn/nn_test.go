package nn

import (
	"math"
	"testing"
	"testing/quick"

	"mvpar/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	rng := NewRNG(1)
	d := NewDense("d", 2, 2, rng)
	copy(d.W.Value.Data, []float64{1, 2, 3, 4})
	copy(d.B.Value.Data, []float64{10, 20})
	out := d.Forward(tensor.FromRows([][]float64{{1, 1}}))
	want := tensor.FromRows([][]float64{{14, 26}})
	if !tensor.ApproxEqual(out, want, 1e-12) {
		t.Fatalf("Dense forward = %v", out)
	}
}

func TestConv1DForwardKnownValues(t *testing.T) {
	rng := NewRNG(2)
	c := NewConv1D("c", 1, 1, 2, 1, rng)
	copy(c.W.Value.Data, []float64{1, -1})
	c.B.Value.Data[0] = 0.5
	out := c.Forward(tensor.FromRows([][]float64{{3, 1, 4, 1, 5}}))
	want := tensor.FromRows([][]float64{{2.5, -2.5, 3.5, -3.5}})
	if !tensor.ApproxEqual(out, want, 1e-12) {
		t.Fatalf("Conv1D forward = %v", out)
	}
	if c.OutLen(5) != 4 || c.OutLen(1) != 0 {
		t.Fatal("OutLen wrong")
	}
}

func TestConv1DStrideEqualsKernel(t *testing.T) {
	// The DGCNN's first conv uses kernel = stride = channel count so each
	// output position covers exactly one sort-pooled node.
	rng := NewRNG(3)
	c := NewConv1D("c", 1, 2, 3, 3, rng)
	x := tensor.FromRows([][]float64{{1, 2, 3, 4, 5, 6}})
	out := c.Forward(x)
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatalf("shape = %dx%d, want 2x2", out.Rows, out.Cols)
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool1D(2, 2)
	out := p.Forward(tensor.FromRows([][]float64{{1, 5, 2, 3}, {-1, -2, -3, -4}}))
	want := tensor.FromRows([][]float64{{5, 3}, {-1, -3}})
	if !tensor.ApproxEqual(out, want, 0) {
		t.Fatalf("MaxPool forward = %v", out)
	}
}

func TestPredictArgmax(t *testing.T) {
	logits := tensor.FromRows([][]float64{{0.1, 0.9}, {5, -5}, {2, 2}})
	got := Predict(logits)
	if got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestSoftmaxCELossValue(t *testing.T) {
	l := &SoftmaxCrossEntropy{Temperature: 1}
	// Uniform logits over 2 classes: loss = ln 2.
	logits := tensor.FromRows([][]float64{{0, 0}})
	loss, _ := l.Loss(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", tensor.FromRows([][]float64{{5, -3}}))
	target := tensor.FromRows([][]float64{{1, 2}})
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad = tensor.Sub(p.Value, target)
		opt.Step([]*Param{p})
	}
	if !tensor.ApproxEqual(p.Value, target, 1e-3) {
		t.Fatalf("Adam did not converge: %v", p.Value)
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("w", tensor.New(1, 2))
	p.Grad = tensor.FromRows([][]float64{{3, 4}}) // norm 5
	ClipGrads([]*Param{p}, 1)
	if math.Abs(p.Grad.Norm2()-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", p.Grad.Norm2())
	}
	// Below the threshold: untouched.
	p.Grad = tensor.FromRows([][]float64{{0.1, 0.1}})
	before := p.Grad.Clone()
	ClipGrads([]*Param{p}, 1)
	if !tensor.ApproxEqual(p.Grad, before, 0) {
		t.Fatal("ClipGrads modified a small gradient")
	}
}

// An end-to-end sanity check: a 2-layer MLP learns XOR.
func TestMLPLearnsXOR(t *testing.T) {
	rng := NewRNG(42)
	model := NewSequential(
		NewDense("d1", 2, 8, rng),
		&Tanh{},
		NewDense("d2", 8, 2, rng),
	)
	loss := &SoftmaxCrossEntropy{Temperature: 1}
	opt := NewAdam(0.05)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 300; epoch++ {
		out := model.Forward(x)
		_, grad := loss.Loss(out, labels)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	pred := Predict(model.Forward(x))
	for i, p := range pred {
		if p != labels[i] {
			t.Fatalf("XOR not learned: pred=%v want=%v", pred, labels)
		}
	}
}

// An LSTM should learn a simple order-sensitive task: classify whether the
// first element of the sequence is larger than the last.
func TestLSTMLearnsOrderTask(t *testing.T) {
	rng := NewRNG(7)
	lstm := NewLSTM("l", 1, 8, rng)
	head := NewDense("h", 8, 2, rng)
	last := &LastRow{}
	loss := &SoftmaxCrossEntropy{Temperature: 1}
	params := append(lstm.Params(), head.Params()...)
	opt := NewAdam(0.02)

	sample := func() (*tensor.Matrix, int) {
		T := 4
		x := tensor.New(T, 1)
		for i := 0; i < T; i++ {
			x.Data[i] = rng.Float64()*2 - 1
		}
		label := 0
		if x.Data[0] > x.Data[T-1] {
			label = 1
		}
		return x, label
	}

	for step := 0; step < 600; step++ {
		x, y := sample()
		out := head.Forward(last.Forward(lstm.Forward(x)))
		_, grad := loss.Loss(out, []int{y})
		lstm.Backward(last.Backward(head.Backward(grad)))
		ClipGrads(params, 5)
		opt.Step(params)
	}

	correct := 0
	total := 200
	for i := 0; i < total; i++ {
		x, y := sample()
		out := head.Forward(last.Forward(lstm.Forward(x)))
		if Predict(out)[0] == y {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Fatalf("LSTM accuracy on order task = %.2f, want >= 0.85", acc)
	}
}

// Property: softmax-CE loss is non-negative and finite for all logits.
func TestLossNonNegativeProperty(t *testing.T) {
	l := &SoftmaxCrossEntropy{Temperature: 0.5}
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip degenerate inputs
			}
		}
		logits := tensor.FromRows([][]float64{{a, b}, {c, d}})
		loss, grad := l.Loss(logits, []int{0, 1})
		if loss < 0 || math.IsNaN(loss) || math.IsInf(loss, 0) {
			return false
		}
		for _, g := range grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
