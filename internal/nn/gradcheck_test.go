package nn

import (
	"math"
	"testing"

	"mvpar/internal/tensor"
)

// numericalGrad computes a central-difference gradient of loss() with
// respect to every element of m.
func numericalGrad(m *tensor.Matrix, loss func() float64) *tensor.Matrix {
	const eps = 1e-5
	g := tensor.New(m.Rows, m.Cols)
	for i := range m.Data {
		orig := m.Data[i]
		m.Data[i] = orig + eps
		lp := loss()
		m.Data[i] = orig - eps
		lm := loss()
		m.Data[i] = orig
		g.Data[i] = (lp - lm) / (2 * eps)
	}
	return g
}

// checkGrads runs Forward+loss, backprops, and compares every parameter
// gradient and the input gradient against numerical differentiation.
func checkGrads(t *testing.T, layer Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		// numericalGrad perturbs weights in place; bump them so caches
		// derived from the weights (Conv1D's Wᵀ) see every probe.
		for _, p := range layer.Params() {
			p.Bump()
		}
		out := layer.Forward(x)
		// Simple quadratic loss: 0.5 * sum(out^2); dLoss/dOut = out.
		s := 0.0
		for _, v := range out.Data {
			s += 0.5 * v * v
		}
		return s
	}
	out := layer.Forward(x)
	ZeroGrads(layer.Params())
	dx := layer.Backward(out.Clone())

	for _, p := range layer.Params() {
		want := numericalGrad(p.Value, lossFn)
		if !tensor.ApproxEqual(p.Grad, want, tol) {
			t.Fatalf("param %s gradient mismatch\ngot  %v\nwant %v", p.Name, p.Grad, want)
		}
	}
	wantDx := numericalGrad(x, lossFn)
	if !tensor.ApproxEqual(dx, wantDx, tol) {
		t.Fatalf("input gradient mismatch\ngot  %v\nwant %v", dx, wantDx)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := NewRNG(1)
	layer := NewDense("d", 4, 3, rng)
	x := tensor.Randn(5, 4, 1, rng)
	checkGrads(t, layer, x, 1e-6)
}

func TestTanhGradients(t *testing.T) {
	rng := NewRNG(2)
	checkGrads(t, &Tanh{}, tensor.Randn(3, 4, 1, rng), 1e-6)
}

func TestReLUGradients(t *testing.T) {
	rng := NewRNG(3)
	// Shift away from 0 so the finite difference does not straddle the kink.
	x := tensor.Randn(3, 4, 1, rng)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 1e-3 {
			x.Data[i] = 0.1
		}
	}
	checkGrads(t, &ReLU{}, x, 1e-6)
}

func TestConv1DGradients(t *testing.T) {
	rng := NewRNG(5)
	layer := NewConv1D("c", 2, 3, 3, 2, rng)
	x := tensor.Randn(2, 9, 1, rng)
	checkGrads(t, layer, x, 1e-6)
}

func TestMaxPoolGradients(t *testing.T) {
	rng := NewRNG(6)
	layer := NewMaxPool1D(2, 2)
	x := tensor.Randn(3, 8, 1, rng)
	checkGrads(t, layer, x, 1e-6)
}

func TestFlattenAndLastRowGradients(t *testing.T) {
	rng := NewRNG(7)
	checkGrads(t, &Flatten{}, tensor.Randn(3, 4, 1, rng), 1e-6)
	checkGrads(t, &LastRow{}, tensor.Randn(4, 3, 1, rng), 1e-6)
}

func TestLSTMGradients(t *testing.T) {
	rng := NewRNG(8)
	layer := NewLSTM("l", 3, 4, rng)
	x := tensor.Randn(5, 3, 1, rng)
	checkGrads(t, layer, x, 1e-5)
}

func TestSequentialGradients(t *testing.T) {
	rng := NewRNG(9)
	model := NewSequential(
		NewDense("d1", 4, 6, rng),
		&Tanh{},
		NewDense("d2", 6, 2, rng),
	)
	x := tensor.Randn(3, 4, 1, rng)
	checkGrads(t, model, x, 1e-6)
}

func TestSoftmaxCrossEntropyGradients(t *testing.T) {
	rng := NewRNG(10)
	logits := tensor.Randn(4, 3, 1, rng)
	labels := []int{0, 2, 1, 1}
	for _, temp := range []float64{1.0, 0.5} {
		l := &SoftmaxCrossEntropy{Temperature: temp}
		_, grad := l.Loss(logits, labels)
		want := numericalGrad(logits, func() float64 {
			loss, _ := l.Loss(logits, labels)
			return loss
		})
		if !tensor.ApproxEqual(grad, want, 1e-6) {
			t.Fatalf("temp=%v CE gradient mismatch\ngot  %v\nwant %v", temp, grad, want)
		}
	}
}
