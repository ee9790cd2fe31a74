package nn

import (
	"math"

	"mvpar/internal/tensor"
)

// SoftmaxCrossEntropy couples row-wise softmax with the negative
// log-likelihood loss, the standard classification head. Temperature
// divides the logits before the softmax; the paper trains with a softmax
// loss at temperature 0.5.
type SoftmaxCrossEntropy struct {
	Temperature float64
}

// Loss returns the mean cross-entropy over the batch and the gradient with
// respect to the logits. labels[i] is the class index for row i.
func (l *SoftmaxCrossEntropy) Loss(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	temp := l.Temperature
	if temp <= 0 {
		temp = 1
	}
	scaled := tensor.Scale(logits, 1/temp)
	probs := tensor.SoftmaxRows(scaled)
	loss := 0.0
	grad := tensor.New(logits.Rows, logits.Cols)
	invN := 1.0 / float64(logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic("nn: label out of range")
		}
		p := probs.At(i, y)
		loss += -math.Log(math.Max(p, 1e-15))
		for j := 0; j < logits.Cols; j++ {
			g := probs.At(i, j)
			if j == y {
				g -= 1
			}
			// Chain rule through the temperature scaling.
			grad.Set(i, j, g*invN/temp)
		}
	}
	return loss * invN, grad
}

// Predict returns the argmax class per row of logits.
func Predict(logits *tensor.Matrix) []int {
	out := make([]int, logits.Rows)
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}
