package nn

import (
	"math"

	"mvpar/internal/tensor"
)

// Tanh is the elementwise hyperbolic-tangent activation; it is the
// nonlinearity the paper uses both inside the DGCNN graph convolutions and
// in the multi-view fusion layer (eq. 5). Scratch, when set, supplies the
// activation buffers (see Dense.Scratch).
type Tanh struct {
	Scratch *tensor.Arena

	lastY *tensor.Matrix
}

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := t.Scratch.Get(x.Rows, x.Cols)
	tensor.ApplyInto(x, math.Tanh, out)
	t.lastY = out
	return out
}

// Backward multiplies the incoming gradient by 1 - tanh².
func (t *Tanh) Backward(grad *tensor.Matrix) *tensor.Matrix {
	out := t.Scratch.Get(grad.Rows, grad.Cols)
	for i := range grad.Data {
		y := t.lastY.Data[i]
		out.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return out
}

// Params returns nil: Tanh has no trainable state.
func (t *Tanh) Params() []*Param { return nil }

// ReLU is the elementwise rectified linear activation (used by the NCC
// baseline's dense layers).
type ReLU struct {
	Scratch *tensor.Arena

	lastX *tensor.Matrix
}

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.lastX = x
	out := r.Scratch.Get(x.Rows, x.Cols)
	tensor.ApplyInto(x, func(v float64) float64 {
		if v > 0 {
			return v
		}
		return 0
	}, out)
	return out
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	out := r.Scratch.Get(grad.Rows, grad.Cols)
	for i := range grad.Data {
		if r.lastX.Data[i] > 0 {
			out.Data[i] = grad.Data[i]
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Params returns nil: ReLU has no trainable state.
func (r *ReLU) Params() []*Param { return nil }

// sigmoid is the logistic function of the LSTM gates.
func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
