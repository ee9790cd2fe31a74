package nn

import (
	"fmt"
	"math/rand"

	"mvpar/internal/tensor"
)

// Dense is a fully connected layer: Y = X·W + b, with X of shape
// batch x in, W of shape in x out, and b broadcast across the batch.
type Dense struct {
	W, B *Param

	// Scratch, when set, supplies the activation and gradient buffers so
	// steady-state Forward/Backward allocate nothing. The model that owns
	// the layer resets the arena once per sample; a nil Scratch falls
	// back to heap allocation (standalone use, tests).
	Scratch *tensor.Arena

	lastX *tensor.Matrix
	wT    TransposeCache
}

// NewDense creates a Dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		W: NewParam(name+".W", tensor.XavierInit(in, out, rng)),
		B: NewParam(name+".b", tensor.New(1, out)),
	}
}

// Forward computes X·W + b. The result is owned by the layer's arena
// (valid until the owning model's next forward) when Scratch is set.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.W.Value.Rows {
		panic(fmt.Sprintf("nn: Dense expects %d inputs, got %d", d.W.Value.Rows, x.Cols))
	}
	d.lastX = x
	out := d.Scratch.Get(x.Rows, d.W.Value.Cols)
	for i := 0; i < x.Rows; i++ {
		denseRow(x.Row(i), d.W.Value, d.B.Value.Data, out.Row(i))
	}
	return out
}

// denseRow computes out = x·w + b for one input row. It holds eight
// output columns in registers while walking w's rows with k ascending,
// skipping x[k] == 0 like tensor.MatMulInto, and adds the bias last like
// tensor.AddRowVecInto, so each output is bit-identical to those two
// calls. Leftover columns run the same order one at a time.
func denseRow(x []float64, w *tensor.Matrix, b, out []float64) {
	cols, wd := w.Cols, w.Data
	j := 0
	for ; j+7 < cols; j += 8 {
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for k, xv := range x {
			if xv == 0 {
				continue
			}
			r := wd[k*cols+j : k*cols+j+8]
			a0 += xv * r[0]
			a1 += xv * r[1]
			a2 += xv * r[2]
			a3 += xv * r[3]
			a4 += xv * r[4]
			a5 += xv * r[5]
			a6 += xv * r[6]
			a7 += xv * r[7]
		}
		o := out[j : j+8]
		bj := b[j : j+8]
		o[0], o[1], o[2], o[3] = a0+bj[0], a1+bj[1], a2+bj[2], a3+bj[3]
		o[4], o[5], o[6], o[7] = a4+bj[4], a5+bj[5], a6+bj[6], a7+bj[7]
	}
	for ; j < cols; j++ {
		var a float64
		for k, xv := range x {
			if xv == 0 {
				continue
			}
			a += xv * wd[k*cols+j]
		}
		out[j] = a + b[j]
	}
}

// Backward accumulates dW = Xᵀ·grad and db = Σrows(grad), and returns
// dX = grad·Wᵀ. Wᵀ comes from a cache invalidated by optimizer steps
// (Param.Bump) rather than being re-transposed every call.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	x := d.lastX
	xT := d.Scratch.Get(x.Cols, x.Rows)
	tensor.TransposeInto(x, xT)
	dw := d.Scratch.Get(d.W.Value.Rows, d.W.Value.Cols)
	tensor.MatMulInto(xT, grad, dw)
	d.W.Grad.AddInPlace(dw)
	db := d.Scratch.Get(1, grad.Cols)
	tensor.SumRowsInto(grad, db)
	d.B.Grad.AddInPlace(db)
	dx := d.Scratch.Get(grad.Rows, d.W.Value.Rows)
	tensor.MatMulInto(grad, d.wT.Of(d.W), dx)
	return dx
}

// Params returns W and b.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Replicate returns a worker-private copy for data-parallel training: it
// shares d's weight values through shadow params (see Param.Shadow) but
// owns its own gradient buffers, activation cache and transpose cache.
// The caller assigns the replica's Scratch arena.
func (d *Dense) Replicate() *Dense {
	return &Dense{W: d.W.Shadow(), B: d.B.Shadow()}
}
