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

// denseRow computes out = x·w + b for one input row: the products sum
// with k ascending, skipping x[k] == 0 like tensor.MatMulInto, and the
// bias is added last like tensor.AddRowVecInto, so each output is
// bit-identical to those two calls.
func denseRow(x []float64, w *tensor.Matrix, b, out []float64) {
	clear(out)
	tensor.VecMatAdd(out, x, w.Data, w.Cols, true)
	for j := range out {
		out[j] += b[j]
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
