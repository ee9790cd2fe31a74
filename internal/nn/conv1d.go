package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mvpar/internal/tensor"
)

// Conv1D is a one-dimensional convolution over a channels x length input,
// producing outChannels x outLength. In the DGCNN, the first Conv1D has
// kernel size and stride equal to the per-node channel count, so each
// output position summarizes one of the k sort-pooled nodes. Windows that
// read only SortPooling's zero padding all produce the same outputs;
// ForwardLiveInto computes those once.
type Conv1D struct {
	InChannels  int
	OutChannels int
	KernelSize  int
	Stride      int

	// W has shape outChannels x (inChannels*kernelSize); B is 1 x outChannels.
	W, B *Param

	// Scratch, when set, supplies output and gradient buffers so
	// steady-state Forward/Backward allocate nothing (see Dense.Scratch).
	Scratch *tensor.Arena

	lastX *tensor.Matrix
	wT    TransposeCache // Wᵀ, the forward's (inChannels*kernelSize) x outChannels operand
	acc   []float64      // one window's outputs, reused across calls
}

// NewConv1D creates a Conv1D layer with Xavier-initialized kernels.
func NewConv1D(name string, inCh, outCh, kernel, stride int, rng *rand.Rand) *Conv1D {
	if stride <= 0 || kernel <= 0 {
		panic(fmt.Sprintf("nn: NewConv1D kernel=%d stride=%d", kernel, stride))
	}
	return &Conv1D{
		InChannels:  inCh,
		OutChannels: outCh,
		KernelSize:  kernel,
		Stride:      stride,
		W:           NewParam(name+".W", tensor.XavierInit(outCh, inCh*kernel, rng)),
		B:           NewParam(name+".b", tensor.New(1, outCh)),
	}
}

// OutLen returns the output length for an input of length l.
func (c *Conv1D) OutLen(l int) int {
	if l < c.KernelSize {
		return 0
	}
	return (l-c.KernelSize)/c.Stride + 1
}

// Forward computes the convolution of an InChannels x L input into a
// buffer drawn from the layer's arena.
func (c *Conv1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := c.Scratch.Get(c.OutChannels, c.OutLen(x.Cols))
	c.ForwardInto(x, out)
	return out
}

// ForwardInto computes the convolution of an InChannels x L input into
// out, which must be OutChannels x OutLen(L) and is fully overwritten.
// This is the explicit-destination variant the inference paths use: the
// caller owns buffer placement (replica arena, fused pipelines) and the
// call itself allocates nothing. The layer still records x for a
// subsequent Backward.
func (c *Conv1D) ForwardInto(x, out *tensor.Matrix) {
	c.ForwardLiveInto(x, out, out.Cols)
}

// ForwardLive is Forward for an input whose windows from live on all
// read identical values; see ForwardLiveInto.
func (c *Conv1D) ForwardLive(x *tensor.Matrix, live int) *tensor.Matrix {
	out := c.Scratch.Get(c.OutChannels, c.OutLen(x.Cols))
	c.ForwardLiveInto(x, out, live)
	return out
}

// ForwardLiveInto is ForwardInto for an input whose windows from index
// live on all read identical values, such as windows lying wholly in
// SortPooling's zero padding. It computes windows 0..live with the same
// kernel and copies window live's outputs into the later columns.
// Identical inputs give identical sums, so out is bit-identical to
// ForwardInto's for any weights. LiveFrom gives live for a stacked layer.
func (c *Conv1D) ForwardLiveInto(x, out *tensor.Matrix, live int) {
	if x.Rows != c.InChannels {
		panic(fmt.Sprintf("nn: Conv1D expects %d input channels, got %d", c.InChannels, x.Rows))
	}
	outLen := c.OutLen(x.Cols)
	if out.Rows != c.OutChannels || out.Cols != outLen {
		panic(fmt.Sprintf("nn: Conv1D ForwardInto dst %dx%d, want %dx%d", out.Rows, out.Cols, c.OutChannels, outLen))
	}
	c.lastX = x
	n := outLen // windows computed; the rest copy window n-1
	if live < n {
		n = max(live, 0) + 1
	}
	// One output column per window: acc starts at the bias and adds each
	// channel's kernel-long slice of x against that channel's rows of Wᵀ,
	// so every filter sums in the scalar order (bias, then ch ascending,
	// then k ascending).
	kernel, oc := c.KernelSize, c.OutChannels
	wT := c.wT.Of(c.W).Data
	c.acc = growFloats(c.acc, oc)
	for t := 0; t < n; t++ {
		start := t * c.Stride
		copy(c.acc, c.B.Value.Data)
		for ch := 0; ch < c.InChannels; ch++ {
			tensor.VecMatAdd(c.acc, x.Row(ch)[start:start+kernel], wT[ch*kernel*oc:(ch+1)*kernel*oc], oc, false)
		}
		for f, v := range c.acc {
			out.Data[f*outLen+t] = v
		}
	}
	for f := 0; n > 0 && n < outLen && f < c.OutChannels; f++ {
		o := out.Row(f)
		for t := n; t < outLen; t++ {
			o[t] = o[n-1]
		}
	}
}

// LiveFrom maps col, the first input column from which every later
// column holds the same values, to the first output window from which
// every later window reads only such columns (t*Stride >= col): the live
// argument of ForwardLiveInto, and the next layer's col.
func (c *Conv1D) LiveFrom(col int) int { return ceilDiv(col, c.Stride) }

// Backward accumulates kernel/bias gradients and returns the input gradient.
//
// The per-sample gradient is summed into local buffers and folded into
// W.Grad/B.Grad with exactly one AddInPlace each. That single-add contract
// is what makes data-parallel training bitwise deterministic: a worker's
// shadow grad (starting from zero) holds exactly this sample's contribution,
// so reducing shadows into the master in sample order reproduces the serial
// accumulation bit for bit.
func (c *Conv1D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	x := c.lastX
	dx := c.Scratch.Get(x.Rows, x.Cols)
	dwBuf := c.Scratch.Get(c.W.Value.Rows, c.W.Value.Cols)
	dbBuf := c.Scratch.Get(c.B.Value.Rows, c.B.Value.Cols)
	outLen := grad.Cols
	for f := 0; f < c.OutChannels; f++ {
		w := c.W.Value.Row(f)
		dw := dwBuf.Row(f)
		gRow := grad.Row(f)
		for t := 0; t < outLen; t++ {
			g := gRow[t]
			if g == 0 {
				continue
			}
			start := t * c.Stride
			dbBuf.Data[f] += g
			for ch := 0; ch < c.InChannels; ch++ {
				xr := x.Row(ch)
				dxr := dx.Row(ch)
				wOff := ch * c.KernelSize
				for k := 0; k < c.KernelSize; k++ {
					dw[wOff+k] += g * xr[start+k]
					dxr[start+k] += g * w[wOff+k]
				}
			}
		}
	}
	c.W.Grad.AddInPlace(dwBuf)
	c.B.Grad.AddInPlace(dbBuf)
	return dx
}

// Params returns the kernel and bias.
func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool1D pools a channels x length input down to channels x outLength,
// taking the max over each window.
type MaxPool1D struct {
	KernelSize int
	Stride     int

	// Scratch, when set, supplies output and gradient buffers (see
	// Dense.Scratch).
	Scratch *tensor.Arena

	lastX  *tensor.Matrix
	argmax []int // flattened (channel, outPos) -> input column index, reused across calls
	outLen int
}

// NewMaxPool1D creates a max-pooling layer.
func NewMaxPool1D(kernel, stride int) *MaxPool1D {
	if stride <= 0 || kernel <= 0 {
		panic(fmt.Sprintf("nn: NewMaxPool1D kernel=%d stride=%d", kernel, stride))
	}
	return &MaxPool1D{KernelSize: kernel, Stride: stride}
}

// OutLen returns the output length for an input of length l.
func (p *MaxPool1D) OutLen(l int) int {
	if l < p.KernelSize {
		return 0
	}
	return (l-p.KernelSize)/p.Stride + 1
}

// Forward computes window-wise maxima and records argmax positions.
func (p *MaxPool1D) Forward(x *tensor.Matrix) *tensor.Matrix {
	p.lastX = x
	p.outLen = p.OutLen(x.Cols)
	out := p.Scratch.Get(x.Rows, p.outLen)
	p.argmax = growInts(p.argmax, x.Rows*p.outLen)
	for ch := 0; ch < x.Rows; ch++ {
		xr := x.Row(ch)
		for t := 0; t < p.outLen; t++ {
			start := t * p.Stride
			best := start
			bv := math.Inf(-1)
			for k := 0; k < p.KernelSize; k++ {
				if xr[start+k] > bv {
					bv = xr[start+k]
					best = start + k
				}
			}
			out.Set(ch, t, bv)
			p.argmax[ch*p.outLen+t] = best
		}
	}
	return out
}

// LiveFrom is Conv1D.LiveFrom for the pooling windows: from the returned
// window on, every output column holds the same values.
func (p *MaxPool1D) LiveFrom(col int) int { return ceilDiv(col, p.Stride) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Backward scatters gradients back to the argmax positions.
func (p *MaxPool1D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := p.Scratch.Get(p.lastX.Rows, p.lastX.Cols)
	for ch := 0; ch < grad.Rows; ch++ {
		for t := 0; t < grad.Cols; t++ {
			dx.Row(ch)[p.argmax[ch*p.outLen+t]] += grad.At(ch, t)
		}
	}
	return dx
}

// Params returns nil: pooling has no trainable state.
func (p *MaxPool1D) Params() []*Param { return nil }

// Flatten reshapes any matrix to a single row (1 x Rows*Cols) so a dense
// head can follow a convolutional stack. Both directions reuse the input
// storage; the reshaped headers are cached in the layer so steady-state
// calls allocate nothing.
type Flatten struct {
	lastRows, lastCols int
	out, back          tensor.Matrix
}

// Forward flattens x to one row (sharing x's storage).
func (f *Flatten) Forward(x *tensor.Matrix) *tensor.Matrix {
	f.lastRows, f.lastCols = x.Rows, x.Cols
	f.out = tensor.Matrix{Rows: 1, Cols: x.Rows * x.Cols, Data: x.Data}
	return &f.out
}

// Backward restores the original shape (sharing grad's storage).
func (f *Flatten) Backward(grad *tensor.Matrix) *tensor.Matrix {
	f.back = tensor.Matrix{Rows: f.lastRows, Cols: f.lastCols, Data: grad.Data}
	return &f.back
}

// Params returns nil: Flatten has no trainable state.
func (f *Flatten) Params() []*Param { return nil }

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// growInts returns a length-n int slice, reusing s's storage when it is
// large enough (every element is overwritten by the caller).
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// LastRow selects the final row of its input (e.g. the last hidden state of
// an LSTM sequence) and backpropagates only into that row.
type LastRow struct {
	lastRows, lastCols int
}

// Forward returns the last row as a 1 x Cols matrix.
func (l *LastRow) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.lastRows, l.lastCols = x.Rows, x.Cols
	out := tensor.New(1, x.Cols)
	copy(out.Data, x.Row(x.Rows-1))
	return out
}

// Backward scatters the gradient into the final row.
func (l *LastRow) Backward(grad *tensor.Matrix) *tensor.Matrix {
	dx := tensor.New(l.lastRows, l.lastCols)
	copy(dx.Row(l.lastRows-1), grad.Data)
	return dx
}

// Params returns nil: LastRow has no trainable state.
func (l *LastRow) Params() []*Param { return nil }
