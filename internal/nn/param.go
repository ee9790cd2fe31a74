// Package nn implements the neural-network building blocks used by the
// DGCNN/MV-GNN models and the NCC baseline: dense layers, activations,
// 1-D convolution, max pooling, an LSTM, softmax cross-entropy and the
// Adam optimizer. Every layer performs manual backpropagation:
// Forward caches what Backward needs, Backward accumulates parameter
// gradients and returns the gradient with respect to the layer input.
//
// Layers are deliberately stateful per training step (one Forward followed
// by one Backward); models that process one graph at a time, as the paper's
// DGCNN does, fit this protocol directly.
package nn

import (
	"math"
	"math/rand"

	"mvpar/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	// rev counts in-place mutations of Value (optimizer steps). Shadows
	// and rebound replicas share the pointer, so a master's Bump
	// invalidates every replica's derived caches (see TransposeCache).
	rev *uint64
}

// NewParam allocates a parameter with a zero gradient buffer.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols), rev: new(uint64)}
}

// Shadow returns a parameter that shares p's Value storage (and revision
// counter) but owns a fresh zero Grad buffer. Data-parallel training
// workers run their model replicas through shadow params: forward passes
// read the shared weights, backward passes accumulate into the private
// grad, and the trainer reduces the shadows into the master grads in a
// fixed order.
func (p *Param) Shadow() *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Rows, p.Value.Cols), rev: p.rev}
}

// Rebind makes p read src's weights: it shares src's Value storage and
// revision counter while keeping p's own Grad buffer. Replicas built by
// reconstructing a layer stack (gnn.DGCNN.Replicate) use this to attach
// to the master's weights.
func (p *Param) Rebind(src *Param) {
	p.Value = src.Value
	p.rev = src.rev
}

// Bump records an in-place mutation of Value. Everything that writes
// Value.Data without replacing the Value pointer — the optimizers, or any
// manual weight surgery after the first forward pass — must call it so
// derived caches (cached weight transposes) notice. It must only be
// called while no forward/backward pass is running on a shadow of p,
// which the trainers guarantee by stepping at batch boundaries.
func (p *Param) Bump() {
	if p.rev == nil { // zero-value Param, no caches can exist
		return
	}
	*p.rev++
}

// Rev returns the current revision of Value's contents. A cache keyed on
// (Value pointer, Rev) stays valid exactly as long as the weights are
// unchanged: in-place updates bump the revision and reloads (LoadParams)
// replace the pointer.
func (p *Param) Rev() uint64 {
	if p.rev == nil {
		return 0
	}
	return *p.rev
}

// TransposeCache memoizes the transpose of a parameter's Value: the
// backward-pass operand every matmul layer needs (dX = grad·Wᵀ), and
// Conv1D's forward operand (filters laid out as columns). The cache
// recomputes only when the weights actually changed — detected by the
// (Value pointer, revision) pair — instead of re-transposing on every
// call. Each layer (and each replica) owns its cache, so there
// is no cross-goroutine sharing; recomputation reuses one buffer and is
// allocation-free after the first call.
type TransposeCache struct {
	t   *tensor.Matrix
	of  *tensor.Matrix
	rev uint64
}

// Of returns pᵀ, recomputing it only if p.Value changed since the last
// call. The returned matrix is owned by the cache and must be treated as
// read-only.
func (c *TransposeCache) Of(p *Param) *tensor.Matrix {
	v := p.Value
	if c.t != nil && c.of == v && c.rev == p.Rev() {
		return c.t
	}
	if c.t == nil || c.t.Rows != v.Cols || c.t.Cols != v.Rows {
		c.t = tensor.New(v.Cols, v.Rows)
	}
	tensor.TransposeInto(v, c.t)
	c.of, c.rev = v, p.Rev()
	return c.t
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Layer is a differentiable transformation of a matrix.
type Layer interface {
	// Forward computes the layer output for x, caching activations
	// needed by Backward.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward receives dLoss/dOutput and returns dLoss/dInput, adding
	// this step's parameter gradients into Params' Grad buffers.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears gradients of all params in the slice.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGrads scales all gradients down so the global L2 norm is at most
// maxNorm; exploding LSTM gradients are the usual customer.
func ClipGrads(params []*Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		n := p.Grad.Norm2()
		total += n * n
	}
	if total <= maxNorm*maxNorm {
		return
	}
	scale := maxNorm / (1e-12 + math.Sqrt(total))
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
}

// NewRNG returns a deterministic RNG for the given seed; every stochastic
// component in the repo takes one of these so runs are reproducible.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
