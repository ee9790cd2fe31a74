package gnn

import (
	"math"
	"math/rand"

	"mvpar/internal/nn"
	"mvpar/internal/tensor"
)

// Config sizes a DGCNN. The paper's reference configuration uses four
// graph convolutions with a single sorting channel last, SortPooling with
// k = 135 on benchmark-scale graphs, two 1-D convolutions and a dense
// layer; the defaults here keep that architecture at the scale of our
// sub-PEGs.
type Config struct {
	// Prefix namespaces parameter names so two DGCNNs (the two views)
	// can be serialized side by side.
	Prefix       string
	InputDim     int
	ConvChannels []int // channel widths of the graph conv stack; last is the sort channel
	SortK        int   // SortPooling k
	Conv1Filters int
	Conv2Filters int
	DenseDim     int // penultimate (fusion-facing) dimension
	NumClasses   int
	Seed         int64
}

// DefaultConfig returns the standard configuration for the given input
// feature dimension, scaled to this corpus's sub-PEG sizes (tens of
// nodes) so the full experiment suite runs in minutes on one CPU.
func DefaultConfig(inputDim int) Config {
	return Config{
		InputDim:     inputDim,
		ConvChannels: []int{16, 16, 16, 1},
		SortK:        16,
		Conv1Filters: 16,
		Conv2Filters: 32,
		DenseDim:     48,
		NumClasses:   2,
		Seed:         1,
	}
}

// graphConv is one graph convolution layer with manual backprop. Its
// buffers come from the owning DGCNN's arena; wT caches the weight
// transpose the backward pass multiplies by, invalidated by optimizer
// steps (nn.Param.Bump).
type graphConv struct {
	w       *nn.Param
	wT      nn.TransposeCache
	scratch *tensor.Arena

	lastM *tensor.Matrix // Â·H input aggregate
	lastZ *tensor.Matrix // tanh output
	g     *EncodedGraph
}

func newGraphConv(name string, in, out int, rng *rand.Rand) *graphConv {
	return &graphConv{w: nn.NewParam(name, tensor.XavierInit(in, out, rng))}
}

// forward computes Z = tanh(Â H W) via the CSR propagation kernel.
func (l *graphConv) forward(g *EncodedGraph, h *tensor.Matrix) *tensor.Matrix {
	l.g = g
	l.lastM = l.scratch.Get(g.N, h.Cols)
	g.propagateInto(h, l.lastM)
	z := l.scratch.Get(g.N, l.w.Value.Cols)
	tensor.MatMulInto(l.lastM, l.w.Value, z)
	tensor.ApplyInto(z, math.Tanh, z)
	l.lastZ = z
	return z
}

// backward receives dZ, accumulates dW, and returns dH.
func (l *graphConv) backward(dz *tensor.Matrix) *tensor.Matrix {
	dpre := l.scratch.Get(dz.Rows, dz.Cols)
	for i := range dz.Data {
		z := l.lastZ.Data[i]
		dpre.Data[i] = dz.Data[i] * (1 - z*z)
	}
	// Per-sample dW in a zeroed buffer, folded into Grad with one
	// AddInPlace (the data-parallel bit-identity contract).
	mT := l.scratch.Get(l.lastM.Cols, l.lastM.Rows)
	tensor.TransposeInto(l.lastM, mT)
	dw := l.scratch.Get(l.w.Value.Rows, l.w.Value.Cols)
	tensor.MatMulInto(mT, dpre, dw)
	l.w.Grad.AddInPlace(dw)
	dm := l.scratch.Get(dpre.Rows, l.w.Value.Rows)
	tensor.MatMulInto(dpre, l.wT.Of(l.w), dm)
	dh := l.scratch.Get(l.g.N, dm.Cols)
	l.g.propagateTInto(dm, dh)
	return dh
}

// sortPool implements SortPooling: orders nodes by the last (sort) channel
// descending and keeps the top k rows, zero-padding small graphs, so the
// downstream 1-D convolution sees a fixed-size input. Sort keys, index
// buffers and the permutation are reused across calls.
//
// forward also returns how many rows it filled, min(N, k): every row
// from there on is padding, which lets the readout skip the windows that
// read only zeros.
type sortPool struct {
	k       int
	scratch *tensor.Arena

	perm      []int // kept row -> source row (-1 for padding)
	keys      []float64
	idx, tmp  []int
	nIn, cols int
}

func (s *sortPool) forward(z *tensor.Matrix) (*tensor.Matrix, int) {
	s.nIn = z.Rows
	s.cols = z.Cols
	s.keys = growFloats(s.keys, z.Rows)
	s.idx = growInts(s.idx, z.Rows)
	s.tmp = growInts(s.tmp, z.Rows)
	for i := 0; i < z.Rows; i++ {
		// Negate so the ascending argsort yields descending keys.
		s.keys[i] = -z.At(i, z.Cols-1)
	}
	tensor.ArgsortInto(s.keys, s.idx, s.tmp)
	out := s.scratch.Get(s.k, z.Cols) // zeroed: rows past nIn stay padding
	s.perm = growInts(s.perm, s.k)
	for i := 0; i < s.k; i++ {
		if i < len(s.idx) {
			s.perm[i] = s.idx[i]
			copy(out.Row(i), z.Row(s.idx[i]))
		} else {
			s.perm[i] = -1
		}
	}
	return out, min(z.Rows, s.k)
}

func (s *sortPool) backward(grad *tensor.Matrix) *tensor.Matrix {
	dz := s.scratch.Get(s.nIn, s.cols)
	for i := 0; i < s.k; i++ {
		if src := s.perm[i]; src >= 0 {
			copy(dz.Row(src), grad.Row(i))
		}
	}
	return dz
}

// growInts returns a length-n int slice, reusing s's storage when it is
// large enough (callers overwrite every element).
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// DGCNN is the end-to-end graph classifier of figure 6: graph conv stack
// with concatenated channels, SortPooling, Conv1D/MaxPool/Conv1D, a dense
// penultimate layer, and a classification head. PenultForward exposes the
// fusion-facing vector the multi-view model consumes.
//
// Every layer draws its activation and gradient buffers from one arena
// owned by the model, reset at the start of each forward pass — so
// steady-state training allocates nothing. Consequently outputs are valid
// only until the model's next forward; callers that hold a result across
// samples must Clone it.
type DGCNN struct {
	Cfg Config

	arena *tensor.Arena

	convs []*graphConv
	pool  *sortPool
	conv1 *nn.Conv1D
	pool1 *nn.MaxPool1D
	conv2 *nn.Conv1D
	dense *nn.Dense
	act   *nn.Tanh
	head  *nn.Dense

	flat1 *nn.Flatten
	flat2 *nn.Flatten

	// caches for backward
	convOuts []*tensor.Matrix
	offsets  []int
	totalCh  int
}

// NewDGCNN builds a DGCNN from cfg.
func NewDGCNN(cfg Config, rng *rand.Rand) *DGCNN {
	arena := tensor.NewArena()
	d := &DGCNN{Cfg: cfg, arena: arena, pool: &sortPool{k: cfg.SortK, scratch: arena}}
	in := cfg.InputDim
	total := 0
	for i, ch := range cfg.ConvChannels {
		gc := newGraphConv(name(cfg.Prefix+"gc", i), in, ch, rng)
		gc.scratch = arena
		d.convs = append(d.convs, gc)
		in = ch
		total += ch
	}
	d.totalCh = total
	d.offsets = make([]int, len(d.convs)+1)
	for i, c := range d.convs {
		d.offsets[i+1] = d.offsets[i] + c.w.Value.Cols
	}
	d.conv1 = nn.NewConv1D(cfg.Prefix+"conv1", 1, cfg.Conv1Filters, total, total, rng)
	d.pool1 = nn.NewMaxPool1D(2, 2)
	kernel2 := 5
	if cfg.SortK/2 < kernel2 {
		kernel2 = cfg.SortK / 2
		if kernel2 < 1 {
			kernel2 = 1
		}
	}
	d.conv2 = nn.NewConv1D(cfg.Prefix+"conv2", cfg.Conv1Filters, cfg.Conv2Filters, kernel2, 1, rng)
	conv2Out := (cfg.SortK/2-kernel2)/1 + 1
	d.dense = nn.NewDense(cfg.Prefix+"dense", cfg.Conv2Filters*conv2Out, cfg.DenseDim, rng)
	// Tanh keeps the penultimate vector bounded so the multi-view fusion
	// tanh (eq. 5) cannot saturate on large activations.
	d.act = &nn.Tanh{}
	d.head = nn.NewDense(cfg.Prefix+"head", cfg.DenseDim, cfg.NumClasses, rng)
	d.flat1 = &nn.Flatten{}
	d.flat2 = &nn.Flatten{}
	d.conv1.Scratch = arena
	d.pool1.Scratch = arena
	d.conv2.Scratch = arena
	d.dense.Scratch = arena
	d.act.Scratch = arena
	d.head.Scratch = arena
	return d
}

func name(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// Replicate returns a worker-private copy for data-parallel training and
// evaluation: the replica rebuilds the full layer stack (own arena, own
// activation caches, own gradient and transpose-cache buffers) and then
// rebinds every parameter to the master's Value storage and revision
// counter, so forward passes see the master weights — and master optimizer
// steps invalidate replica transpose caches — while backward passes stay
// isolated. Params() order is stable across construction, which makes the
// positional rebind sound.
func (d *DGCNN) Replicate() *DGCNN {
	rep := NewDGCNN(d.Cfg, rand.New(rand.NewSource(0)))
	src := d.Params()
	for i, p := range rep.Params() {
		p.Rebind(src[i])
	}
	return rep
}

// Params returns every trainable parameter.
func (d *DGCNN) Params() []*nn.Param {
	var ps []*nn.Param
	for _, c := range d.convs {
		ps = append(ps, c.w)
	}
	ps = append(ps, d.conv1.Params()...)
	ps = append(ps, d.conv2.Params()...)
	ps = append(ps, d.dense.Params()...)
	ps = append(ps, d.head.Params()...)
	return ps
}

// forwardConvs runs the graph convolution stack and returns the
// channel-concatenated node representations (N x totalCh).
func (d *DGCNN) forwardConvs(g *EncodedGraph) *tensor.Matrix {
	// One reset per sample: every buffer handed out since the previous
	// forward (including backward-pass buffers) is reclaimed here.
	d.arena.Reset()
	h := g.X
	d.convOuts = d.convOuts[:0]
	for _, c := range d.convs {
		h = c.forward(g, h)
		d.convOuts = append(d.convOuts, h)
	}
	cat := d.arena.Get(g.N, d.totalCh)
	for ci, z := range d.convOuts {
		lo := d.offsets[ci]
		for r := 0; r < z.Rows; r++ {
			copy(cat.Row(r)[lo:lo+z.Cols], z.Row(r))
		}
	}
	return cat
}

// backwardConvs backpropagates a gradient on the concatenated conv
// outputs through the graph convolution stack, threading the skip
// gradients between layers.
func (d *DGCNN) backwardConvs(g *tensor.Matrix) {
	var dH *tensor.Matrix
	for i := len(d.convs) - 1; i >= 0; i-- {
		lo, hi := d.offsets[i], d.offsets[i+1]
		dz := d.arena.Get(g.Rows, hi-lo)
		for r := 0; r < g.Rows; r++ {
			copy(dz.Row(r), g.Row(r)[lo:hi])
		}
		if dH != nil {
			dz.AddInPlace(dH)
		}
		dH = d.convs[i].backward(dz)
	}
}

// PenultForward runs the network up to the penultimate dense layer and
// returns the 1 x DenseDim fusion vector (owned by the model's arena:
// valid until the next forward).
func (d *DGCNN) PenultForward(g *EncodedGraph) *tensor.Matrix {
	cat := d.forwardConvs(g)
	pooled, filled := d.pool.forward(cat) // k x C, rows from filled on zero
	row := d.flat1.Forward(pooled)        // 1 x k*C
	// Windows that read only padding produce identical outputs, so each
	// readout convolution computes the first of them and copies it.
	// LiveFrom carries "identical from this column on" through the
	// strides: conv1's stride is C, so its live window is filled.
	live1 := d.conv1.LiveFrom(filled * d.totalCh)
	c1 := d.conv1.ForwardLive(row, live1)                  // F1 x k
	p1 := d.pool1.Forward(c1)                              // F1 x k/2
	c2 := d.conv2.ForwardLive(p1, d.pool1.LiveFrom(live1)) // F2 x L2
	flat := d.flat2.Forward(c2)                            // 1 x F2*L2
	return d.act.Forward(d.dense.Forward(flat))            // 1 x DenseDim
}

// Forward returns classification logits for the graph.
func (d *DGCNN) Forward(g *EncodedGraph) *tensor.Matrix {
	return d.head.Forward(d.PenultForward(g))
}

// BackwardFromPenult backpropagates a gradient on the penultimate vector
// through the whole graph stack, accumulating parameter gradients.
func (d *DGCNN) BackwardFromPenult(dPenult *tensor.Matrix) {
	g := d.dense.Backward(d.act.Backward(dPenult))
	g = d.flat2.Backward(g)
	g = d.conv2.Backward(g)
	g = d.pool1.Backward(g)
	g = d.conv1.Backward(g)
	g = d.flat1.Backward(g)
	g = d.pool.backward(g)
	d.backwardConvs(g)
}

// Backward backpropagates a gradient on the logits.
func (d *DGCNN) Backward(dLogits *tensor.Matrix) {
	d.BackwardFromPenult(d.head.Backward(dLogits))
}
