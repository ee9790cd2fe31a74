package gnn

import (
	"math"

	"mvpar/internal/nn"
	"mvpar/internal/tensor"
	"mvpar/internal/tensor/f32"
)

// This file is the float32 inference engine: a one-time quantization of a
// trained MVGNN's parameters into float32 (dense-layer weights stored
// pre-transposed so the single-row matvecs read contiguously), plus a
// forward-only mirror of the DGCNN/MVGNN pipeline built on the
// tensor/f32 kernels — fused matmul+tanh graph convolutions, fused
// dense+bias+tanh readout, table-driven tanh. Training never touches this
// path; the float64 forward remains the bit-identity reference, and
// float32 correctness is enforced by parity tests against it
// (TestPredictWithProbaF32Parity) rather than by bitwise contracts.

// conv1dF32 is a quantized nn.Conv1D (weights + geometry, no gradients).
type conv1dF32 struct {
	inCh, outCh, kernel, stride int
	w                           *f32.Matrix // outCh x inCh*kernel
	b                           []float32
}

func quantizeConv1D(c *nn.Conv1D) conv1dF32 {
	q := conv1dF32{
		inCh:   c.InChannels,
		outCh:  c.OutChannels,
		kernel: c.KernelSize,
		stride: c.Stride,
		w:      f32.FromMatrix(c.W.Value),
		b:      make([]float32, c.B.Value.Cols),
	}
	for i, v := range c.B.Value.Data {
		q.b[i] = float32(v)
	}
	return q
}

func (c *conv1dF32) outLen(l int) int {
	if l < c.kernel {
		return 0
	}
	return (l-c.kernel)/c.stride + 1
}

// forwardInto mirrors nn.Conv1D.ForwardInto in float32 with the bias
// folded into the accumulator initialization and the per-window reduction
// routed through the unrolled f32.Dot kernel. The DGCNN's first readout
// conv has a single input channel with kernel == stride (each output
// position summarizes one sort-pooled node), so it reduces to one long
// dot product per (filter, position) — the single-channel fast path.
//
// The multi-channel path gathers each window's inCh x kernel patch into
// patch (caller-owned scratch, grown as needed and returned) so every
// output element is a single long contiguous dot against a weight row,
// instead of inCh short per-channel dots whose call overhead would
// dominate at the second conv's kernel size.
func (c *conv1dF32) forwardInto(x, out *f32.Matrix, patch []float32) []float32 {
	outLen := out.Cols
	if c.inCh == 1 {
		xr := x.Row(0)
		for f := 0; f < c.outCh; f++ {
			w := c.w.Row(f)
			bias := c.b[f]
			outRow := out.Row(f)
			for t := 0; t < outLen; t++ {
				start := t * c.stride
				outRow[t] = bias + f32.Dot(w, xr[start:start+c.kernel])
			}
		}
		return patch
	}
	wk := c.inCh * c.kernel
	if cap(patch) < wk {
		patch = make([]float32, wk)
	}
	patch = patch[:wk]
	for t := 0; t < outLen; t++ {
		start := t * c.stride
		for ch := 0; ch < c.inCh; ch++ {
			copy(patch[ch*c.kernel:(ch+1)*c.kernel], x.Row(ch)[start:start+c.kernel])
		}
		for f := 0; f < c.outCh; f++ {
			out.Data[f*out.Cols+t] = c.b[f] + f32.Dot(c.w.Row(f), patch)
		}
	}
	return patch
}

// denseF32 is a quantized nn.Dense with the weight stored transposed
// (out x in) so the inference matvec reads both operands contiguously.
type denseF32 struct {
	wt *f32.Matrix
	b  *f32.Matrix // 1 x out
}

func quantizeDense(d *nn.Dense) denseF32 {
	return denseF32{wt: f32.TransposedFromMatrix(d.W.Value), b: f32.FromMatrix(d.B.Value)}
}

// dgcnnWeightsF32 is the read-only quantized parameter set of one view,
// shared by every MVGNNF32 replica.
type dgcnnWeightsF32 struct {
	cfg          Config
	totalCh      int
	convW        []*f32.Matrix // graph-conv weights, in x out
	conv1, conv2 conv1dF32
	poolK, poolS int
	dense, head  denseF32
}

func quantizeDGCNN(d *DGCNN) *dgcnnWeightsF32 {
	w := &dgcnnWeightsF32{
		cfg:     d.Cfg,
		totalCh: d.totalCh,
		conv1:   quantizeConv1D(d.conv1),
		conv2:   quantizeConv1D(d.conv2),
		poolK:   d.pool1.KernelSize,
		poolS:   d.pool1.Stride,
		dense:   quantizeDense(d.dense),
		head:    quantizeDense(d.head),
	}
	for _, c := range d.convs {
		w.convW = append(w.convW, f32.FromMatrix(c.w.Value))
	}
	return w
}

// dgcnnF32 is the per-replica forward state of one quantized view: the
// shared weights plus private scratch (sort buffers, CSR value buffer,
// flatten headers). Matrices come from the owning MVGNNF32's arena.
type dgcnnF32 struct {
	w     *dgcnnWeightsF32
	arena *f32.Arena

	keys         []float64
	idx, tmp     []int
	aVals        []float32
	patch        []float32
	sp           f32.Sparse
	flat1, flat2 f32.Matrix
}

// penultForward mirrors DGCNN.PenultForward: graph-conv stack with
// channel concat, SortPooling, Conv1D/MaxPool/Conv1D, dense+tanh. The
// returned 1 x DenseDim vector lives in the replica arena (valid until
// the next predict).
func (d *dgcnnF32) penultForward(g *EncodedGraph) *f32.Matrix {
	w := d.w
	// Per-sample quantization: node features and adjacency values.
	h := d.arena.Get(g.X.Rows, g.X.Cols)
	f32.ConvertInto(g.X, h)
	d.aVals = f32.LoadSparse(&d.sp, g.Adjacency(), d.aVals)

	cat := d.arena.Get(g.N, w.totalCh)
	off := 0
	for _, wc := range w.convW {
		m := d.arena.Get(g.N, h.Cols)
		f32.SpMMInto(&d.sp, h, m)
		z := d.arena.Get(g.N, wc.Cols)
		f32.MatMulTanhInto(m, wc, z)
		for r := 0; r < g.N; r++ {
			copy(cat.Row(r)[off:off+z.Cols], z.Row(r))
		}
		off += z.Cols
		h = z
	}

	// SortPooling: order nodes by the sort channel (last column of cat)
	// descending, keep k rows, zero-pad small graphs. The argsort runs on
	// float64 keys so the ordering machinery is shared with the f64 path.
	d.keys = growFloats(d.keys, g.N)
	d.idx = growInts(d.idx, g.N)
	d.tmp = growInts(d.tmp, g.N)
	for i := 0; i < g.N; i++ {
		d.keys[i] = -float64(cat.At(i, w.totalCh-1))
	}
	tensor.ArgsortInto(d.keys, d.idx, d.tmp)
	pooled := d.arena.Get(w.cfg.SortK, w.totalCh) // zeroed: rows past N stay padding
	for i := 0; i < w.cfg.SortK && i < g.N; i++ {
		copy(pooled.Row(i), cat.Row(d.idx[i]))
	}

	d.flat1 = f32.Matrix{Rows: 1, Cols: pooled.Rows * pooled.Cols, Data: pooled.Data}
	c1 := d.arena.Get(w.conv1.outCh, w.conv1.outLen(d.flat1.Cols))
	d.patch = w.conv1.forwardInto(&d.flat1, c1, d.patch)
	p1 := d.arena.Get(c1.Rows, poolOutLen(c1.Cols, w.poolK, w.poolS))
	maxPool1DF32(c1, p1, w.poolK, w.poolS)
	c2 := d.arena.Get(w.conv2.outCh, w.conv2.outLen(p1.Cols))
	d.patch = w.conv2.forwardInto(p1, c2, d.patch)
	d.flat2 = f32.Matrix{Rows: 1, Cols: c2.Rows * c2.Cols, Data: c2.Data}
	pen := d.arena.Get(1, w.cfg.DenseDim)
	f32.DenseTanhForwardInto(&d.flat2, w.dense.wt, w.dense.b, pen)
	return pen
}

// logits applies the view's own classification head.
func (d *dgcnnF32) logits(pen *f32.Matrix) *f32.Matrix {
	out := d.arena.Get(1, d.w.cfg.NumClasses)
	f32.DenseForwardInto(pen, d.w.head.wt, d.w.head.b, out)
	return out
}

func poolOutLen(l, kernel, stride int) int {
	if l < kernel {
		return 0
	}
	return (l-kernel)/stride + 1
}

func maxPool1DF32(x, out *f32.Matrix, kernel, stride int) {
	for ch := 0; ch < x.Rows; ch++ {
		xr := x.Row(ch)
		outRow := out.Row(ch)
		for t := range outRow {
			start := t * stride
			bv := xr[start]
			for k := 1; k < kernel; k++ {
				if xr[start+k] > bv {
					bv = xr[start+k]
				}
			}
			outRow[t] = bv
		}
	}
}

// mvgnnWeightsF32 is the shared quantized parameter set of the full
// multi-view model.
type mvgnnWeightsF32 struct {
	classes     int
	predictMode int
	node, strct *dgcnnWeightsF32
	out         denseF32
}

// MVGNNF32 is a forward-only float32 replica of a trained MVGNN. Replicas
// share the quantized weights (read-only) and own their scratch, so — like
// float64 replicas — each must stay goroutine-private while the set of
// replicas serves concurrently.
type MVGNNF32 struct {
	w           *mvgnnWeightsF32
	arena       *f32.Arena
	node, strct dgcnnF32
}

func newMVGNNF32(w *mvgnnWeightsF32) *MVGNNF32 {
	arena := f32.NewArena()
	return &MVGNNF32{
		w:     w,
		arena: arena,
		node:  dgcnnF32{w: w.node, arena: arena},
		strct: dgcnnF32{w: w.strct, arena: arena},
	}
}

// QuantizeF32 snapshots the model's parameters into a float32 inference
// replica. The snapshot is one-time: later optimizer steps or parameter
// reloads on m are NOT reflected — quantize after training (or after
// LoadParams). float32 is not a served tier: the benchmarks and the
// parity tests time and check this forward directly.
func (m *MVGNN) QuantizeF32() *MVGNNF32 {
	return newMVGNNF32(&mvgnnWeightsF32{
		classes:     m.NodeView.Cfg.NumClasses,
		predictMode: m.predictMode,
		node:        quantizeDGCNN(m.NodeView),
		strct:       quantizeDGCNN(m.StructView),
		out:         quantizeDense(m.out),
	})
}

// Predictor returns the float32 Predictor running on q.
func (q *MVGNNF32) Predictor() Predictor {
	return Predictor{eng: q, precision: "float32", predictMode: q.w.predictMode}
}

// replicate shares q's quantized weights and owns private scratch.
func (q *MVGNNF32) replicate() engine { return newMVGNNF32(q.w) }

// forward is the float32 engine, the mirror of MVGNN.forward.
func (q *MVGNNF32) forward(s Sample, h View) (int, float64) {
	q.arena.Reset()
	switch h {
	case ViewNode:
		return classFromF32(q.node.logits(q.node.penultForward(s.Node)))
	case ViewStruct:
		return classFromF32(q.strct.logits(q.strct.penultForward(s.Struct)))
	}
	hn := q.node.penultForward(s.Node)
	hs := q.strct.penultForward(s.Struct)
	ln := q.node.logits(hn)
	ls := q.strct.logits(hs)
	cat := q.arena.Get(1, ln.Cols+ls.Cols)
	copy(cat.Data[:ln.Cols], ln.Row(0))
	copy(cat.Data[ln.Cols:], ls.Row(0))
	f32.TanhInto(cat)
	fused := q.arena.Get(1, q.w.classes)
	f32.DenseForwardInto(cat, q.w.out.wt, q.w.out.b, fused)
	return classFromF32(fused)
}

// classFromF32 mirrors classFrom: argmax with first-wins ties, and
// P(class=1) via a float64 softmax over the (two or three) logits — the
// exp is a rounding-sensitive step, and at this size full precision costs
// nothing.
func classFromF32(logits *f32.Matrix) (int, float64) {
	row := logits.Row(0)
	best := 0
	maxv := math.Inf(-1)
	for j, v := range row {
		if v > row[best] {
			best = j
		}
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	sum, p1 := 0.0, 0.0
	for j, v := range row {
		e := math.Exp(float64(v) - maxv)
		sum += e
		if j == 1 {
			p1 = e
		}
	}
	return best, p1 / sum
}
