package gnn

import (
	"mvpar/internal/nn"
	"mvpar/internal/tensor"
	"mvpar/internal/tensor/f32"
	"mvpar/internal/tensor/i8"
)

// This file is the int8 inference engine, one precision rung below f32.go:
// a one-time symmetric per-channel quantization of a trained MVGNN's dense
// and Conv1D weights into int8 (stored pre-transposed like the f32 mirror,
// one scale per output channel), plus a forward-only pipeline that
// quantizes activations dynamically per sample — per row where a kernel
// reads rows against per-channel weights, per tensor where it mixes rows —
// accumulates in int32, and dequantizes through the table tanh shared with
// the f32 tier. Biases stay float32 and are folded in after accumulation.
//
// Training never touches this path, and unlike the f32 tier the int8 tier
// drifts by a *non-zero* budget: TestPredictWithProbaI8Parity holds it to
// a probability tolerance and a flip count on a trained fixture instead
// of indistinguishability. int8 is not a served tier: the benchmarks time
// this forward directly.

// conv1dI8 is a quantized nn.Conv1D: int8 weights stored transposed
// (inCh*kernel x outCh, one scale per filter) for the GEMM formulation of
// the forward pass, and float32 biases.
type conv1dI8 struct {
	inCh, outCh, kernel, stride int
	wt                          *i8.Matrix
	wScale                      []float32
	b                           []float32
}

func quantizeConv1DI8(c *nn.Conv1D) conv1dI8 {
	// Quantize per filter (row of the outCh x inCh*kernel weight), then
	// transpose the codes so each GEMM b-row is one kernel tap across all
	// filters. One-time model quantization: allocates.
	w, scales := i8.QuantizeRowsPerChannel(c.W.Value)
	wt := i8.New(w.Cols, w.Rows)
	for f := 0; f < w.Rows; f++ {
		for k, v := range w.Row(f) {
			wt.Data[k*w.Rows+f] = v
		}
	}
	q := conv1dI8{
		inCh:   c.InChannels,
		outCh:  c.OutChannels,
		kernel: c.KernelSize,
		stride: c.Stride,
		wt:     wt,
		wScale: scales,
		b:      make([]float32, c.B.Value.Cols),
	}
	for i, v := range c.B.Value.Data {
		q.b[i] = float32(v)
	}
	return q
}

func (c *conv1dI8) outLen(l int) int {
	if l < c.kernel {
		return 0
	}
	return (l-c.kernel)/c.stride + 1
}

// forwardInto mirrors conv1dF32.forwardInto on the integer kernel as one
// GEMM: the input windows become rows of an outLen x inCh*kernel int8
// matrix (zero-copy when a single input channel's stride equals its
// kernel — the first readout conv, where each window is one sort-pooled
// node — otherwise gathered into patch, an arena buffer of that shape),
// multiplied against the transposed weights into acc (outLen x outCh),
// then transpose-dequantized into out with the bias folded in. x is the
// per-tensor quantized input and xScale its grid (per tensor, not per
// row, because windows mix input rows).
func (c *conv1dI8) forwardInto(x *i8.Matrix, xScale float32, out *f32.Matrix, acc *i8.Acc, patch *i8.Matrix) {
	outLen := out.Cols
	wk := c.inCh * c.kernel
	var a *i8.Matrix
	if c.inCh == 1 && c.stride == c.kernel {
		a = &i8.Matrix{Rows: outLen, Cols: wk, Data: x.Row(0)[:outLen*wk]}
	} else {
		for t := 0; t < outLen; t++ {
			start := t * c.stride
			prow := patch.Row(t)
			for ch := 0; ch < c.inCh; ch++ {
				copy(prow[ch*c.kernel:(ch+1)*c.kernel], x.Row(ch)[start:start+c.kernel])
			}
		}
		a = patch
	}
	i8.MatMulInto(a, c.wt, acc)
	i8.DequantBiasTransposeInto(acc, xScale, c.wScale, c.b, out)
}

// denseI8 is a quantized nn.Dense: the weight stored transposed (out x in)
// with one scale per output channel, bias in float32.
type denseI8 struct {
	wt     *i8.Matrix
	wScale []float32
	b      []float32
}

func quantizeDenseI8(d *nn.Dense) denseI8 {
	wt, scales := i8.QuantizeTransposedPerChannel(d.W.Value)
	q := denseI8{wt: wt, wScale: scales, b: make([]float32, d.B.Value.Cols)}
	for i, v := range d.B.Value.Data {
		q.b[i] = float32(v)
	}
	return q
}

// dgcnnWeightsI8 is the read-only quantized parameter set of one view,
// shared by every MVGNNI8 replica. Graph-conv weights keep their in x out
// layout (per-column scales) for the register-blocked int8 GEMM — except
// the final layer, which stays float32: its output is the SortPooling
// channel, and an ordering decision made on quantized scores reorders the
// pooled node set discretely (a label-flipping jump, not a rounding
// drift). The final layer is the in x 1 sort head, so the float32 holdout
// costs almost nothing while the wide layers stay integer.
type dgcnnWeightsI8 struct {
	cfg          Config
	totalCh      int
	convW        []*i8.Matrix // all conv layers but the last
	convWScale   [][]float32
	sortW        *f32.Matrix // final conv layer (sort channel), float32
	conv1, conv2 conv1dI8
	poolK, poolS int
	dense, head  denseI8
}

func quantizeDGCNNI8(d *DGCNN) *dgcnnWeightsI8 {
	w := &dgcnnWeightsI8{
		cfg:     d.Cfg,
		totalCh: d.totalCh,
		conv1:   quantizeConv1DI8(d.conv1),
		conv2:   quantizeConv1DI8(d.conv2),
		poolK:   d.pool1.KernelSize,
		poolS:   d.pool1.Stride,
		dense:   quantizeDenseI8(d.dense),
		head:    quantizeDenseI8(d.head),
	}
	last := len(d.convs) - 1
	for _, c := range d.convs[:last] {
		wq, scales := i8.QuantizeColsPerChannel(c.w.Value)
		w.convW = append(w.convW, wq)
		w.convWScale = append(w.convWScale, scales)
	}
	w.sortW = f32.FromMatrix(d.convs[last].w.Value)
	return w
}

// dgcnnI8 is the per-replica forward state of one quantized view: the
// shared weights plus private scratch — sort buffers, the quantized CSR
// value buffer, per-row scale buffers, and a conv patch buffer. int8 and
// int32 buffers come from the owning MVGNNI8's integer arena, float32
// intermediates (tanh outputs, pooling, logits) from its f32 arena.
type dgcnnI8 struct {
	w      *dgcnnWeightsI8
	arena  *f32.Arena
	iarena *i8.Arena

	keys      []float64
	idx, tmp  []int
	aVals     []int8
	aVals32   []float32
	rowScales []float32
	hScales   []float32
	sp        i8.Sparse
	sp32      f32.Sparse
}

// penultForward mirrors dgcnnF32.penultForward one tier down: graph-conv
// stack (int8 SpMM → per-row requant → int8 GEMM → dequant+tanh, with the
// final sort-channel layer in float32) with channel concat in float32,
// SortPooling, Conv1D/MaxPool/Conv1D on per-tensor quantized inputs, and
// the dense+tanh readout with the dequantize-then-table-tanh epilogue.
// The returned 1 x DenseDim vector lives in the replica's f32 arena
// (valid until the next predict).
func (d *dgcnnI8) penultForward(g *EncodedGraph) *f32.Matrix {
	w := d.w
	// Per-sample quantization: node features per column (SpMM mixes rows
	// but never columns, and feature channels are where dynamic ranges
	// diverge) and adjacency values per tensor onto the CSR structure.
	// The adjacency is also loaded in float32 for the sort-channel layer.
	// h32 tracks the current layer input in float32 (the previous layer's
	// tanh output), feeding the float32 sort-channel layer at the end; the
	// input features quantize from it (bit-identical to quantizing the
	// float64 source: conversion commutes with the per-column grids).
	h32 := d.arena.Get(g.X.Rows, g.X.Cols)
	f32.ConvertInto(g.X, h32)
	hq := d.iarena.Get(g.X.Rows, g.X.Cols)
	d.hScales = i8.QuantizeColsF32Into(h32, hq, d.hScales)
	d.aVals = i8.LoadSparse(&d.sp, g.Adjacency(), d.aVals)
	d.aVals32 = f32.LoadSparse(&d.sp32, g.Adjacency(), d.aVals32)

	cat := d.arena.Get(g.N, w.totalCh)
	off := 0
	for li, wc := range w.convW {
		acc := d.iarena.GetAcc(g.N, hq.Cols)
		i8.SpMMInto(&d.sp, hq, acc)
		// Requantize the aggregate back to int8 on per-row grids (the
		// layout the per-channel GEMM wants), folding in the per-column
		// feature scales.
		mq := d.iarena.Get(g.N, hq.Cols)
		d.rowScales = i8.RequantRowsScaledInto(acc, d.sp.Scale, d.hScales, mq, d.rowScales)
		accZ := d.iarena.GetAcc(g.N, wc.Cols)
		i8.MatMulInto(mq, wc, accZ)
		z := d.arena.Get(g.N, wc.Cols)
		i8.DequantTanhInto(accZ, d.rowScales, w.convWScale[li], z)
		for r := 0; r < g.N; r++ {
			copy(cat.Row(r)[off:off+z.Cols], z.Row(r))
		}
		off += z.Cols
		// Next layer's input: the tanh output back on per-column grids.
		hq = d.iarena.Get(g.N, z.Cols)
		d.hScales = i8.QuantizeColsF32Into(z, hq, d.hScales)
		h32 = z
	}

	// Final layer in float32: its output is the SortPooling channel, and
	// ordering must not be decided on quantized scores (see dgcnnWeightsI8).
	m32 := d.arena.Get(g.N, h32.Cols)
	f32.SpMMInto(&d.sp32, h32, m32)
	zs := d.arena.Get(g.N, w.sortW.Cols)
	f32.MatMulTanhInto(m32, w.sortW, zs)
	for r := 0; r < g.N; r++ {
		copy(cat.Row(r)[off:off+zs.Cols], zs.Row(r))
	}

	// SortPooling on the float32 concat: order nodes by the sort channel
	// descending, keep k rows, zero-pad small graphs. Argsort keys stay
	// float64 so the ordering machinery is shared with the f64/f32 paths.
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

	flat1 := f32.Matrix{Rows: 1, Cols: pooled.Rows * pooled.Cols, Data: pooled.Data}
	xq1 := d.iarena.Get(1, flat1.Cols)
	s1 := i8.QuantizeTensorF32Into(&flat1, xq1)
	c1 := d.arena.Get(w.conv1.outCh, w.conv1.outLen(flat1.Cols))
	acc1 := d.iarena.GetAcc(c1.Cols, w.conv1.outCh)
	w.conv1.forwardInto(xq1, s1, c1, acc1, nil)
	p1 := d.arena.Get(c1.Rows, poolOutLen(c1.Cols, w.poolK, w.poolS))
	maxPool1DF32(c1, p1, w.poolK, w.poolS)
	xq2 := d.iarena.Get(p1.Rows, p1.Cols)
	s2 := i8.QuantizeTensorF32Into(p1, xq2)
	c2 := d.arena.Get(w.conv2.outCh, w.conv2.outLen(p1.Cols))
	acc2 := d.iarena.GetAcc(c2.Cols, w.conv2.outCh)
	patch2 := d.iarena.Get(c2.Cols, w.conv2.inCh*w.conv2.kernel)
	w.conv2.forwardInto(xq2, s2, c2, acc2, patch2)
	flat2 := f32.Matrix{Rows: 1, Cols: c2.Rows * c2.Cols, Data: c2.Data}
	xq3 := d.iarena.Get(1, flat2.Cols)
	s3 := i8.QuantizeTensorF32Into(&flat2, xq3)
	pen := d.arena.Get(1, w.cfg.DenseDim)
	i8.DenseTanhForwardInto(xq3, s3, w.dense.wt, w.dense.wScale, w.dense.b, pen)
	return pen
}

// logits applies the view's own classification head to the (float32)
// penultimate vector through the quantized head weights.
func (d *dgcnnI8) logits(pen *f32.Matrix) *f32.Matrix {
	xq := d.iarena.Get(1, pen.Cols)
	s := i8.QuantizeTensorF32Into(pen, xq)
	out := d.arena.Get(1, d.w.cfg.NumClasses)
	i8.DenseForwardInto(xq, s, d.w.head.wt, d.w.head.wScale, d.w.head.b, out)
	return out
}

// mvgnnWeightsI8 is the shared quantized parameter set of the full
// multi-view model.
type mvgnnWeightsI8 struct {
	classes     int
	predictMode int
	node, strct *dgcnnWeightsI8
	out         denseI8
}

// MVGNNI8 is a forward-only int8 replica of a trained MVGNN. Replicas
// share the quantized weights (read-only) and own their scratch, so — like
// f64 and f32 replicas — each must stay goroutine-private while the set of
// replicas serves concurrently.
type MVGNNI8 struct {
	w           *mvgnnWeightsI8
	arena       *f32.Arena
	iarena      *i8.Arena
	node, strct dgcnnI8
}

func newMVGNNI8(w *mvgnnWeightsI8) *MVGNNI8 {
	arena := f32.NewArena()
	iarena := i8.NewArena()
	return &MVGNNI8{
		w:      w,
		arena:  arena,
		iarena: iarena,
		node:   dgcnnI8{w: w.node, arena: arena, iarena: iarena},
		strct:  dgcnnI8{w: w.strct, arena: arena, iarena: iarena},
	}
}

// QuantizeI8 snapshots the model's parameters into an int8 inference
// replica. The snapshot is one-time: later optimizer steps or parameter
// reloads on m are NOT reflected — quantize after training (or after
// Load, which drops PredictWithProbaI8's cached replica).
func (m *MVGNN) QuantizeI8() *MVGNNI8 {
	return newMVGNNI8(&mvgnnWeightsI8{
		classes:     m.NodeView.Cfg.NumClasses,
		predictMode: m.predictMode,
		node:        quantizeDGCNNI8(m.NodeView),
		strct:       quantizeDGCNNI8(m.StructView),
		out:         quantizeDenseI8(m.out),
	})
}

// Predictor returns the int8 Predictor running on q.
func (q *MVGNNI8) Predictor() Predictor {
	return Predictor{eng: q, precision: "int8", predictMode: q.w.predictMode}
}

// replicate shares q's quantized weights and owns private scratch.
func (q *MVGNNI8) replicate() engine { return newMVGNNI8(q.w) }

// forward is the int8 engine, the mirror of MVGNN.forward.
func (q *MVGNNI8) forward(s Sample, h View) (int, float64) {
	q.arena.Reset()
	q.iarena.Reset()
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
	xq := q.iarena.Get(1, cat.Cols)
	sc := i8.QuantizeTensorF32Into(cat, xq)
	fused := q.arena.Get(1, q.w.classes)
	i8.DenseForwardInto(xq, sc, q.w.out.wt, q.w.out.wScale, q.w.out.b, fused)
	return classFromF32(fused)
}
