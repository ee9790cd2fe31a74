// Package i8 is the int8 inference tier below internal/tensor/f32: symmetric
// per-channel weight quantization, dynamic per-row activation quantization,
// int8 x int8 -> int32 kernels (GEMM, CSR SpMM, dense/conv dot products) and
// dequantize-then-table-tanh epilogues that land results back in float32.
//
// The quantization scheme is symmetric (zero-point 0 everywhere): a tensor
// slice q holds round(x/scale) clamped to [-127, 127], so x ~ scale*q and a
// product of two quantized operands dequantizes with one combined scale.
// Weights are quantized once per model, per output channel (one scale per
// dense output, conv filter, or graph-conv column); activations are
// quantized per sample — per row where the consumer reads rows against
// per-channel weights, per tensor where a kernel mixes rows (SpMM, conv
// patch gathers). Accumulation is always int32: with |q| <= 127 a dot
// product stays exact up to ~133k elements, far past any shape here.
//
// Like f32, nothing in this package is bit-identical to the float64
// reference — gnn's TestPredictWithProbaI8Parity holds the forward built
// on it to a non-zero drift budget instead. Training never touches this
// path, and nothing serves it: the benchmarks time it.
package i8

import (
	"fmt"

	"mvpar/internal/tensor"
	"mvpar/internal/tensor/f32"
)

// Matrix is a dense row-major int8 matrix. Scales live beside it, owned by
// the caller: a quantized tensor is always a (Matrix, scale(s)) pair.
type Matrix struct {
	Rows, Cols int
	Data       []int8
}

// New returns a Rows x Cols zero int8 matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("i8: New(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []int8 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Acc is a dense row-major int32 accumulator matrix — the output type of
// the integer kernels before a dequantization epilogue.
type Acc struct {
	Rows, Cols int
	Data       []int32
}

// NewAcc returns a Rows x Cols zero accumulator.
func NewAcc(rows, cols int) *Acc {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("i8: NewAcc(%d, %d) with negative dimension", rows, cols))
	}
	return &Acc{Rows: rows, Cols: cols, Data: make([]int32, rows*cols)}
}

// Row returns row i as a slice aliasing the accumulator storage.
func (a *Acc) Row(i int) []int32 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// qmax is the symmetric quantization ceiling. 127 (not 128) keeps the grid
// symmetric: -x always quantizes to the negation of x's code.
const qmax = 127

// rndNearest is the float32 round-to-nearest-even magic constant: adding
// then subtracting 1.5*2^23 rounds any |q| < 2^22 to the nearest integer
// with ties to even, because each float32 addition itself rounds to
// nearest-even. This is the same rule VCVTPS2DQ applies, so the scalar
// and AVX2 quantizers agree bit-for-bit on every input.
const rndNearest = float32(1.5 * (1 << 23))

// quantize rounds v/scale to the nearest int8 code (ties to even). inv is
// 1/scale (0 for an all-zero tensor, mapping everything to code 0).
func quantize(v, inv float32) int8 {
	q := v * inv
	// Two statements so no architecture fuses the multiply into the magic
	// add as an FMA, which would break the rounding trick.
	q = (q + rndNearest) - rndNearest
	// The clamp guards rounding overshoot at the extremes (maxabs*inv is
	// exactly qmax, but float error can push it one ULP past).
	if q > qmax {
		return qmax
	}
	if q < -qmax {
		return -qmax
	}
	return int8(q)
}

// scaleOf returns (scale, 1/scale) for a symmetric grid covering ±maxAbs.
// A zero maxAbs yields scale 1 and inv 0: every value quantizes to 0 and
// dequantization stays finite.
func scaleOf(maxAbs float32) (scale, inv float32) {
	if maxAbs == 0 {
		return 1, 0
	}
	return maxAbs / qmax, qmax / maxAbs
}

// QuantizeTensorInto quantizes the float64 matrix src into dst (same
// shape, typically an arena buffer) on one symmetric per-tensor grid and
// returns the scale. This is the per-sample entry point for inputs whose
// consumers mix rows (SpMM node features, conv patch gathers).
func QuantizeTensorInto(src *tensor.Matrix, dst *Matrix) float32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("i8: QuantizeTensorInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	var maxAbs float32
	for _, v := range src.Data {
		av := float32(v)
		if av < 0 {
			av = -av
		}
		if av > maxAbs {
			maxAbs = av
		}
	}
	scale, inv := scaleOf(maxAbs)
	for i, v := range src.Data {
		dst.Data[i] = quantize(float32(v), inv)
	}
	return scale
}

// maxAbsF32 returns the max magnitude over src, dispatching the bulk to
// the AVX2 kernel when available.
func maxAbsF32(src []float32) float32 {
	var m float32
	i := 0
	if useAVX2 && len(src) >= 8 {
		i = len(src) &^ 7
		m = maxAbsAVX2(&src[0], i)
	}
	for _, v := range src[i:] {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// quantizeRowF32 quantizes the contiguous float32 slice src into dst on a
// single grid, dispatching 16-wide blocks to the AVX2 kernel. Scalar and
// vector paths round identically (nearest even), so the split point is
// unobservable.
func quantizeRowF32(src []float32, dst []int8, inv float32) {
	i := 0
	if useAVX2 && len(src) >= 16 {
		i = len(src) &^ 15
		quantizeRowAVX2(&src[0], &dst[0], i, inv)
	}
	for ; i < len(src); i++ {
		dst[i] = quantize(src[i], inv)
	}
}

// QuantizeTensorF32Into is QuantizeTensorInto for a float32 source — the
// layer-to-layer requantization step of the forward pass.
func QuantizeTensorF32Into(src *f32.Matrix, dst *Matrix) float32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("i8: QuantizeTensorF32Into dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	scale, inv := scaleOf(maxAbsF32(src.Data))
	quantizeRowF32(src.Data, dst.Data, inv)
	return scale
}

// QuantizeRowsF32Into quantizes src row by row onto per-row symmetric
// grids (dynamic activation quantization: each sample row spends the full
// int8 range on its own dynamic range). scales is grown as needed and
// returned; scales[i] dequantizes row i.
func QuantizeRowsF32Into(src *f32.Matrix, dst *Matrix, scales []float32) []float32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("i8: QuantizeRowsF32Into dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	scales = growScales(scales, src.Rows)
	for i := 0; i < src.Rows; i++ {
		srow, drow := src.Row(i), dst.Row(i)
		scale, inv := scaleOf(maxAbsF32(srow))
		scales[i] = scale
		quantizeRowF32(srow, drow, inv)
	}
	return scales
}

// QuantizeColsInto quantizes the float64 matrix src into dst on per-column
// symmetric grids and returns the per-column scales (grown as needed).
// This is the per-sample entry point for SpMM operands: an SpMM mixes rows
// but never columns, so per-column scales still factor out of the int32
// accumulation — and feature columns are exactly where activation dynamic
// ranges diverge (see RequantRowsScaledInto for the matching epilogue).
func QuantizeColsInto(src *tensor.Matrix, dst *Matrix, scales []float32) []float32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("i8: QuantizeColsInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	scales, invs := colScaleBufs(scales, src.Cols)
	// Row-major two-pass: column maxes first (striding a column directly
	// touches one cache line per element), then quantize each row against
	// the per-column inverse-scale vector.
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		for j, v := range srow {
			av := float32(v)
			if av < 0 {
				av = -av
			}
			if av > invs[j] {
				invs[j] = av
			}
		}
	}
	for j, m := range invs {
		scales[j], invs[j] = scaleOf(m)
	}
	for i := 0; i < src.Rows; i++ {
		srow, drow := src.Row(i), dst.Row(i)
		for j, v := range srow {
			drow[j] = quantize(float32(v), invs[j])
		}
	}
	return scales
}

// QuantizeColsF32Into is QuantizeColsInto for a float32 source — the
// layer-to-layer requantization step feeding the next graph convolution.
func QuantizeColsF32Into(src *f32.Matrix, dst *Matrix, scales []float32) []float32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("i8: QuantizeColsF32Into dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	cols := src.Cols
	scales, invs := colScaleBufs(scales, cols)
	for i := 0; i < src.Rows; i++ {
		srow := src.Row(i)
		j := 0
		if useAVX2 && cols >= 8 {
			j = cols &^ 7
			colMaxAbsAVX2(&invs[0], &srow[0], j)
		}
		for ; j < cols; j++ {
			av := srow[j]
			if av < 0 {
				av = -av
			}
			if av > invs[j] {
				invs[j] = av
			}
		}
	}
	for j, m := range invs {
		scales[j], invs[j] = scaleOf(m)
	}
	for i := 0; i < src.Rows; i++ {
		srow, drow := src.Row(i), dst.Row(i)
		j := 0
		if useAVX2 && cols >= 16 {
			j = cols &^ 15
			quantizeVecAVX2(&srow[0], &invs[0], &drow[0], j)
		}
		for ; j < cols; j++ {
			drow[j] = quantize(srow[j], invs[j])
		}
	}
	return scales
}

// colScaleBufs carves a scales slice and a zeroed same-length scratch
// (used first for column maxes, then inverse scales) out of one buffer so
// the per-column quantizers stay allocation-free across reuse: the
// returned scales keep the doubled capacity for the next call.
func colScaleBufs(s []float32, n int) (scales, invs []float32) {
	full := growScales(s, 2*n)
	scales, invs = full[:n], full[n:2*n]
	for j := range invs {
		invs[j] = 0
	}
	return scales, invs
}

// growScales returns a length-n scale slice, reusing s when large enough.
func growScales(s []float32, n int) []float32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float32, n)
}

// QuantizeRowsPerChannel quantizes a weight matrix already in row-major
// output-channel layout (each row is one output channel: dense weights
// pre-transposed to out x in, Conv1D weights outCh x inCh*kernel) onto one
// symmetric grid per row. One-time model quantization: allocates.
func QuantizeRowsPerChannel(src *tensor.Matrix) (*Matrix, []float32) {
	m := New(src.Rows, src.Cols)
	scales := make([]float32, src.Rows)
	for i := 0; i < src.Rows; i++ {
		srow, drow := src.Row(i), m.Row(i)
		var maxAbs float32
		for _, v := range srow {
			av := float32(v)
			if av < 0 {
				av = -av
			}
			if av > maxAbs {
				maxAbs = av
			}
		}
		scale, inv := scaleOf(maxAbs)
		scales[i] = scale
		for j, v := range srow {
			drow[j] = quantize(float32(v), inv)
		}
	}
	return m, scales
}

// QuantizeTransposedPerChannel quantizes src (in x out, the nn.Dense
// layout) into its out x in transpose with one scale per output channel —
// the pre-transposed per-channel weight layout every dense matvec here
// reads contiguously. One-time model quantization: allocates.
func QuantizeTransposedPerChannel(src *tensor.Matrix) (*Matrix, []float32) {
	m := New(src.Cols, src.Rows)
	scales := make([]float32, src.Cols)
	for j := 0; j < src.Cols; j++ {
		drow := m.Row(j)
		var maxAbs float32
		for i := 0; i < src.Rows; i++ {
			av := float32(src.At(i, j))
			if av < 0 {
				av = -av
			}
			if av > maxAbs {
				maxAbs = av
			}
		}
		scale, inv := scaleOf(maxAbs)
		scales[j] = scale
		for i := 0; i < src.Rows; i++ {
			drow[i] = quantize(float32(src.At(i, j)), inv)
		}
	}
	return m, scales
}

// QuantizeColsPerChannel quantizes src (in x out) keeping its layout, with
// one scale per column — the per-output-channel layout MatMulInto's b
// operand wants. One-time model quantization: allocates.
func QuantizeColsPerChannel(src *tensor.Matrix) (*Matrix, []float32) {
	m := New(src.Rows, src.Cols)
	scales := make([]float32, src.Cols)
	invs := make([]float32, src.Cols)
	for j := 0; j < src.Cols; j++ {
		var maxAbs float32
		for i := 0; i < src.Rows; i++ {
			av := float32(src.At(i, j))
			if av < 0 {
				av = -av
			}
			if av > maxAbs {
				maxAbs = av
			}
		}
		scales[j], invs[j] = scaleOf(maxAbs)
	}
	for i := 0; i < src.Rows; i++ {
		srow, drow := src.Row(i), m.Row(i)
		for j, v := range srow {
			drow[j] = quantize(float32(v), invs[j])
		}
	}
	return m, scales
}

// Dot is the unrolled int8 dot product with an int32 accumulator — the
// kernel behind the dense matvec and fused conv paths. Four independent
// accumulators break the add dependency chain like the f32 kernel; integer
// accumulation is exact, so unlike f32 the unroll does not even change
// rounding.
func Dot(a, b []int8) int32 { return dot(a, b) }

func dot(a, b []int8) int32 {
	b = b[:len(a)]
	if useAVX2 && len(a) >= 16 {
		n := len(a) &^ 15
		s := dotAVX2(&a[0], &b[0], n)
		for i := n; i < len(a); i++ {
			s += int32(a[i]) * int32(b[i])
		}
		return s
	}
	var s0, s1, s2, s3 int32
	// Slice-advance unroll: constant indices let the compiler fold each
	// sign-extending load into one MOVSX with an immediate offset and drop
	// every bounds check (an indexed `a[i+1]` form costs two LEAQs plus a
	// CMP per load on amd64 — measured ~2x slower than this shape).
	for len(a) >= 4 && len(b) >= 4 {
		s0 += int32(a[0]) * int32(b[0])
		s1 += int32(a[1]) * int32(b[1])
		s2 += int32(a[2]) * int32(b[2])
		s3 += int32(a[3]) * int32(b[3])
		a = a[4:]
		b = b[4:]
	}
	for i, av := range a {
		s0 += int32(av) * int32(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// DenseForwardInto computes out[j] = b[j] + <x, wt.Row(j)> * xScale *
// wScales[j] for a single quantized row x against per-channel quantized
// weights wt (out x in, from QuantizeTransposedPerChannel), with the
// dequantization fused into the epilogue. b is the float32 bias (biases
// stay unquantized: they are added once per output, after the integer
// accumulation).
func DenseForwardInto(x *Matrix, xScale float32, wt *Matrix, wScales []float32, b []float32, out *f32.Matrix) {
	checkDense("DenseForwardInto", x, wt, wScales, b, out)
	xr, or := x.Row(0), out.Row(0)
	for j := range or {
		or[j] = b[j] + float32(dot(xr, wt.Row(j)))*xScale*wScales[j]
	}
}

// DenseTanhForwardInto is DenseForwardInto with the shared table tanh
// fused behind the dequantization: out[j] = tanh(b[j] + acc*scale). This
// is the dequantize-then-table-tanh epilogue of the dense forward.
func DenseTanhForwardInto(x *Matrix, xScale float32, wt *Matrix, wScales []float32, b []float32, out *f32.Matrix) {
	checkDense("DenseTanhForwardInto", x, wt, wScales, b, out)
	xr, or := x.Row(0), out.Row(0)
	for j := range or {
		or[j] = f32.Tanh(b[j] + float32(dot(xr, wt.Row(j)))*xScale*wScales[j])
	}
}

func checkDense(op string, x, wt *Matrix, wScales []float32, b []float32, out *f32.Matrix) {
	if x.Rows != 1 || out.Rows != 1 {
		panic(fmt.Sprintf("i8: %s wants single-row x and out, got %dx%d -> %dx%d", op, x.Rows, x.Cols, out.Rows, out.Cols))
	}
	if wt.Cols != x.Cols || wt.Rows != out.Cols || len(wScales) != out.Cols || len(b) != out.Cols {
		panic(fmt.Sprintf("i8: %s shapes x %dx%d, wt %dx%d, %d scales, %d biases, out %dx%d",
			op, x.Rows, x.Cols, wt.Rows, wt.Cols, len(wScales), len(b), out.Rows, out.Cols))
	}
}
