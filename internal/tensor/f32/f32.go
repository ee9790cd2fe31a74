// Package f32 is the float32 inference mirror of internal/tensor: a dense
// row-major matrix, a free-list arena, CSR propagation and cache-blocked
// matrix-multiply kernels with fused activation epilogues.
//
// Training stays in float64 under the bit-identity determinism contract;
// this package backs the float32 and int8 forwards the benchmarks time,
// where halved memory traffic, free reassociation (the kernels may
// reorder accumulation) and a table-driven tanh buy the forward pass its
// speed. Nothing here is bit-identical to the float64 kernels — gnn's
// parity tests against the float64 forward are the correctness gate
// instead.
package f32

import (
	"fmt"

	"mvpar/internal/tensor"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a Rows x Cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("f32: New(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("f32: FromSlice(%d, %d) with %d elements", rows, cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// FromMatrix returns src quantized to float32 (the one-time weight
// conversion step of model quantization).
func FromMatrix(src *tensor.Matrix) *Matrix {
	m := New(src.Rows, src.Cols)
	for i, v := range src.Data {
		m.Data[i] = float32(v)
	}
	return m
}

// TransposedFromMatrix returns srcᵀ quantized to float32. Dense layers at
// inference see a single-row x, so out = x·W is a matvec; storing W
// pre-transposed makes each output element one contiguous dot product
// (the "cached transposes" of model quantization).
func TransposedFromMatrix(src *tensor.Matrix) *Matrix {
	m := New(src.Cols, src.Rows)
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		for j, v := range row {
			m.Data[j*src.Rows+i] = float32(v)
		}
	}
	return m
}

// ConvertInto quantizes src into dst, which must already have src's shape
// (typically an arena buffer); used for per-sample feature conversion.
func ConvertInto(src *tensor.Matrix, dst *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("f32: ConvertInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
}

// AddRowVecInto computes c = a with the row vector v added to every row,
// overwriting c. c may alias a.
func AddRowVecInto(a, v, c *Matrix) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("f32: AddRowVecInto vector shape %dx%d for matrix %dx%d", v.Rows, v.Cols, a.Rows, a.Cols))
	}
	if c.Rows != a.Rows || c.Cols != a.Cols {
		panic(fmt.Sprintf("f32: AddRowVecInto dst %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, a.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		ar, cr := a.Row(i), c.Row(i)
		for j := range ar {
			cr[j] = ar[j] + v.Data[j]
		}
	}
}

// Dot is the unrolled float32 dot product behind the dense matvec and
// fused conv paths. Four independent accumulators break the add
// dependency chain; float32 reassociation is fine here (no bit-identity
// contract on inference).
func Dot(a, b []float32) float32 { return dot(a, b) }

func dot(a, b []float32) float32 {
	b = b[:len(a)] // bounds-check elimination for the unrolled body
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DenseForwardInto computes out = x·Wᵀᵀ + b for a single-row x, where wt
// is the pre-transposed weight (out.Cols x x.Cols) from
// TransposedFromMatrix: out[j] = b[j] + <x, wt.Row(j)>.
func DenseForwardInto(x, wt, b, out *Matrix) {
	checkDense("DenseForwardInto", x, wt, b, out)
	xr, or := x.Row(0), out.Row(0)
	for j := range or {
		or[j] = b.Data[j] + dot(xr, wt.Row(j))
	}
}

// DenseTanhForwardInto is DenseForwardInto with a fused tanh epilogue:
// out = tanh(x·Wᵀᵀ + b).
func DenseTanhForwardInto(x, wt, b, out *Matrix) {
	checkDense("DenseTanhForwardInto", x, wt, b, out)
	xr, or := x.Row(0), out.Row(0)
	for j := range or {
		or[j] = Tanh(b.Data[j] + dot(xr, wt.Row(j)))
	}
}

func checkDense(op string, x, wt, b, out *Matrix) {
	if x.Rows != 1 || out.Rows != 1 {
		panic(fmt.Sprintf("f32: %s wants single-row x and out, got %dx%d -> %dx%d", op, x.Rows, x.Cols, out.Rows, out.Cols))
	}
	if wt.Cols != x.Cols || wt.Rows != out.Cols || b.Rows != 1 || b.Cols != out.Cols {
		panic(fmt.Sprintf("f32: %s shapes x %dx%d, wt %dx%d, b %dx%d, out %dx%d",
			op, x.Rows, x.Cols, wt.Rows, wt.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}
