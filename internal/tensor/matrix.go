// Package tensor provides the dense float64 linear algebra underneath the
// neural-network stack: matrices, matrix multiplication, and the
// elementwise kernels used by layer forward/backward passes.
//
// All matrices are row-major. Operations allocate their result unless the
// name ends in InPlace. Everything runs on the caller's goroutine; the
// pipeline parallelizes across programs, variants and samples
// (internal/pool), never inside one product.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a Rows x Cols zero matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: New(%d, %d) with negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice(%d, %d) with %d elements", rows, cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows ragged input: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// Randn fills a new rows x cols matrix with N(0, std^2) samples from rng.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// XavierInit returns a matrix initialized with Glorot-uniform scaling,
// the initialization used for every dense and graph-conv weight.
func XavierInit(rows, cols int, rng *rand.Rand) *Matrix {
	limit := math.Sqrt(6.0 / float64(rows+cols))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 4; i++ {
		s += fmt.Sprintf("%v", m.Row(i))
	}
	if m.Rows > 4 {
		s += "..."
	}
	return s + "]"
}

func assertSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	assertSameShape("Add", a, b)
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	assertSameShape("Sub", a, b)
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s * a.
func Scale(a *Matrix, s float64) *Matrix {
	c := New(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] * s
	}
	return c
}

// AddInPlace accumulates b into a.
func (m *Matrix) AddInPlace(b *Matrix) {
	assertSameShape("AddInPlace", m, b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply returns f applied elementwise.
func Apply(a *Matrix, f func(float64) float64) *Matrix {
	c := New(a.Rows, a.Cols)
	ApplyInto(a, f, c)
	return c
}

// ApplyInto computes c = f(a) elementwise, overwriting c. c may alias a
// (in-place application).
func ApplyInto(a *Matrix, f func(float64) float64, c *Matrix) {
	assertSameShape("ApplyInto", a, c)
	for i := range a.Data {
		c.Data[i] = f(a.Data[i])
	}
}

// assertNoAlias panics if dst and src share the same backing array. It
// detects exact sharing (same first element), which covers every arena
// and FromSlice reuse pattern in this repo; partially overlapping
// subslices are the caller's responsibility.
func assertNoAlias(op string, dst, src *Matrix) {
	if len(dst.Data) > 0 && len(src.Data) > 0 && &dst.Data[0] == &src.Data[0] {
		panic("tensor: " + op + " destination aliases an input")
	}
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	c := New(a.Cols, a.Rows)
	TransposeInto(a, c)
	return c
}

// TransposeInto computes c = aᵀ, overwriting c. c must not alias a.
func TransposeInto(a, c *Matrix) {
	if c.Rows != a.Cols || c.Cols != a.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst %dx%d for src %dx%d", c.Rows, c.Cols, a.Rows, a.Cols))
	}
	assertNoAlias("TransposeInto", c, a)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			c.Data[j*a.Rows+i] = v
		}
	}
}

// AddRowVec adds the 1 x Cols row vector v to every row of a.
func AddRowVec(a, v *Matrix) *Matrix {
	c := New(a.Rows, a.Cols)
	AddRowVecInto(a, v, c)
	return c
}

// AddRowVecInto computes c = a with the 1 x Cols row vector v added to
// every row, overwriting c. c may alias a.
func AddRowVecInto(a, v, c *Matrix) {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec vector shape %dx%d for matrix %dx%d", v.Rows, v.Cols, a.Rows, a.Cols))
	}
	assertSameShape("AddRowVecInto", a, c)
	for i := 0; i < a.Rows; i++ {
		ar, cr := a.Row(i), c.Row(i)
		for j := range ar {
			cr[j] = ar[j] + v.Data[j]
		}
	}
}

// SumRows returns the 1 x Cols column-wise sum of a (used for bias grads).
func SumRows(a *Matrix) *Matrix {
	c := New(1, a.Cols)
	SumRowsInto(a, c)
	return c
}

// SumRowsInto computes the 1 x Cols column-wise sum of a, overwriting c.
// c must not alias a.
func SumRowsInto(a, c *Matrix) {
	if c.Rows != 1 || c.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: SumRowsInto dst %dx%d, want 1x%d", c.Rows, c.Cols, a.Cols))
	}
	assertNoAlias("SumRowsInto", c, a)
	for i := range c.Data {
		c.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			c.Data[j] += v
		}
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatMul returns a x b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	matMulAdd(a, b, c)
	return c
}

// MatMulInto computes c = a x b, overwriting c, and allocates nothing. c
// must not alias a or b (the kernel accumulates into c while reading
// both). The result is bit-identical to MatMul.
func MatMulInto(a, b, c *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	assertNoAlias("MatMulInto", c, a)
	assertNoAlias("MatMulInto", c, b)
	for i := range c.Data {
		c.Data[i] = 0
	}
	matMulAdd(a, b, c)
}

// matMulAdd computes c += a x b, one VecMatAdd per row: k ascending,
// streaming b rows through cache, skipping a's zeros.
func matMulAdd(a, b, c *Matrix) {
	for i := 0; i < a.Rows; i++ {
		VecMatAdd(c.Row(i), a.Row(i), b.Data, b.Cols, true)
	}
}

// SoftmaxRows returns row-wise softmax with the usual max-shift for
// numerical stability.
func SoftmaxRows(a *Matrix) *Matrix {
	c := New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		out := c.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			out[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range out {
			out[j] *= inv
		}
	}
	return c
}

// MeanRow returns the 1 x Cols mean of all rows; zero matrix if Rows == 0.
func MeanRow(a *Matrix) *Matrix {
	c := SumRows(a)
	if a.Rows > 0 {
		c.ScaleInPlace(1.0 / float64(a.Rows))
	}
	return c
}

// ConcatInto computes c = [a | b], overwriting c. c must not alias a or b.
func ConcatInto(a, b, c *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: Concat row mismatch %d vs %d", a.Rows, b.Rows))
	}
	if c.Rows != a.Rows || c.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: ConcatInto dst %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, a.Cols+b.Cols))
	}
	assertNoAlias("ConcatInto", c, a)
	assertNoAlias("ConcatInto", c, b)
	for i := 0; i < a.Rows; i++ {
		copy(c.Row(i)[:a.Cols], a.Row(i))
		copy(c.Row(i)[a.Cols:], b.Row(i))
	}
}

// SplitCols splits a into the first nLeft columns and the rest, undoing
// ConcatInto; used to route fusion gradients back to each view.
func SplitCols(a *Matrix, nLeft int) (*Matrix, *Matrix) {
	if nLeft < 0 || nLeft > a.Cols {
		panic(fmt.Sprintf("tensor: SplitCols(%d) of %d columns", nLeft, a.Cols))
	}
	l := New(a.Rows, nLeft)
	r := New(a.Rows, a.Cols-nLeft)
	for i := 0; i < a.Rows; i++ {
		copy(l.Row(i), a.Row(i)[:nLeft])
		copy(r.Row(i), a.Row(i)[nLeft:])
	}
	return l, r
}

// ApproxEqual reports whether a and b agree elementwise within tol.
func ApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Argsort returns the indices that would sort vals in ascending order,
// breaking ties by original index for determinism (SortPooling relies on
// a stable ordering).
func Argsort(vals []float64) []int {
	idx := make([]int, len(vals))
	ArgsortInto(vals, idx, make([]int, len(vals)))
	return idx
}

// ArgsortInto fills idx with the stable ascending argsort of vals,
// using scratch as merge workspace so the call itself allocates nothing.
// idx and scratch must each have len(vals) elements. A stable sort's
// output permutation is unique, so the result is identical to Argsort's.
func ArgsortInto(vals []float64, idx, scratch []int) {
	n := len(vals)
	if len(idx) != n || len(scratch) != n {
		panic(fmt.Sprintf("tensor: ArgsortInto buffers %d/%d for %d values", len(idx), len(scratch), n))
	}
	for i := range idx {
		idx[i] = i
	}
	// Bottom-up stable merge sort between idx and scratch.
	src, dst := idx, scratch
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			if mid > n {
				mid = n
			}
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if vals[src[i]] <= vals[src[j]] {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	if n > 0 && &src[0] != &idx[0] {
		copy(idx, src)
	}
}
