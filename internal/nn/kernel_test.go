package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/tensor"
)

// refConv1D is the scalar convolution loop, kept as the bit-identity
// reference of Conv1D.ForwardInto (tensor.VecMatAdd over Wᵀ).
func refConv1D(c *Conv1D, x *tensor.Matrix) *tensor.Matrix {
	outLen := c.OutLen(x.Cols)
	out := tensor.New(c.OutChannels, outLen)
	for f := 0; f < c.OutChannels; f++ {
		w := c.W.Value.Row(f)
		bias := c.B.Value.Data[f]
		for t := 0; t < outLen; t++ {
			start := t * c.Stride
			sum := bias
			for ch := 0; ch < c.InChannels; ch++ {
				xr := x.Row(ch)
				wOff := ch * c.KernelSize
				for k := 0; k < c.KernelSize; k++ {
					sum += w[wOff+k] * xr[start+k]
				}
			}
			out.Set(f, t, sum)
		}
	}
	return out
}

// refDense is the matmul-then-bias pair the row-at-a-time Dense.Forward
// replaced, kept as its bit-identity reference.
func refDense(d *Dense, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(x.Rows, d.W.Value.Cols)
	tensor.MatMulInto(x, d.W.Value, out)
	tensor.AddRowVecInto(out, d.B.Value, out)
	return out
}

// specialCases returns named fills for kernel inputs: plain values, and
// values salted with zeros of both signs, a NaN, or infinities.
func specialCases() map[string]func(i int, v float64) float64 {
	negZero := math.Copysign(0, -1)
	return map[string]func(int, float64) float64{
		"plain": func(_ int, v float64) float64 { return v },
		"zeros": func(i int, v float64) float64 {
			switch {
			case i%3 == 0:
				return 0
			case i%5 == 0:
				return negZero
			}
			return v
		},
		"nan": func(i int, v float64) float64 {
			if i == 7 {
				return math.NaN()
			}
			return v
		},
		"inf": func(i int, v float64) float64 {
			switch i % 11 {
			case 2:
				return math.Inf(1)
			case 9:
				return math.Inf(-1)
			}
			return v
		},
	}
}

func salted(m *tensor.Matrix, fill func(int, float64) float64) *tensor.Matrix {
	for i, v := range m.Data {
		m.Data[i] = fill(i, v)
	}
	return m
}

// assertSameBits fails unless got and want hold the same float64 bits.
func assertSameBits(t *testing.T, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: %v (%#x), want %v (%#x)", i, got.Data[i],
				math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestConv1DForwardMatchesScalar checks Conv1D.ForwardInto against the
// scalar loop bit for bit: the DGCNN's two shapes, filter counts that
// leave a remainder of the kernel's 4- and 16-wide blocks, strides other
// than the kernel size, and inputs or kernels salted with ±0, NaN and
// ±Inf.
func TestConv1DForwardMatchesScalar(t *testing.T) {
	shapes := []struct{ in, out, kernel, stride, length int }{
		{1, 16, 49, 49, 16 * 49}, // DGCNN conv1
		{16, 32, 5, 1, 8},        // DGCNN conv2
		{3, 7, 3, 2, 11},
		{2, 5, 4, 3, 13},
		{1, 3, 2, 1, 6},
		{4, 9, 1, 1, 5},
	}
	for _, sh := range shapes {
		for name, fill := range specialCases() {
			for _, target := range []string{"x", "w"} {
				t.Run(fmt.Sprintf("%dx%dk%ds%d/%s/%s", sh.in, sh.out, sh.kernel, sh.stride, name, target), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(sh.out*100 + sh.kernel)))
					c := NewConv1D("c", sh.in, sh.out, sh.kernel, sh.stride, rng)
					c.B.Value = tensor.Randn(1, sh.out, 1, rng)
					x := tensor.Randn(sh.in, sh.length, 1, rng)
					if target == "x" {
						salted(x, fill)
					} else {
						salted(c.W.Value, fill)
					}
					out := tensor.New(sh.out, c.OutLen(sh.length))
					c.ForwardInto(x, out)
					assertSameBits(t, out, refConv1D(c, x))
				})
			}
		}
	}
}

// TestDenseRowMatchesMatMul checks Dense.Forward against MatMulInto +
// AddRowVecInto bit for bit: the model's dense shapes, column counts that
// leave a remainder of the kernel's 4- and 16-wide blocks, one row and a
// small batch, and inputs or weights salted with ±0, NaN and ±Inf (an
// infinite weight behind a zero input must stay skipped, as in
// MatMulInto). Batches stay under four rows: MatMulInto's row-quad kernel
// adds 0·Inf instead of skipping it, a case Forward deliberately does not
// copy.
func TestDenseRowMatchesMatMul(t *testing.T) {
	shapes := []struct{ in, out int }{{128, 48}, {48, 2}, {4, 2}, {13, 19}, {7, 8}, {9, 17}, {5, 1}}
	for _, sh := range shapes {
		for _, rows := range []int{1, 3} {
			for name, fill := range specialCases() {
				for _, target := range []string{"x", "w"} {
					t.Run(fmt.Sprintf("%dx%d/rows%d/%s/%s", sh.in, sh.out, rows, name, target), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(sh.in*100 + sh.out)))
						d := NewDense("d", sh.in, sh.out, rng)
						d.B.Value = tensor.Randn(1, sh.out, 1, rng)
						x := tensor.Randn(rows, sh.in, 1, rng)
						if target == "x" {
							salted(x, fill)
						} else {
							salted(d.W.Value, fill)
							salted(x, specialCases()["zeros"])
						}
						assertSameBits(t, d.Forward(x), refDense(d, x))
					})
				}
			}
		}
	}
}

// TestConv1DForwardLiveMatchesFull checks ForwardLiveInto against the
// full ForwardInto bit for bit on inputs whose windows from live on read
// identical columns (a per-channel constant, zero as in SortPooling's
// padding or not): live = 0, 1, outLen-1, outLen and past outLen, with
// kernels salted with ±0, NaN and ±Inf and biases of ±0.
func TestConv1DForwardLiveMatchesFull(t *testing.T) {
	shapes := []struct{ in, out, kernel, stride, length int }{
		{1, 16, 49, 49, 16 * 49}, // DGCNN conv1
		{16, 32, 5, 1, 8},        // DGCNN conv2
		{3, 7, 3, 2, 11},
		{2, 5, 1, 1, 6},
	}
	negZero := math.Copysign(0, -1)
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(sh.out*100 + sh.kernel)))
		c := NewConv1D("c", sh.in, sh.out, sh.kernel, sh.stride, rng)
		outLen := c.OutLen(sh.length)
		for _, live := range []int{0, 1, outLen - 1, outLen, outLen + 3} {
			for name, fill := range specialCases() {
				for _, pad := range []float64{0, -1.5} {
					t.Run(fmt.Sprintf("%dx%dk%ds%d/live%d/%s/pad%v", sh.in, sh.out, sh.kernel, sh.stride, live, name, pad), func(t *testing.T) {
						c.W.Value = salted(tensor.Randn(sh.out, sh.in*sh.kernel, 1, rng), fill)
						for f := range c.B.Value.Data {
							c.B.Value.Data[f] = [2]float64{0, negZero}[f%2]
						}
						x := tensor.Randn(sh.in, sh.length, 1, rng)
						for ch := 0; ch < sh.in; ch++ {
							for col := live * sh.stride; col < sh.length; col++ {
								x.Set(ch, col, pad*float64(ch+1))
							}
						}
						want := tensor.New(sh.out, outLen)
						c.ForwardInto(x, want)
						got := tensor.New(sh.out, outLen)
						for i := range got.Data {
							got.Data[i] = math.NaN() // every element must be written
						}
						c.ForwardLiveInto(x, got, live)
						assertSameBits(t, got, want)
					})
				}
			}
		}
	}
}

// TestLiveFrom pins the window arithmetic the DGCNN readout relies on:
// the first window starting at or past the first identical column.
func TestLiveFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv1 := NewConv1D("c1", 1, 4, 49, 49, rng)
	pool := NewMaxPool1D(2, 2)
	conv2 := NewConv1D("c2", 4, 4, 5, 1, rng)
	for filled := 0; filled <= 17; filled++ {
		live1 := conv1.LiveFrom(filled * 49)
		if live1 != filled {
			t.Fatalf("conv1 live %d for %d filled rows", live1, filled)
		}
		if got, want := conv2.LiveFrom(pool.LiveFrom(live1)), (filled+1)/2; got != want {
			t.Fatalf("conv2 live %d for %d filled rows, want %d", got, filled, want)
		}
	}
}
