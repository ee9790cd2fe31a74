package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vecMatSalts returns named fills for kernel operands: plain values, and
// values salted with zeros of both signs, a NaN, or infinities (which
// breed the default NaN through 0·Inf and Inf−Inf), and all of these at
// once, so NaNs of two payloads meet in one sum.
func vecMatSalts() map[string]func(i int, v float64) float64 {
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
			if i%13 == 7 {
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
			case 4:
				return 0
			}
			return v
		},
		"mixed": func(i int, v float64) float64 {
			switch {
			case i%13 == 7:
				return math.NaN()
			case i%11 == 2:
				return math.Inf(1)
			case i%11 == 9:
				return math.Inf(-1)
			case i%7 == 4:
				return negZero
			}
			return v
		},
	}
}

// TestVecMatAVX2MatchesScalar calls the AVX2 body (through VecMatAdd's
// dispatch, which hands it the 4-wide prefix) and the scalar body on the
// same operands and compares raw bits: every output width the model uses
// and the block boundaries around them, k from 0 to 70, the zero skip on
// and off, a stride wider than the output, x and w salted with ±0, NaN
// and ±Inf, and accumulators starting at −0 or at random values.
func TestVecMatAVX2MatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine; the scalar body is the reference itself")
	}
	widths := []int{1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 47, 48, 49}
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(21))
	for _, n := range widths {
		for _, pad := range []int{0, 3} {
			ld := n + pad
			for name, fill := range vecMatSalts() {
				for _, target := range []string{"x", "w", "xw"} {
					for _, skip := range []bool{false, true} {
						for _, start := range []string{"negzero", "rand"} {
							for k := 0; k <= 70; k++ {
								x := make([]float64, k)
								w := make([]float64, k*ld)
								for i := range x {
									x[i] = rng.NormFloat64()
									if target != "w" {
										x[i] = fill(i, x[i])
									}
								}
								for i := range w {
									w[i] = rng.NormFloat64()
									if target != "x" {
										w[i] = fill(i, w[i])
									}
								}
								want := make([]float64, n)
								for j := range want {
									want[j] = negZero
									if start == "rand" {
										want[j] = rng.NormFloat64()
									}
								}
								got := append([]float64(nil), want...)
								vecMatScalar(want, x, w, ld, skip)
								VecMatAdd(got, x, w, ld, skip)
								for j := range want {
									if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
										t.Fatalf("n=%d ld=%d k=%d %s/%s skip=%v start=%s: acc[%d] = %v (%#x), scalar %v (%#x)",
											n, ld, k, name, target, skip, start, j,
											got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestVecMatScalarSkip pins the zero-skip contract on the scalar body
// itself: ±0 skips (so an infinite weight behind it adds nothing), NaN
// does not, and with the skip off 0·Inf poisons the sum.
func TestVecMatScalarSkip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	w := []float64{math.Inf(1), math.Inf(-1), 2}
	for _, c := range []struct {
		x    []float64
		skip bool
		nan  bool
	}{
		{[]float64{0, negZero, 1}, true, false},
		{[]float64{0, negZero, 1}, false, true},
		{[]float64{math.NaN(), 0, 1}, true, true},
	} {
		acc := []float64{1}
		vecMatScalar(acc, c.x, w, 1, c.skip)
		if math.IsNaN(acc[0]) != c.nan || (!c.nan && acc[0] != 3) {
			t.Fatalf("x=%v skip=%v: acc %v", c.x, c.skip, acc[0])
		}
	}
}

// TestVecMatAddRejectsShortWeights checks the bounds guard in front of
// the assembly: a weight slice too short for the stride must panic, not
// read past its end.
func TestVecMatAddRejectsShortWeights(t *testing.T) {
	for _, c := range []struct{ n, k, ld, lw int }{{16, 3, 16, 47}, {4, 2, 3, 8}} {
		t.Run(fmt.Sprintf("n%dk%dld%dw%d", c.n, c.k, c.ld, c.lw), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			VecMatAdd(make([]float64, c.n), make([]float64, c.k), make([]float64, c.lw), c.ld, false)
		})
	}
}
