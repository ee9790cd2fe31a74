package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	if got := m.Row(1); !reflect.DeepEqual(got, []float64{0, 0, 5}) {
		t.Fatalf("Row(1) = %v", got)
	}
}

func TestFromSliceAndRows(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatal("FromSlice layout wrong")
	}
	r := FromRows([][]float64{{1, 2}, {3, 4}})
	if !ApproxEqual(m, r, 0) {
		t.Fatal("FromRows differs from FromSlice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromRows should panic on ragged input")
		}
	}()
	FromRows([][]float64{{1}, {2, 3}})
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !ApproxEqual(c, want, 1e-12) {
		t.Fatalf("MatMul = %v", c)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Randn(5, 9, 1, rng)
	if !ApproxEqual(Transpose(Transpose(a)), a, 0) {
		t.Fatal("transpose not an involution")
	}
	at := Transpose(a)
	if at.Rows != 9 || at.Cols != 5 || at.At(3, 2) != a.At(2, 3) {
		t.Fatal("transpose layout wrong")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	b := FromRows([][]float64{{3, 4}})
	if got := Add(a, b); !ApproxEqual(got, FromRows([][]float64{{4, 2}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(a, b); !ApproxEqual(got, FromRows([][]float64{{-2, -6}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(a, 2); !ApproxEqual(got, FromRows([][]float64{{2, -4}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := Apply(a, math.Abs); !ApproxEqual(got, FromRows([][]float64{{1, 2}}), 0) {
		t.Fatalf("Apply = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	a.AddInPlace(FromRows([][]float64{{10, 20}}))
	a.ScaleInPlace(0.5)
	if !ApproxEqual(a, FromRows([][]float64{{5.5, 11}}), 0) {
		t.Fatalf("in-place ops = %v", a)
	}
}

func TestRowVecAndSums(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	if got := AddRowVec(a, v); !ApproxEqual(got, FromRows([][]float64{{11, 22}, {13, 24}}), 0) {
		t.Fatalf("AddRowVec = %v", got)
	}
	if got := SumRows(a); !ApproxEqual(got, FromRows([][]float64{{4, 6}}), 0) {
		t.Fatalf("SumRows = %v", got)
	}
	if a.Sum() != 10 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	if got := MeanRow(a); !ApproxEqual(got, FromRows([][]float64{{2, 3}}), 0) {
		t.Fatalf("MeanRow = %v", got)
	}
	if New(0, 3).Sum() != 0 {
		t.Fatal("empty Sum nonzero")
	}
}

func TestSoftmaxRows(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {1000, 1000}, {-3, 5}})
	s := SoftmaxRows(a)
	for i := 0; i < a.Rows; i++ {
		sum := 0.0
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax out of range: %v", s.Row(i))
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
	if s.At(0, 0) != s.At(0, 1) {
		t.Fatal("uniform logits should give uniform softmax")
	}
	if s.At(2, 1) <= s.At(2, 0) {
		t.Fatal("softmax ordering wrong")
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := Randn(4, 3, 1, rng)
	b := Randn(4, 5, 1, rng)
	c := New(4, 8)
	ConcatInto(a, b, c)
	l, r := SplitCols(c, 3)
	if !ApproxEqual(l, a, 0) || !ApproxEqual(r, b, 0) {
		t.Fatal("SplitCols does not undo ConcatInto")
	}
}

func TestArgsortStable(t *testing.T) {
	got := Argsort([]float64{3, 1, 2, 1})
	if !reflect.DeepEqual(got, []int{1, 3, 2, 0}) {
		t.Fatalf("Argsort = %v", got)
	}
	if got := Argsort(nil); len(got) != 0 {
		t.Fatalf("Argsort(nil) = %v", got)
	}
}

func TestNorm2(t *testing.T) {
	a := FromRows([][]float64{{3, -4}})
	if a.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", a.Norm2())
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := XavierInit(30, 20, rng)
	limit := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
	if m.Norm2() == 0 {
		t.Fatal("Xavier init produced all zeros")
	}
}

// Property: (AB)ᵀ = BᵀAᵀ on random shapes.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		return ApproxEqual(Transpose(MatMul(a, b)), MatMul(Transpose(b), Transpose(a)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition, A(B+C) = AB + AC.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		c := Randn(k, n, 1, rng)
		return ApproxEqual(MatMul(a, Add(b, c)), Add(MatMul(a, b), MatMul(a, c)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Argsort output is a permutation and sorts the values.
func TestArgsortProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		idx := Argsort(vals)
		if len(idx) != len(vals) {
			return false
		}
		seen := make([]bool, len(vals))
		for _, i := range idx {
			if i < 0 || i >= len(vals) || seen[i] {
				return false
			}
			seen[i] = true
		}
		for i := 1; i < len(idx); i++ {
			if vals[idx[i-1]] > vals[idx[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(256, 256, 1, rng)
	y := Randn(256, 256, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
