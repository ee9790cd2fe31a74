package tensor

import (
	"math/rand"
	"testing"
)

func TestArenaRecyclesAndZeroes(t *testing.T) {
	a := NewArena()
	m1 := a.Get(3, 4)
	m1.Set(2, 3, 7)
	if a.Live() != 1 {
		t.Fatalf("Live = %d", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after reset = %d", a.Live())
	}
	// Same element count comes back recycled — even reshaped — and zeroed.
	m2 := a.Get(4, 3)
	if &m2.Data[0] != &m1.Data[0] {
		t.Fatal("arena did not recycle the buffer")
	}
	if m2.Rows != 4 || m2.Cols != 3 {
		t.Fatalf("recycled shape %dx%d", m2.Rows, m2.Cols)
	}
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
	// A second Get of the same size while the first is live must be a
	// distinct buffer.
	m3 := a.Get(4, 3)
	if len(m3.Data) > 0 && &m3.Data[0] == &m2.Data[0] {
		t.Fatal("live buffer handed out twice")
	}
}

func TestArenaNilFallsBackToHeap(t *testing.T) {
	var a *Arena
	m := a.Get(2, 2)
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("nil arena Get shape %dx%d", m.Rows, m.Cols)
	}
	a.Reset() // must not panic
	if a.Live() != 0 {
		t.Fatal("nil arena Live nonzero")
	}
}

func TestArenaZeroSizedBuffers(t *testing.T) {
	a := NewArena()
	m := a.Get(0, 5)
	if m.Rows != 0 || m.Cols != 5 || len(m.Data) != 0 {
		t.Fatalf("zero-row Get = %+v", m)
	}
	a.Reset()
	m2 := a.Get(3, 0)
	if m2.Rows != 3 || m2.Cols != 0 || len(m2.Data) != 0 {
		t.Fatalf("zero-col Get = %+v", m2)
	}
}

// After one warm-up sample, a fixed Get/Reset cycle must allocate nothing.
func TestArenaSteadyStateAllocFree(t *testing.T) {
	a := NewArena()
	cycle := func() {
		a.Reset()
		x := a.Get(8, 8)
		y := a.Get(8, 4)
		z := a.Get(8, 4)
		_ = x
		_ = y
		_ = z
	}
	cycle()
	cycle() // second pass populates the free-list map buckets
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v times", allocs)
	}
}

func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Randn(5, 7, 1, rng)
	b := Randn(7, 4, 1, rng)

	c := New(5, 4)
	MatMulInto(a, b, c)
	if !ApproxEqual(c, MatMul(a, b), 0) {
		t.Fatal("MatMulInto differs from MatMul")
	}

	at := New(7, 5)
	TransposeInto(a, at)
	if !ApproxEqual(at, Transpose(a), 0) {
		t.Fatal("TransposeInto differs from Transpose")
	}

	ap := New(5, 7)
	ApplyInto(a, func(v float64) float64 { return v * 2 }, ap)
	if !ApproxEqual(ap, Scale(a, 2), 0) {
		t.Fatal("ApplyInto differs from Apply")
	}
	// In-place ApplyInto is allowed.
	clone := a.Clone()
	ApplyInto(clone, func(v float64) float64 { return v * 2 }, clone)
	if !ApproxEqual(clone, ap, 0) {
		t.Fatal("in-place ApplyInto wrong")
	}

	v := Randn(1, 7, 1, rng)
	rv := New(5, 7)
	AddRowVecInto(a, v, rv)
	if !ApproxEqual(rv, AddRowVec(a, v), 0) {
		t.Fatal("AddRowVecInto differs from AddRowVec")
	}

	cc := New(5, 11)
	ConcatInto(a, Randn(5, 4, 1, rng), cc)
	if cc.Cols != 11 {
		t.Fatal("ConcatInto shape wrong")
	}

	sr := New(1, 7)
	SumRowsInto(a, sr)
	if !ApproxEqual(sr, SumRows(a), 0) {
		t.Fatal("SumRowsInto differs from SumRows")
	}
}

// The Into kernels that read while writing must reject a destination that
// wraps the same FromSlice storage as an input.
func TestIntoKernelsRejectFromSliceAliasing(t *testing.T) {
	data := make([]float64, 9)
	a := FromSlice(3, 3, data)
	alias := FromSlice(3, 3, data)
	for name, bad := range map[string]func(){
		"MatMulInto":    func() { MatMulInto(a, New(3, 3), alias) },
		"TransposeInto": func() { TransposeInto(a, alias) },
		"SpMMInto": func() {
			s := NewCSR(3, 3, []int{0, 1, 1, 1}, []int{0}, []float64{1})
			SpMMInto(s, a, alias)
		},
		"SumRowsInto": func() { SumRowsInto(FromSlice(1, 9, data), FromSlice(1, 9, data)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted an aliased destination", name)
				}
			}()
			bad()
		}()
	}
	// ApplyInto explicitly allows aliasing over FromSlice views of the
	// same storage.
	ApplyInto(a, func(v float64) float64 { return v + 1 }, alias)
	if data[0] != 1 {
		t.Fatal("aliased ApplyInto did not write through")
	}
}

func TestIntoKernelsEmptyMatrices(t *testing.T) {
	// Zero-dimension matrices flow through every Into kernel untouched.
	MatMulInto(New(0, 3), New(3, 2), New(0, 2))
	MatMulInto(New(2, 0), New(0, 3), New(2, 3))
	TransposeInto(New(0, 4), New(4, 0))
	ApplyInto(New(0, 0), func(v float64) float64 { return v }, New(0, 0))
	SumRowsInto(New(0, 3), New(1, 3))
	idx := make([]int, 0)
	ArgsortInto(nil, idx, idx)
}

func TestArgsortIntoMatchesArgsort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 2, 7, 64, 129} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(5)) // duplicates exercise stability
		}
		idx := make([]int, n)
		scratch := make([]int, n)
		ArgsortInto(vals, idx, scratch)
		want := Argsort(vals)
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("n=%d: ArgsortInto[%d] = %d, Argsort = %d", n, i, idx[i], want[i])
			}
		}
	}
}
