//go:build !amd64

package tensor

// hasAVX2 is constant false off amd64: every dispatch site dead-codes to
// the scalar kernels, which define the results the assembly reproduces.
const hasAVX2 = false

// HasAVX2 reports whether the AVX2 kernels run on this machine.
func HasAVX2() bool { return false }

func vecMatAVX2(acc *float64, n int, x *float64, k int, w *float64, ld int, skip bool) {
	panic("tensor: no asm kernel")
}
