package i8

import "mvpar/internal/tensor"

// useAVX2 gates the assembly kernels in kernels_amd64.s: the CPU feature
// probe tensor runs once at package init. Every dispatch site falls back
// to the scalar kernels when false, with identical results — the scalar
// quantizer uses the same round-to-nearest-even rule as VCVTPS2DQ.
var useAVX2 = tensor.HasAVX2()

//go:noescape
func dotAVX2(a, b *int8, n int) int32

//go:noescape
func quantizeRowAVX2(src *float32, dst *int8, n int, inv float32)

//go:noescape
func quantizeVecAVX2(src, invs *float32, dst *int8, n int)

//go:noescape
func maxAbsAVX2(src *float32, n int) float32

//go:noescape
func colMaxAbsAVX2(acc, src *float32, n int)

//go:noescape
func scaledAbsMaxAVX2(acc *int32, cols *float32, n int) float32

//go:noescape
func requantRowAVX2(acc *int32, cols *float32, dst *int8, n int, inv float32)

//go:noescape
func axpyRowAVX2(dst *int32, src *int8, n int, v int32)

//go:noescape
func gemmRowP16AVX2(a *int8, n int, b *int8, c *int32)

//go:noescape
func gemmRowP32AVX2(a *int8, n int, b *int8, c *int32)
