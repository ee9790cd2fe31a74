package tensor

// hasAVX2 gates the assembly kernels in kernels_amd64.s (and, through
// HasAVX2, those of tensor/i8): true when the CPU reports AVX2 and the OS
// saves YMM state across context switches (OSXSAVE + XCR0[2:1] == 11).
// Resolved once at package init; every dispatch site falls back to the
// scalar kernels when false, with identical results.
var hasAVX2 = detectAVX2()

// HasAVX2 reports whether the AVX2 kernels run on this machine.
func HasAVX2() bool { return hasAVX2 }

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, cx, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if cx&osxsaveBit == 0 || cx&avxBit == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, bx, _, _ := cpuid(7, 0)
	return bx&(1<<5) != 0 // AVX2
}

func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (lo, hi uint32)

//go:noescape
func vecMatAVX2(acc *float64, n int, x *float64, k int, w *float64, ld int, skip bool)
