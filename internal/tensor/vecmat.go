package tensor

import "fmt"

// VecMatAdd accumulates one vector×matrix product into acc:
//
//	acc[j] += x[k]·w[k·ld+j]  for k ascending, j < len(acc)
//
// w holds len(x) rows of stride ld, of which the first len(acc) columns
// are read. With skipZero set, a k whose x[k] is ±0 adds nothing (NaN is
// not skipped), as MatMul's kernels do. Every output adds its products in
// ascending k, one multiply then one add each, so the result is the same
// bit for bit on every path: the AVX2 body (four lanes per register,
// sixteen outputs per pass) and the scalar body that finishes its
// leftover columns or replaces it off AVX2 hosts.
//
// This is the inner loop of the float64 forward: graph-conv matmul rows,
// Dense rows and Conv1D windows.
func VecMatAdd(acc, x, w []float64, ld int, skipZero bool) {
	if len(acc) == 0 || len(x) == 0 {
		return
	}
	if ld < len(acc) || len(w) < (len(x)-1)*ld+len(acc) {
		panic(fmt.Sprintf("tensor: VecMatAdd %d outputs, %d inputs, stride %d over %d weights", len(acc), len(x), ld, len(w)))
	}
	if n := len(acc) &^ 3; hasAVX2 && n > 0 {
		vecMatAVX2(&acc[0], n, &x[0], len(x), &w[0], ld, skipZero)
		if n == len(acc) {
			return
		}
		acc, w = acc[n:], w[n:]
	}
	vecMatScalar(acc, x, w, ld, skipZero)
}

// vecMatScalar is VecMatAdd's reference body: the loop the AVX2 kernel
// reproduces lane for lane.
func vecMatScalar(acc, x, w []float64, ld int, skipZero bool) {
	for k, xv := range x {
		if skipZero && xv == 0 {
			continue
		}
		row := w[k*ld : k*ld+len(acc)]
		for j := range acc {
			acc[j] += xv * row[j]
		}
	}
}
