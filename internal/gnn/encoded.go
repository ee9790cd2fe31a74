// Package gnn implements the paper's models: the Deep Graph Convolutional
// Neural Network (DGCNN, Zhang et al. 2018) used by each view — graph
// convolution stack, SortPooling, 1-D convolutions, dense head — and the
// multi-view fusion model (eq. 5) that combines the node-feature view and
// the structural-pattern view for parallelism classification.
package gnn

import (
	"fmt"
	"slices"

	"mvpar/internal/graph"
	"mvpar/internal/tensor"
)

// EncodedGraph is a graph prepared for message passing: the random-walk
// normalized adjacency Â = D⁻¹(A + I) over the undirected structure in CSR
// form, with its transpose for backpropagation, plus the node feature
// matrix. The CSR arrays are built once per record and are read-only
// afterwards, so epochs and data-parallel replicas share them freely.
type EncodedGraph struct {
	N int
	X *tensor.Matrix // N x F node features

	a  *tensor.Sparse // Â, rows store columns ascending
	at *tensor.Sparse // Âᵀ

	// aDense/atDense, when set (ForceDense), route propagation through the
	// dense MatMul kernel instead of SpMM — the reference path the
	// sparse-vs-dense bit-identity test compares against.
	aDense, atDense *tensor.Matrix
}

// WithFeatures returns a shallow copy of the encoded graph that shares
// the adjacency but carries different node features (used to derive the
// static-only node view without re-encoding the topology).
func (g *EncodedGraph) WithFeatures(x *tensor.Matrix) *EncodedGraph {
	if x.Rows != g.N {
		panic(fmt.Sprintf("gnn: WithFeatures rows %d != nodes %d", x.Rows, g.N))
	}
	return &EncodedGraph{N: g.N, X: x, a: g.a, at: g.at, aDense: g.aDense, atDense: g.atDense}
}

// ForceDense materializes Â and Âᵀ as dense matrices and routes propagate
// through MatMul from now on. Debug/testing hook: because the dense kernel
// accumulates over k ascending and skips zeros, and the CSR rows store
// columns ascending, the dense path is bit-identical to the sparse one —
// which TestSparseDenseBitIdentical pins.
func (g *EncodedGraph) ForceDense() {
	g.aDense = g.a.Dense()
	g.atDense = g.at.Dense()
}

// Encode builds an EncodedGraph from a directed graph and node features.
// Edges are symmetrized (message passing ignores dependence direction,
// matching the DGCNN's treatment of arbitrary graphs) and self-loops are
// added before normalization. Each CSR row stores its columns in ascending
// order — the determinism contract tensor.SpMMInto relies on.
func Encode(g *graph.Directed, x *tensor.Matrix) *EncodedGraph {
	n := g.NumNodes()
	if x.Rows != n {
		panic(fmt.Sprintf("gnn: Encode features rows %d != nodes %d", x.Rows, n))
	}
	// Row v's columns are v's distinct undirected neighbours plus v
	// itself (the self loop), ascending.
	u := g.Undirected()
	rowPtr := make([]int, n+1)
	for v := 0; v < n; v++ {
		nb := u.Neighbors(v)
		deg := len(nb)
		if _, self := slices.BinarySearch(nb, v); !self {
			deg++
		}
		rowPtr[v+1] = rowPtr[v] + deg
	}
	nnz := rowPtr[n]
	colIdx := make([]int, 0, nnz)
	val := make([]float64, nnz)
	for v := 0; v < n; v++ {
		w := 1.0 / float64(rowPtr[v+1]-rowPtr[v])
		for i := rowPtr[v]; i < rowPtr[v+1]; i++ {
			val[i] = w
		}
		// Ascending column order for reproducibility (and the SpMM
		// bit-identity contract).
		nb := u.Neighbors(v)
		i, self := slices.BinarySearch(nb, v)
		colIdx = append(colIdx, nb[:i]...)
		if !self {
			colIdx = append(colIdx, v)
		}
		colIdx = append(colIdx, nb[i:]...)
	}
	a := tensor.NewCSR(n, n, rowPtr, colIdx, val)
	return &EncodedGraph{N: n, X: x, a: a, at: a.Transposed()}
}

// AdjacencyEntries returns the number of normalized adjacency entries
// (symmetrized edges plus self-loops) — a size statistic for exports.
func (g *EncodedGraph) AdjacencyEntries() int { return g.a.NNZ() }

// Adjacency returns the normalized adjacency Â in CSR form. Read-only:
// the arrays are shared across feature views, epochs and replicas.
func (g *EncodedGraph) Adjacency() *tensor.Sparse { return g.a }

// propagate computes Â·H (rows of H aggregated over normalized neighbors).
func (g *EncodedGraph) propagate(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(g.N, h.Cols)
	g.propagateInto(h, out)
	return out
}

// propagateT computes Âᵀ·H, needed by the backward pass.
func (g *EncodedGraph) propagateT(h *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(g.N, h.Cols)
	g.propagateTInto(h, out)
	return out
}

// propagateInto computes out = Â·H without allocating. out must not alias h.
func (g *EncodedGraph) propagateInto(h, out *tensor.Matrix) {
	if g.aDense != nil {
		tensor.MatMulInto(g.aDense, h, out)
		return
	}
	tensor.SpMMInto(g.a, h, out)
}

// propagateTInto computes out = Âᵀ·H without allocating. out must not alias h.
func (g *EncodedGraph) propagateTInto(h, out *tensor.Matrix) {
	if g.atDense != nil {
		tensor.MatMulInto(g.atDense, h, out)
		return
	}
	tensor.SpMMInto(g.at, h, out)
}
