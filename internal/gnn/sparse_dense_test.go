package gnn

import (
	"math"
	"math/rand"
	"testing"

	"mvpar/internal/tensor"
)

// TestSparseDenseBitIdentical pins the CSR kernel's determinism contract:
// training with sparse propagation (SpMM over ascending-column CSR rows)
// must produce bit-identical loss curves and final weights to the dense
// reference path (ForceDense), because both accumulate every output
// element over the same terms in the same order.
func TestSparseDenseBitIdentical(t *testing.T) {
	build := func(forceDense bool) ([]Sample, *MVGNN) {
		rng := rand.New(rand.NewSource(11))
		samples := makeSyntheticSamples(24, rng, 4)
		if forceDense {
			for _, s := range samples {
				s.Node.ForceDense()
				if s.Struct != s.Node {
					s.Struct.ForceDense()
				}
			}
		}
		return samples, NewMVGNN(4, 4, 21)
	}
	cfg := TrainConfig{
		Epochs:      4,
		LR:          0.003,
		Temperature: 0.5,
		ClipNorm:    5,
		BatchSize:   4,
		AuxWeight:   0.5,
		Seed:        9,
	}
	setJobs(t, 2) // also covers replica propagation over shared CSR

	sparseSamples, sparseModel := build(false)
	denseSamples, denseModel := build(true)
	sparseCurve := sparseModel.Train(sparseSamples, cfg, nil)
	denseCurve := denseModel.Train(denseSamples, cfg, nil)

	if len(sparseCurve) != len(denseCurve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(sparseCurve), len(denseCurve))
	}
	for i := range sparseCurve {
		if math.Float64bits(sparseCurve[i].Loss) != math.Float64bits(denseCurve[i].Loss) {
			t.Fatalf("epoch %d loss differs: sparse %v (%#x) vs dense %v (%#x)",
				i, sparseCurve[i].Loss, math.Float64bits(sparseCurve[i].Loss),
				denseCurve[i].Loss, math.Float64bits(denseCurve[i].Loss))
		}
		if sparseCurve[i].Acc != denseCurve[i].Acc {
			t.Fatalf("epoch %d accuracy differs: %v vs %v", i, sparseCurve[i].Acc, denseCurve[i].Acc)
		}
	}

	sp, dp := sparseModel.Params(), denseModel.Params()
	if len(sp) != len(dp) {
		t.Fatalf("param counts differ: %d vs %d", len(sp), len(dp))
	}
	for i := range sp {
		for j := range sp[i].Value.Data {
			sb := math.Float64bits(sp[i].Value.Data[j])
			db := math.Float64bits(dp[i].Value.Data[j])
			if sb != db {
				t.Fatalf("param %s[%d] differs: %v (%#x) vs %v (%#x)",
					sp[i].Name, j, sp[i].Value.Data[j], sb, dp[i].Value.Data[j], db)
			}
		}
	}
}

// TestPropagateForceDenseMatchesSparse is the kernel-level version of the
// bit-identity pin: one propagation through Â and Âᵀ, sparse vs dense.
func TestPropagateForceDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 23} {
		g := lineGraph(n)
		if n > 4 {
			g.AddEdge(0, n-1, 0)
			g.AddEdge(2, n-2, 0)
		}
		eg := Encode(g, tensor.Randn(n, 5, 1, rng))
		dense := eg.WithFeatures(eg.X)
		dense.ForceDense()
		h := tensor.Randn(n, 6, 1, rng)
		a, b := eg.propagate(h), dense.propagate(h)
		at, bt := eg.propagateT(h), dense.propagateT(h)
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("n=%d propagate[%d]: %v vs %v", n, i, a.Data[i], b.Data[i])
			}
			if math.Float64bits(at.Data[i]) != math.Float64bits(bt.Data[i]) {
				t.Fatalf("n=%d propagateT[%d]: %v vs %v", n, i, at.Data[i], bt.Data[i])
			}
		}
	}
}
