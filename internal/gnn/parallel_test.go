package gnn

import (
	"math/rand"
	"testing"

	"mvpar/internal/nn"
	"mvpar/internal/pool"
)

// setJobs sets the process-wide worker count for the rest of the test
// and restores the NumCPU default when it ends.
func setJobs(t testing.TB, n int) {
	pool.SetDefaultParallelism(n)
	t.Cleanup(func() { pool.SetDefaultParallelism(0) })
}

// trainPair trains two identically-seeded MVGNNs, one on 1 worker and
// one on jobs workers, and returns both models and curves.
func trainPair(t *testing.T, jobs int) (m1, m2 *MVGNN, c1, c2 []EpochStats) {
	t.Helper()
	rng1 := rand.New(rand.NewSource(6))
	s1 := makeSyntheticSamples(24, rng1, 3)
	rng2 := rand.New(rand.NewSource(6))
	s2 := makeSyntheticSamples(24, rng2, 3)
	cfg := TrainConfig{Epochs: 4, LR: 0.01, Temperature: 0.5, ClipNorm: 5, BatchSize: 8, Seed: 11}
	m1 = NewMVGNN(3, 3, 11)
	m2 = NewMVGNN(3, 3, 11)
	setJobs(t, 1)
	c1 = m1.Train(s1, cfg, nil)
	setJobs(t, jobs)
	c2 = m2.Train(s2, cfg, nil)
	return
}

// TestParallelTrainingBitIdentical is the training determinism guarantee:
// data-parallel shadow-gradient reduction must reproduce the serial loss
// curve AND the final weights bit for bit, for any worker count.
func TestParallelTrainingBitIdentical(t *testing.T) {
	for _, jobs := range []int{2, 4} {
		m1, m2, c1, c2 := trainPair(t, jobs)
		if len(c1) != len(c2) {
			t.Fatalf("jobs=%d: curve lengths %d vs %d", jobs, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i].Loss != c2[i].Loss || c1[i].Acc != c2[i].Acc {
				t.Fatalf("jobs=%d: epoch %d diverged: %+v vs %+v", jobs, i, c1[i], c2[i])
			}
		}
		p1, p2 := m1.Params(), m2.Params()
		for j := range p1 {
			for i := range p1[j].Value.Data {
				if p1[j].Value.Data[i] != p2[j].Value.Data[i] {
					t.Fatalf("jobs=%d: param %s element %d: %g vs %g",
						jobs, p1[j].Name, i, p1[j].Value.Data[i], p2[j].Value.Data[i])
				}
			}
		}
	}
}

// TestSingleViewParallelBitIdentical covers the same guarantee for the
// single-view trainer (the Static GNN baseline path).
func TestSingleViewParallelBitIdentical(t *testing.T) {
	rng1 := rand.New(rand.NewSource(5))
	s1 := makeSyntheticSamples(20, rng1, 4)
	rng2 := rand.New(rand.NewSource(5))
	s2 := makeSyntheticSamples(20, rng2, 4)
	cfg := TrainConfig{Epochs: 4, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 9}
	v1 := NewSingleView(4, true, 9)
	v2 := NewSingleView(4, true, 9)
	setJobs(t, 1)
	v1.Train(s1, cfg, nil)
	setJobs(t, 3)
	v2.Train(s2, cfg, nil)
	p1, p2 := v1.Net.Params(), v2.Net.Params()
	for j := range p1 {
		for i := range p1[j].Value.Data {
			if p1[j].Value.Data[i] != p2[j].Value.Data[i] {
				t.Fatalf("param %s element %d: %g vs %g", p1[j].Name, i, p1[j].Value.Data[i], p2[j].Value.Data[i])
			}
		}
	}
}

// TestReplicateSharesWeightsIsolatesGrads checks the replica contract:
// identical predictions (shared weights), isolated gradient buffers.
func TestReplicateSharesWeightsIsolatesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	samples := makeSyntheticSamples(6, rng, 3)
	m := NewMVGNN(3, 3, 13)
	rep := m.Replicate()
	for _, s := range samples {
		gc, gp := rep.PredictWithProba(s)
		if wc, wp := m.PredictWithProba(s); gc != wc || gp != wp {
			t.Fatalf("replica prediction (%d, %v) differs from master (%d, %v)", gc, gp, wc, wp)
		}
	}
	// A backward pass through the replica must leave master grads at zero.
	loss := &nn.SoftmaxCrossEntropy{Temperature: 0.5}
	phase := &viewPhase{m: rep}
	phase.trainStep(samples[0], loss, 0)
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("replica backward leaked into master grad %s", p.Name)
			}
		}
	}
	touched := false
	for _, p := range rep.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				touched = true
			}
		}
	}
	if !touched {
		t.Fatal("replica backward produced no gradient at all")
	}
}

// TestEvaluateParallelMatchesSerial checks the fan-out evaluator returns
// the exact serial accuracy at several worker counts.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	samples := makeSyntheticSamples(30, rng, 4)
	m := NewMVGNN(4, 4, 7)
	setJobs(t, 1)
	m.Train(samples, TrainConfig{Epochs: 6, LR: 0.005, Temperature: 0.5, ClipNorm: 5, BatchSize: 4, Seed: 7}, nil)
	want := Evaluate(m.Predictor().Labeler(ViewTrained), samples)
	for _, jobs := range []int{1, 2, 4, 100} {
		setJobs(t, jobs)
		got := EvaluateParallel(func() func(Sample) int { return m.Predictor().Replicate().Labeler(ViewTrained) }, samples)
		if got != want {
			t.Fatalf("jobs=%d: EvaluateParallel = %v, Evaluate = %v", jobs, got, want)
		}
	}
}
